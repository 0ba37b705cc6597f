"""Forward solve walkthrough: build a problem with an interior jump,
compute certified eigenvalues, and inspect the full spectral data.

Run:  python3 demos/forward_spectrum.py
"""

import math

from jumpsl import (
    JumpCondition,
    ProblemSpec,
    RobinBC,
    constant_potential,
    eigenvalues,
    spectral_data,
    validate,
)

# -y'' + q y = lambda y on [0, pi], q = 1, Robin constants h = 1, H = -1,
# and one transmission condition at pi/3:
#   y(d+) = 2 y(d-),   y'(d+) = y'(d-) + y(d-)
problem = validate(ProblemSpec(
    constant_potential(1.0),
    RobinBC(1.0, -1.0),
    (JumpCondition(math.pi / 3, a=2.0, b=1.0, c=1.0),)))

print("weight function w(x) = 1/(a1 b1 ... ) on each segment:",
      problem.weights)

sd = spectral_data(problem, eigenvalues(problem, 10))

print(f"\n{'n':>3} {'lambda_n':>14} {'rho_n':>10} {'gamma_n':>12} "
      f"{'beta_n':>12}  certification")
for r in sd.records:
    print(f"{r.n:>3} {r.lam:>14.8f} {r.rho.real:>10.6f} {r.gamma:>12.6e} "
          f"{r.beta:>12.5f}  {r.certification}")

print("\nEach eigenvalue is simple and certified by the oscillation index:")
print("exactly n eigenvalues lie below the gap above lambda_(n-1), so no root")
print("of the characteristic function was missed.")
print("rho_n = sqrt(lambda_n) approaches n + o(n): ratios rho_n/n =",
      [round(r.rho.real / r.n, 4) for r in sd.records[5:]])
