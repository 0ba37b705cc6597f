"""The Weyl m-function: Herglotz structure, pole residues, and the
Krein-type reconstruction of m from two spectra.

Run:  python3 demos/weyl_function.py
"""

import math

import numpy as np

from jumpsl import (
    TwoSpectra,
    eigenvalues,
    m_from_two_spectra,
    numerical_residue,
    secondary_spectrum,
    spectral_data,
    weyl_m,
)
from jumpsl.problem import ProblemSpec, RobinBC, constant_potential, validate

problem = validate(ProblemSpec(constant_potential(0.0), RobinBC(0.0, 0.0)))
# For q = 0 with Neumann ends, m(lambda) = -cos(rho pi)/(rho sin(rho pi)),
# so m(-1) = coth(pi).
coth_pi = 1.0 / math.tanh(math.pi)

print("m is Herglotz: it maps the upper half plane to itself.")
for lam in (1.3 + 0.5j, -4.0 + 2.0j, 10.0 + 1.0j):
    m = weyl_m(problem, lam).m
    print(f"  lambda = {lam}:  m = {m:.6f}   Im m > 0: {m.imag > 0}")

print("\nPoles sit at the eigenvalues with residue -gamma_n:")
sd = spectral_data(problem, eigenvalues(problem, 4))
for r in sd.records[1:4]:
    res = numerical_residue(lambda z: weyl_m(problem, z).m, r.lam, radius=1e-3)
    print(f"  lambda_{r.n} = {r.lam:6.2f}: residue {res.real:+.8f}, "
          f"-gamma_n = {-r.gamma:+.8f}")

print("\nTwo-spectra reconstruction: the primary spectrum n^2 and the")
print("secondary (Dirichlet-at-0) spectrum (n + 1/2)^2 determine m through")
print("products normalized by the leading-order functions (Hadamard")
print("factorization), no potential and no fitted constant required:")
prim = eigenvalues(problem, 100, verify=False)
sec = secondary_spectrum(problem, 100)
ts = TwoSpectra(prim, sec, problem)
approx = m_from_two_spectra(ts, -1.0).real
print(f"  m(-1) from 100+100 eigenvalues: {approx:.15f}")
print(f"  exact coth(pi):                 {coth_pi:.15f}")
print(f"  error: {abs(approx - coth_pi):.2e}")
