"""High-energy leading-order expansions built from reflection terms.

Crossing k jumps, the leading form of the cosine-type solution is a sum of
2^k terms, one per subset S of the crossed jumps: the jumps outside S
contribute their alpha = (a+b)/2, the jumps inside S their
alpha' = (a-b)/2, and the phase offset alternates backward through S,
ending negative at the largest index:

    S = {i_1 < ... < i_p}  ->  phase = 2 * sum_l (-1)^(p-l+1) d_{i_l}.

The empty subset carries coefficient prod(alpha_i) and phase 0.  The same
terms (with sines) give the leading characteristic function, whose real
zeros are the leading-order eigenvalues.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .problem import PI

__all__ = [
    "ReflectionTerm",
    "reflection_terms",
    "asymptotic_eval",
    "sine_sum",
    "eigenvalue_guesses",
]


@dataclass(frozen=True)
class ReflectionTerm:
    """One term of the combinatorial expansion: coefficient * trig(rho*(x + phase))."""

    subset: tuple       # 1-based indices of jumps taken with alpha'
    coefficient: float
    phase: float


def reflection_terms(problem, n_jumps):
    """All 2^k reflection terms after crossing the first ``n_jumps`` jumps.

    Term order is by subset bitmask, ascending (empty subset first).
    """
    k = n_jumps
    if not 0 <= k <= len(problem.jumps):
        raise DomainError(f"n_jumps = {k} outside 0..{len(problem.jumps)}")
    alphas = problem.alphas[:k]
    primes = problem.alpha_primes[:k]
    ds = [j.d for j in problem.jumps[:k]]
    terms = []
    for mask in range(1 << k):
        subset = tuple(i + 1 for i in range(k) if mask >> i & 1)
        coeff = 1.0
        for i in range(k):
            coeff *= primes[i] if mask >> i & 1 else alphas[i]
        p = len(subset)
        phase = 2.0 * sum(
            (-1) ** (p - l + 1) * ds[idx - 1] for l, idx in enumerate(subset, start=1)
        )
        terms.append(ReflectionTerm(subset, coeff, phase))
    return terms


def _segment_jump_count(problem, x):
    if not 0.0 <= x <= PI:
        raise DomainError(f"x = {x} outside [0, pi]")
    ds = [j.d for j in problem.jumps]
    for d in ds:
        if abs(x - d) < 1e-12:
            raise DomainError(f"x = {x} coincides with a jump point")
    return sum(d < x for d in ds)


def asymptotic_eval(problem, target, x, rho):
    """Leading-order phi, phi' or Delta at spectral parameter rho.

    Eigenparameter boundary conditions multiply the Robin-form leading
    terms by rho^2 (phi, phi') and the leading Delta by rho^4.
    """
    rho = np.asarray(rho, dtype=complex)
    if not np.all(np.isfinite(rho) & (rho != 0)):
        raise DomainError("asymptotic forms require finite rho != 0")
    eig = problem.variant == "eigenparameter"
    if target == "delta":
        val = problem.w_end * rho * _leading_sum(problem, "sin")(rho)
        if eig:
            # Delta = W(phi, psi) carries an extra -rho^4 here: the
            # lambda-affine boundary data contribute rho^2 per endpoint and
            # flip the sign of the Wronskian's leading term
            val = val * (-rho ** 4)
        return complex(val) if val.ndim == 0 else val
    if target not in ("phi", "phi_prime"):
        raise ValueError(f"unknown target {target!r}")
    k = _segment_jump_count(problem, x)
    terms = reflection_terms(problem, k)
    if target == "phi":
        val = sum(t.coefficient * np.cos(rho * (x + t.phase)) for t in terms)
    else:
        val = -rho * sum(t.coefficient * np.sin(rho * (x + t.phase)) for t in terms)
    if eig:
        val = val * rho ** 2
    return complex(val) if np.ndim(val) == 0 else val


def _leading_sum(problem, trig):
    """rho -> the leading trigonometric sum of Delta, vectorized over rho.

    ``trig="sinc"`` gives the sine sum divided by rho, finite at rho = 0.
    """
    terms = reflection_terms(problem, len(problem.jumps))
    coeff = np.array([t.coefficient for t in terms])
    shift = PI + np.array([t.phase for t in terms])
    if trig == "sinc":
        return lambda rho: np.sinc(np.multiply.outer(rho, shift / PI)) @ (coeff * shift)
    fn = np.sin if trig == "sin" else np.cos
    return lambda rho: fn(np.multiply.outer(rho, shift)) @ coeff


def sine_sum(problem, rho, trig="sin"):
    """The leading trigonometric sum of Delta with all rho powers divided out.

    ``trig="cos"`` gives the analogous sum for a Dirichlet condition at 0
    (the sine-type solution), whose zeros lead the Dirichlet spectrum.
    """
    val = _leading_sum(problem, trig)(np.asarray(rho, dtype=float))
    return float(val) if np.ndim(val) == 0 else val


def _check_count(count):
    """DomainError unless ``count`` is an integer >= 1 (a bool is not)."""
    if isinstance(count, bool) or not (isinstance(count, numbers.Integral) and count >= 1):
        raise DomainError(f"count must be an integer >= 1, got {count!r}")


def eigenvalue_guesses(problem, count, trig="sin"):
    """Ascending real zeros of the leading sine sum, the leading-order roots:
    exact zeros on a grid of width 0.05 in rho plus its sign changes,
    bisected together to b - a <= 4 eps b (rho = 0 counts only where it vanishes)."""
    _check_count(count)
    g = _leading_sum(problem, trig)
    zeros = [0.0] if g(0.0) == 0.0 else []
    lo, chunk = 0.0, max(10.0, float(count))
    while len(zeros) < count:
        grid = np.arange(lo, lo + chunk + 0.05, 0.05)
        vals = g(grid)
        inner = grid[:-1] != 0.0
        exact = grid[:-1][inner & (vals[:-1] == 0.0)]
        i = np.flatnonzero(inner & (vals[:-1] * vals[1:] < 0.0))
        a, b, ga = grid[i], grid[i + 1], vals[i]
        while np.any(b - a > 4.0 * np.finfo(float).eps * b):
            m = 0.5 * (a + b)
            gm = g(m)
            right = np.sign(gm) == np.sign(ga)
            a, ga = np.where(right, m, a), np.where(right, gm, ga)
            b = np.where(right, b, m)
        zeros.extend(np.sort(np.concatenate([exact, 0.5 * (a + b)])).tolist())
        lo += chunk
        if len(zeros) < count and lo > 100 * max(count, 10):
            raise DomainError("failed to locate enough zeros of the sine sum")
    return zeros[:count]
