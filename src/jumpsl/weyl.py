"""Weyl m-function, its partial-fraction expansion, and recovery of m
from two spectra.

m(lambda) = W(chi, psi)/W(phi, psi) at 0 (-psi(0)/Delta for Robin data,
-R1(psi)/(r1 Delta) for eigenparameter data), so a single backward solve of
psi yields both numerator and denominator.  The residue of m at an
eigenvalue lambda_n equals -gamma_n, which fixes the partial-fraction
series sum gamma_n/(lambda_n - lambda).

The two-spectra route is the Hadamard factorization of psi(0) and Delta:
each truncated product over mu_n or lambda_n is normalized by the same
product over the zeros of its leading-order entire function, so the
constant in front is exactly that of m0 = -C(rho)/(rho S(rho)), the
leading-order m, and no calibration is needed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import _leading_sum, eigenvalue_guesses
from .errors import (DomainError, InterlacingError, MismatchError, PoleError,
                     VariantError)
from .problem import ValidatedProblem, _atomic_write
from .propagation import SpectralPoint, _psi_at_zero, fundamental_solution, initial_state
from .spectrum import SpectralData, _fmt, _wronskian, eigenvalues, spectral_data

__all__ = [
    "WeylSample",
    "weyl_m",
    "weyl_theta",
    "partial_fraction_m",
    "TwoSpectra",
    "secondary_spectrum",
    "m_from_two_spectra",
    "numerical_residue",
    "export_m_samples",
]


@dataclass(frozen=True)
class WeylSample:
    """One evaluation of the Weyl function with its ingredients."""

    lam: complex
    m: complex
    delta: complex
    theta0: complex       # theta(0, lambda) = psi(0, lambda)/Delta
    variant: str


def _reject_poles(flat, lams):
    """PoleError if a point of ``flat`` lies within 1e-10 (relative to the
    largest |lambda_n|) of one of the eigenvalues ``lams``."""
    gap = np.min(np.abs(flat[:, None] - lams), axis=1)
    near = flat[gap < 1e-10 * max(1.0, np.max(np.abs(lams)))]
    if near.size:
        raise PoleError(f"lambda={near[0]} is an eigenvalue of the problem")


def _reject_overflow(flat, m):
    """DomainError at the first point of ``flat`` where ``m`` is not finite:
    that lambda is not finite itself, or the solutions overflowed there, as
    they do below about lambda = -5e4 (exp(|Im rho| pi) > 1e308)."""
    finite = np.isfinite(m)
    if np.count_nonzero(finite) < finite.size:
        at = flat[~finite][0]
        if not np.isfinite(at):
            raise DomainError(f"lambda={at} is not finite")
        raise DomainError(f"m is not finite at lambda={at} (overflow)")


def weyl_m(problem, lam, sd: SpectralData | None = None):
    """m(lambda); raises PoleError at (or too near) an eigenvalue.

    ``lam`` may be a scalar or an array: one backward solve of psi serves
    every point, and the sample's fields are then arrays of lam's shape
    (Python complex numbers for a scalar, computed on them if not real).
    ``sd`` supplies known eigenvalues for the proximity check; without it
    only an exactly vanishing Delta is rejected.  DomainError where lambda
    or m is not finite.
    """
    if sd is not None and len(sd):
        _reject_poles(np.asarray(lam, dtype=complex).reshape(-1), sd.lambdas)
    # isinstance first: np.ndim costs about a microsecond on a Python number
    if (isinstance(lam, (complex, float, int)) or np.ndim(lam) == 0) and complex(lam).imag:
        lam = complex(lam)
        if not cmath.isfinite(lam):     # named as such, not as an overflow below
            raise DomainError(f"lambda={lam} is not finite")
        psi0 = _psi_at_zero(problem, lam)
        delta = _wronskian(initial_state(problem, "phi", lam)[0], psi0)
        if delta == 0.0:
            raise PoleError(f"Delta vanishes at lambda={lam}")
        m = _wronskian(initial_state(problem, "chi", lam)[0], psi0) / delta
        if not cmath.isfinite(m):
            raise DomainError(f"m is not finite at lambda={lam} (overflow)")
        return WeylSample(lam, m, delta, psi0[0] / delta, problem.variant)
    lam = np.asarray(lam, dtype=complex)
    flat = lam.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        psi0 = _psi_at_zero(problem, flat)
        delta = _wronskian(initial_state(problem, "phi", flat)[0], psi0)
        if np.count_nonzero(delta) < delta.size:
            raise PoleError(f"Delta vanishes at lambda={flat[delta == 0.0][0]}")
        m = _wronskian(initial_state(problem, "chi", flat)[0], psi0) / delta
    _reject_overflow(flat, m)
    fields = (flat, m, delta, psi0[0] / delta)
    if lam.ndim == 0:
        return WeylSample(*[f.item() for f in fields], variant=problem.variant)
    return WeylSample(*[f.reshape(lam.shape) for f in fields], variant=problem.variant)


def weyl_theta(problem, x, lam, sd: SpectralData | None = None):
    """Weyl solution theta = chi - m phi at x, with a consistency check.

    Returns (theta, theta'), computed from psi/Delta; the maximum relative
    discrepancy against chi - m phi over the sampled points is available
    as the third element.
    """
    ws = weyl_m(problem, lam, sd)
    sp = SpectralPoint.from_lambda(complex(lam))
    psi = fundamental_solution(problem, "psi", sp)
    phi = fundamental_solution(problem, "phi", sp)
    chi = fundamental_solution(problem, "chi", sp)
    x = np.asarray(x, dtype=float)
    py, pyp = psi.eval(x)
    theta = py / ws.delta
    theta_p = pyp / ws.delta
    fy, fyp = phi.eval(x)
    cy, cyp = chi.eval(x)
    alt = cy - ws.m * fy
    scale = np.maximum(np.abs(theta), 1e-30)
    disc = float(np.max(np.abs(theta - alt) / scale))
    return theta, theta_p, disc


def partial_fraction_m(sd: SpectralData, lam, n_terms=None):
    """Truncated partial-fraction series sum_n gamma_n/(lambda_n - lambda)."""
    if n_terms is None:
        n_terms = len(sd)
    if n_terms > len(sd):
        raise MismatchError(f"only {len(sd)} records available, "
                            f"{n_terms} requested")
    lam = np.asarray(lam, dtype=complex)
    g = sd.gammas[:n_terms]
    if np.any(np.isnan(g)):
        raise MismatchError("records lack gamma values; run spectral_data first")
    l = sd.lambdas[:n_terms]
    return np.sum(g[None, ...] / (l[None, ...] - lam[..., None]), axis=-1) \
        if lam.ndim else complex(np.sum(g / (l - complex(lam))))


# ----------------------------------------------------------------------
# two spectra
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TwoSpectra:
    """Primary spectrum plus the spectrum with the condition at 0 replaced
    by a Dirichlet condition, and the problem whose jump data (d_i, a_i,
    b_i) fix the leading-order terms.  Robin variant only."""

    primary: SpectralData
    secondary: SpectralData
    problem: ValidatedProblem

    def __post_init__(self):
        if self.problem.variant == "eigenparameter":
            raise VariantError("two-spectra recovery needs the Robin variant")
        lams = self.primary.lambdas
        mus = self.secondary.lambdas
        n = min(len(lams), len(mus))
        for i in range(n):
            lo = lams[i]
            hi = lams[i + 1] if i + 1 < len(lams) else math.inf
            if not (lo < mus[i] < hi):
                raise InterlacingError(
                    f"mu_{i}={mus[i]} does not lie in "
                    f"(lambda_{i}, lambda_{i + 1})=({lo}, {hi})")


def secondary_spectrum(problem, count) -> SpectralData:
    """Spectrum with y(0) = 0 in place of the original condition at 0."""
    return eigenvalues(problem, count, left="dirichlet")


def m_from_two_spectra(ts: TwoSpectra, lam, n_terms=None):
    """m(lambda) from the first ``n_terms`` eigenvalues of both spectra.

    m = m0 * prod (mu_n - lambda)/(mu0_n - lambda)
           * prod (lambda0_n - lambda)/(lambda_n - lambda),

    where m0 = -C(rho)/(rho S(rho)) is the leading-order m and lambda0_n,
    mu0_n = rho^2 at the zeros of S and C (``eigenvalue_guesses``).  As
    lambda0_0 = 0, the factor -lambda is cancelled against rho S(rho)
    analytically, so lambda = 0 needs no special case.  ``lam`` may be a
    scalar or an array (as in ``weyl_m``), at any point that is not a
    primary eigenvalue; PoleError there, and DomainError where the leading
    sums overflow.
    """
    avail = min(len(ts.primary), len(ts.secondary))
    n = avail if n_terms is None else n_terms
    if not 1 <= n <= avail:
        raise MismatchError(f"n_terms={n} outside 1..{avail}")
    lams = ts.primary.lambdas[:n]
    mus = ts.secondary.lambdas[:n]
    lam = np.asarray(lam, dtype=complex)
    flat = lam.reshape(-1)
    _reject_poles(flat, lams)
    z = flat[:, None]
    lam0 = np.square(eigenvalue_guesses(ts.problem, n, trig="sin"))
    mu0 = np.square(eigenvalue_guesses(ts.problem, n, trig="cos"))
    rho = np.sqrt(flat)
    # m0 * (lambda0_0 - lambda) = C(rho) / (S(rho)/rho)
    with np.errstate(over="ignore", invalid="ignore"):
        m = (_leading_sum(ts.problem, "cos")(rho)
             / _leading_sum(ts.problem, "sinc")(rho) / (lams[0] - flat)
             * np.prod((mus - z) / (mu0 - z), axis=1)
             * np.prod((lam0[1:] - z) / (lams[1:] - z), axis=1))
    _reject_overflow(flat, m)
    return m.item() if lam.ndim == 0 else m.reshape(lam.shape)


def numerical_residue(func, center, radius=1e-3, n=128):
    """Residue of func at center via a trapezoid contour integral.

    ``func`` must accept an array of points (as ``weyl_m`` does); it is
    called once, on the whole contour.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    z = center + radius * np.exp(1j * theta)
    return complex(np.mean(func(z) * (z - center)))


def _m_samples_text(samples):
    """The text that :func:`export_m_samples` writes."""
    lines = ["re_lambda,im_lambda,re_m,im_m"]
    for s in (samples,) if isinstance(samples, WeylSample) else samples:
        for lam, m in zip(np.ravel(s.lam), np.ravel(s.m)):
            lines.append(",".join([_fmt(lam.real), _fmt(lam.imag),
                                   _fmt(m.real), _fmt(m.imag)]))
    return "\n".join(lines) + "\n"


def export_m_samples(samples, path):
    """CSV export of one WeylSample or a sequence of them (array fields give
    one row per point): re_lambda,im_lambda,re_m,im_m."""
    _atomic_write(path, _m_samples_text(samples))
