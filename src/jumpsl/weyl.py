"""Weyl m-function, its partial-fraction expansion, and recovery of m
from two spectra.

m(lambda) = -psi(0, lambda)/Delta(lambda) in the Robin variant and
-R1(psi)/(r1 Delta) in the eigenparameter variant, so a single backward
solve yields both numerator and denominator.  The residue of m at an
eigenvalue lambda_n equals -gamma_n, which fixes the partial-fraction
series sum gamma_n/(lambda_n - lambda).

The two-spectra route multiplies out the truncated ratio product
P_N(lambda) = prod (mu_n - lambda)/(lambda_n - lambda) and calibrates the
missing constant against the deep-negative-axis law m ~ 1/sqrt(-lambda).
Calibrating at a point far outside the truncation window is numerically
useless (the truncated product has not converged there), so the constant
is measured at two moderate depths tied to the truncation order and
log-linearly extrapolated to the evaluation point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CalibrationError,
    DomainError,
    InterlacingError,
    MismatchError,
    PoleError,
)
from .problem import ValidatedProblem, _atomic_write
from .propagation import SpectralPoint, _psi_at_zero, fundamental_solution
from .spectrum import SpectralData, _fmt, _l1_of, eigenvalues, spectral_data

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


def weyl_m(problem, lam, sd: SpectralData | None = None):
    """m(lambda); raises PoleError at (or too near) an eigenvalue.

    ``lam`` may be a scalar or an array: one backward solve of psi serves
    every point, and the sample's fields are then arrays of lam's shape
    (Python complex numbers for a scalar).  ``sd`` supplies known
    eigenvalues for the proximity check; without it only an exactly
    vanishing Delta is rejected.
    """
    lam = np.asarray(lam, dtype=complex)
    flat = lam.reshape(-1)
    if sd is not None and len(sd) and flat.size:
        lams = sd.lambdas
        gap = np.min(np.abs(flat[:, None] - lams), axis=1)
        near = flat[gap < 1e-10 * max(1.0, np.max(np.abs(lams)))]
        if near.size:
            raise PoleError(f"lambda={near[0]} is an eigenvalue of the problem")
    y, yp = _psi_at_zero(problem, flat)
    delta, numer = _l1_of(problem, flat, y, yp)
    if not delta.all():
        raise PoleError(f"Delta vanishes at lambda={flat[delta == 0.0][0]}")
    fields = (flat, -numer / delta, delta, y / delta)
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
    by a Dirichlet condition (k = infinity)."""

    primary: SpectralData
    secondary: SpectralData
    k: float = math.inf

    def __post_init__(self):
        if not math.isinf(self.k):
            raise DomainError("only the Dirichlet secondary condition "
                              "(k = inf) is supported")
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


def secondary_spectrum(problem, count, verify=True) -> SpectralData:
    """Spectrum with y(0) = 0 in place of the original condition at 0."""
    return eigenvalues(problem, count, verify=verify, left="dirichlet")


def _log_calibration(lams, mus, lam_cal):
    p = np.prod((mus - lam_cal) / (lams - lam_cal))
    target = 1.0 / math.sqrt(-lam_cal)
    c = target / p
    if c <= 0.0:
        raise CalibrationError(f"nonpositive calibration constant at "
                               f"lambda_cal={lam_cal}")
    return math.log(c)


def m_from_two_spectra(ts: TwoSpectra, lam, n_terms=None, lam_cal=None):
    """m(lambda) on the negative real axis from the truncated ratio product.

    The constant in front of P_N is calibrated at two moderate depths
    (lam_cal and 2*lam_cal) against 1/sqrt(-lambda) and its logarithm is
    extrapolated linearly in lambda to the evaluation point; this keeps the
    calibration inside the region where the truncated product has
    converged.
    """
    lam = float(lam)
    if lam >= 0.0:
        raise DomainError("two-spectra evaluation requires lambda < 0")
    if n_terms is None:
        n_terms = min(len(ts.primary), len(ts.secondary))
    if n_terms > min(len(ts.primary), len(ts.secondary)):
        raise MismatchError("n_terms exceeds the available spectra")
    lams = ts.primary.lambdas[:n_terms]
    mus = ts.secondary.lambdas[:n_terms]
    if np.min(np.abs(lam - lams)) == 0.0:
        raise PoleError(f"lambda={lam} is a primary eigenvalue")
    if lam_cal is None:
        lam_cal = -max(float(n_terms), 4.0 * abs(lam), 10.0)
    lc1, lc2 = float(lam_cal), 2.0 * float(lam_cal)
    g1 = _log_calibration(lams, mus, lc1)
    g2 = _log_calibration(lams, mus, lc2)
    log_c = g1 + (lam - lc1) * (g2 - g1) / (lc2 - lc1)
    p = np.prod((mus - lam) / (lams - lam))
    return math.exp(log_c) * float(p)


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
