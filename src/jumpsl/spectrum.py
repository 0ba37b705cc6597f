"""Characteristic function Delta, eigenvalues, and spectral data.

Delta(lambda) = -w(pi) L2(phi(lambda)) is evaluated from the forward
solution through the batch transfer kernels, so scans over many lambda are
vectorized and, for piecewise-constant potentials, exact.  Its
lambda-derivative comes from the variational system, never from finite
differences.

Eigenvalues are located by a sign-change scan on the real axis (the scan
floor extends below zero), polished by a safeguarded Newton iteration in
lambda, and optionally certified by an argument-principle contour count.

Norming constants and coupling coefficients of a whole spectrum come from
two batched propagations: the squared norm of phi is the Lagrange bracket
w (u phi' - phi u') at pi of phi and its variational companion u started
from zero, and beta_n = psi/phi is read off at pi, where psi's data are
exact.  One forward propagation serves a whole spectrum, with no dense
solution and no quadrature.

Sign convention: the derivative identity at an eigenvalue reads

    dDelta/dlambda(lambda_n) = + beta_n / gamma_n

with gamma_n the reciprocal squared norm of phi(., lambda_n) and beta_n
the coupling coefficient psi = beta_n phi.  The plus sign is forced by the
residue structure of the Weyl function (its residue at lambda_n is
-gamma_n) and is adjudicated numerically on the free problem in the test
suite; see README for the discussion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import eigenvalue_guesses
from .errors import (
    ContourTooCloseError,
    DomainError,
    MissedEigenvalueError,
    ToleranceError,
)
from .problem import _atomic_write
from .propagation import (
    CPM_DENSITY,
    SpectralPoint,
    _psi_at_zero,
    fundamental_solution,
    initial_state,
    modified_wronskian,
    propagate_endpoints_batch,
)

__all__ = [
    "EigenRecord",
    "SpectralData",
    "char_delta",
    "char_delta_derivative",
    "char_delta_forms",
    "delta_batch",
    "lambda_floor",
    "eigenvalues",
    "count_zeros_contour",
    "spectral_data",
    "export_csv",
    "export_json",
    "load_csv",
]

#: cap on the sample points of an adaptively refined contour
CONTOUR_MAX_POINTS = 40000


@dataclass(frozen=True)
class EigenRecord:
    """One indexed eigenvalue with its spectral coefficients."""

    n: int
    lam: float
    rho: complex            # real >= 0, or positive-imaginary for lam < 0
    gamma: float | None
    beta: float | None
    certification: str      # "bracketed" | "contour-verified"


@dataclass(frozen=True)
class SpectralData:
    """Ordered eigenvalue records plus a problem fingerprint and the
    propagation density the records were computed at."""

    records: tuple
    fingerprint: str
    variant: str
    cpm_density: int = CPM_DENSITY

    def __post_init__(self):
        for i, rec in enumerate(self.records):
            if rec.n != i:
                raise ValueError("record indices must be contiguous from 0")

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    @property
    def lambdas(self):
        return np.array([r.lam for r in self.records])

    @property
    def gammas(self):
        return np.array([r.gamma if r.gamma is not None else np.nan
                         for r in self.records])

    @property
    def betas(self):
        return np.array([r.beta if r.beta is not None else np.nan
                         for r in self.records])


# ----------------------------------------------------------------------
# characteristic function
# ----------------------------------------------------------------------

def _left_init_batch(problem, lam, left):
    """Cauchy data at 0 (and its lambda-derivative) for the scanned family."""
    if left == "spec":
        return initial_state(problem, "phi", lam)
    if left == "dirichlet":
        return (0.0, 1.0), (0.0, 0.0)
    raise ValueError(f"unknown left boundary override {left!r}")


def _l2_of(problem, lam, y, yp, u=None, up=None):
    """Signed L2 functional at pi such that Delta = sign * w(pi) * L2(phi).

    The sign is chosen so that Delta equals the modified Wronskian
    W(phi, psi) = L1(psi) in both variants: -1 for Robin, +1 for the
    eigenparameter variant (whose lambda-affine initial data flip the
    Wronskian's relation to L2).  This keeps the derivative identity
    dDelta/dlambda(lambda_n) = +beta_n/gamma_n and the residue structure
    of the Weyl function uniform across variants.
    """
    bc = problem.boundary
    if problem.variant == "robin":
        val = -(yp + bc.H * y)
        dval = None if u is None else -(up + bc.H * u)
    else:
        r2fun = yp + bc.H1 * y
        val = lam * r2fun - bc.H2 * yp - bc.H3 * y
        dval = None if u is None else (
            r2fun + lam * (up + bc.H1 * u) - bc.H2 * up - bc.H3 * u
        )
    return val, dval


def _l1_of(problem, lam, y, yp):
    """Delta = L1(psi) and the Weyl numerator psi(0), or R1(psi)/r1 in the
    eigenparameter variant, from the Cauchy data (y, y') of psi at 0."""
    bc = problem.boundary
    if problem.variant == "robin":
        return yp + bc.h * y, y
    r1psi = yp + bc.h1 * y
    return lam * r1psi - bc.h2 * yp - bc.h3 * y, r1psi / bc.r1


def delta_batch(problem, lam, derivative=False, left="spec",
                cpm_density=CPM_DENSITY):
    """Delta (and optionally dDelta/dlambda) over an array of lambda."""
    lam = np.asarray(lam, dtype=complex)
    (y0, yp0), (du0, dup0) = _left_init_batch(problem, lam, left)
    if derivative:
        y, yp, u, up = propagate_endpoints_batch(
            problem, lam, y0, yp0, derivative=True, du0=du0, dup0=dup0,
            cpm_density=cpm_density)
        l2, dl2 = _l2_of(problem, lam, y, yp, u, up)
        return problem.w_end * l2, problem.w_end * dl2
    y, yp = propagate_endpoints_batch(problem, lam, y0, yp0,
                                      cpm_density=cpm_density)
    l2, _ = _l2_of(problem, lam, y, yp)
    return problem.w_end * l2


def char_delta(problem, lam, left="spec"):
    """Delta(lambda) = W(phi, psi), evaluated from the forward solution."""
    return complex(delta_batch(problem, np.array([lam]), left=left)[0])


def char_delta_derivative(problem, lam):
    """dDelta/dlambda via the variational system."""
    _, dd = delta_batch(problem, np.array([lam]), derivative=True)
    return complex(dd[0])


def char_delta_forms(problem, lam):
    """The three Delta formulas: -w(pi) L2(phi), L1(psi), W(phi, psi).

    Their pairwise agreement is the cross-check mode of the Delta
    evaluation; W is sampled at an interior cell midpoint.
    """
    d1 = char_delta(problem, lam)
    y, yp = _psi_at_zero(problem, np.array([complex(lam)]))
    d2, _ = _l1_of(problem, lam, complex(y[0]), complex(yp[0]))
    sp = SpectralPoint.from_lambda(lam)
    phi = fundamental_solution(problem, "phi", sp)
    psi = fundamental_solution(problem, "psi", sp)
    piece = problem.pieces[len(problem.pieces) // 2]
    xmid = 0.5 * (piece.xl + piece.xr)
    d3 = complex(modified_wronskian(problem, phi, psi, xmid))
    return d1, complex(d2), d3


# ----------------------------------------------------------------------
# eigenvalue location
# ----------------------------------------------------------------------

def lambda_floor(problem):
    """Scan floor for negative eigenvalues (completeness is contour-checked).

    Attractive boundary data produce bound states near -h^2, so the
    magnitudes of the boundary constants enter the bound alongside the
    potential and the jump c-terms.
    """
    s = 1.0 + problem.max_abs_q()
    bc = problem.boundary
    if problem.variant == "robin":
        s += max(abs(bc.h), abs(bc.H))
    else:
        s += max(abs(v) for v in (bc.h1, bc.h2, bc.h3, bc.H1, bc.H2, bc.H3))
    if problem.jumps:
        s += sum(abs(j.c) for j in problem.jumps) / min(1.0, problem.min_node_gap())
    return -(s * s)


def _scan_lambda(s):
    """Scan parameter to lambda: s < 0 maps to -s^2, s >= 0 to s^2."""
    return s * np.abs(s)


def _root_scan(problem, count, left, cpm_density, step_neg=0.05, step_pos=0.02):
    guesses = eigenvalue_guesses(
        problem, count + 2,
        trig="cos" if left == "dirichlet" else "sin")
    rho_max = guesses[-1] + 0.75
    floor = lambda_floor(problem)
    s_neg = np.arange(-math.sqrt(-floor) - step_neg, 0.0, step_neg)
    s_pos = np.arange(0.0, rho_max + step_pos, step_pos)
    s_grid = np.concatenate([s_neg, s_pos])
    vals = delta_batch(problem, _scan_lambda(s_grid), left=left,
                       cpm_density=cpm_density).real
    roots, droots = _polish_roots(
        lambda lam: tuple(d.real for d in delta_batch(
            problem, lam, derivative=True, left=left, cpm_density=cpm_density)),
        *_sign_brackets(problem, s_grid, vals, left, cpm_density))
    order = np.argsort(roots)
    return roots[order], droots[order], floor


def _sign_brackets(problem, s_grid, vals, left, cpm_density, refine_depth=1):
    """Lambda brackets (lo, hi, Delta(lo)) of a scan; lo == hi at exact zeros."""
    lam = _scan_lambda(s_grid)
    change = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    zero = np.flatnonzero(vals == 0.0)
    parts = [(lam[change], lam[change + 1], vals[change]),
             (lam[zero], lam[zero], vals[zero])]
    # a local minimum of |Delta| without a sign change may hide a close pair
    if refine_depth > 0:
        av = np.abs(vals)
        a, m, b = av[:-2], av[1:-1], av[2:]
        hidden = 1 + np.flatnonzero(
            (m < a) & (m < b) & (vals[:-2] * vals[1:-1] > 0.0)
            & (vals[1:-1] * vals[2:] > 0.0) & (m < 1e-3 * np.maximum(a, b)))
        if hidden.size:
            fine = np.linspace(s_grid[hidden - 1], s_grid[hidden + 1], 65, axis=1)
            fvals = delta_batch(problem, _scan_lambda(fine.ravel()), left=left,
                                cpm_density=cpm_density).real.reshape(fine.shape)
            parts.extend(_sign_brackets(problem, f, fv, left, cpm_density,
                                        refine_depth - 1)
                         for f, fv in zip(fine, fvals))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _polish_roots(fdf, lo, hi, flo):
    """Vectorized bracket-safeguarded Newton iteration (the ``rtsafe`` rule).

    ``fdf(x)`` returns f and f' over an array; f(lo) has the sign of ``flo``.
    Each root starts at its bracket midpoint; a Newton step that is not
    finite, lands outside the sign bracket or fails to halve the step before
    last falls back to the midpoint.  A root stops at f = 0, or when its
    Newton step or bracket is within 4 eps max(1, |x|), and is returned as
    the last point evaluated, with f' there."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x, step = 0.5 * (lo + hi), np.array([hi - lo, hi - lo])
    dfx = np.full_like(x, np.nan)
    todo = np.arange(x.size)
    for _ in range(64):
        xt = x[todo]
        f, df = fdf(xt)
        below = np.sign(f) == np.sign(flo[todo])
        lt, ht = np.where(below, xt, lo[todo]), np.where(below, hi[todo], xt)
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = f / df
        tol = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(xt))
        done = (f == 0.0) | (np.abs(dx) <= tol) | (ht - lt <= tol)
        xn = xt - dx
        safe = np.isfinite(xn) & (lt <= xn) & (xn <= ht) \
            & (2.0 * np.abs(dx) <= np.abs(step[0, todo]))
        xn = np.where(safe, xn, 0.5 * (lt + ht))
        step[:, todo] = step[1, todo], xn - xt
        lo[todo], hi[todo], dfx[todo] = lt, ht, df
        x[todo] = np.where(done, xt, xn)
        todo = todo[~done]
        if todo.size == 0:
            return x, dfx
    raise ToleranceError(f"{todo.size} root(s) unconverged after 64 Newton steps")


def eigenvalues(problem, count, verify=True, left="spec",
                cpm_density=CPM_DENSITY) -> SpectralData:
    """The lowest ``count`` eigenvalues, bracketed and Newton-polished.

    With ``verify`` the count is certified against an argument-principle
    contour; a mismatch triggers one refined re-scan before raising
    MissedEigenvalueError.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    roots, droots, floor = _root_scan(problem, count, left, cpm_density)
    if len(roots) < count:
        roots, droots, floor = _root_scan(problem, count, left, cpm_density,
                                          step_neg=0.0125, step_pos=0.005)
    if len(roots) < count:
        raise MissedEigenvalueError(
            f"found only {len(roots)} of {count} requested eigenvalues")
    lams = roots[:count]

    # simplicity check: nonzero derivative at every root
    if np.any(droots[:count] == 0.0):
        raise ToleranceError("vanishing Delta derivative at a located root")

    certification = "bracketed"
    if verify:
        if len(roots) > count:
            upper = 0.5 * (roots[count - 1] + roots[count])
        else:
            upper = lams[-1] + max(1.0, 2.0 * math.sqrt(abs(lams[-1])) + 1.0)
        n_inside = count_zeros_contour(
            problem, (floor - 0.5, upper, -1.0, 1.0), left=left,
            cpm_density=cpm_density)
        if n_inside != count:
            raise MissedEigenvalueError(
                f"contour count {n_inside} disagrees with {count} "
                f"bracketed eigenvalues")
        certification = "contour-verified"

    records = tuple(
        EigenRecord(n=i, lam=float(lam),
                    rho=complex(np.sqrt(complex(lam))),
                    gamma=None, beta=None, certification=certification)
        for i, lam in enumerate(lams)
    )
    return SpectralData(records=records, fingerprint=problem.fingerprint(),
                        variant=problem.variant, cpm_density=cpm_density)


def count_zeros_contour(problem, rectangle, left="spec",
                        cpm_density=CPM_DENSITY):
    """Winding number of Delta around a rectangle in the lambda plane."""
    re_min, re_max, im_min, im_max = rectangle
    if re_min >= re_max or im_min >= im_max:
        raise DomainError("degenerate contour rectangle")
    corners = [complex(re_min, im_min), complex(re_max, im_min),
               complex(re_max, im_max), complex(re_min, im_max),
               complex(re_min, im_min)]

    def _u(x):
        # phase of Delta advances ~ pi * d(sqrt(lambda)) along the real
        # direction, so horizontal edges are sampled uniformly in
        # sign(x) sqrt(|x|) to keep phase steps bounded
        return math.copysign(math.sqrt(abs(x)), x)

    pts = []
    for c0, c1 in zip(corners, corners[1:]):
        if c0.imag == c1.imag:
            u0, u1 = _u(c0.real), _u(c1.real)
            n = max(48, int(math.ceil(8.0 * abs(u1 - u0))))
            us = np.linspace(u0, u1, n, endpoint=False)
            xs = np.sign(us) * us ** 2
            pts.extend(xs + 1j * c0.imag)
        else:
            n = max(48, int(math.ceil(8.0 * abs(c1.imag - c0.imag))))
            pts.extend(c0 + (c1 - c0) * np.linspace(0.0, 1.0, n,
                                                    endpoint=False))
    pts.append(corners[0])
    pts = np.array(pts)
    vals = delta_batch(problem, pts, left=left, cpm_density=cpm_density)
    scale = np.median(np.abs(vals))
    for _ in range(40):
        if np.any(np.abs(vals) < 1e-10 * max(scale, 1e-280)):
            raise ContourTooCloseError("Delta nearly vanishes on the contour")
        dphase = np.angle(vals[1:] / vals[:-1])
        bad = np.flatnonzero(np.abs(dphase) > 0.5 * math.pi)
        if len(bad) == 0:
            winding = float(np.sum(dphase)) / (2.0 * math.pi)
            return int(round(winding))
        if len(pts) + len(bad) > CONTOUR_MAX_POINTS:
            raise ContourTooCloseError("contour refinement exhausted")
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        mvals = delta_batch(problem, mids, left=left, cpm_density=cpm_density)
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, mvals)
    raise ContourTooCloseError("contour refinement did not settle")


# ----------------------------------------------------------------------
# norming constants and coupling coefficients
# ----------------------------------------------------------------------

def _norming_data(problem, lams, cpm_density):
    """(gamma, beta) arrays at real eigenvalues from one batched forward
    propagation (see :func:`spectral_data`)."""
    lam = np.asarray(lams, dtype=complex)
    bc = problem.boundary
    (y0, yp0), _ = initial_state(problem, "phi", lam)
    y, yp, u, up = propagate_endpoints_batch(
        problem, lam, y0, yp0, derivative=True, du0=0.0, dup0=0.0,
        cpm_density=cpm_density)
    norm2 = problem.w_end * np.real(u * yp - y * up)
    if problem.variant == "eigenparameter":
        norm2 += (problem.weights[0] / bc.r1) * np.real(yp0 + bc.h1 * y0) ** 2 \
            + (problem.w_end / bc.r2) * np.real(yp + bc.H1 * y) ** 2
    # psi = beta phi, and psi's data at pi are exact: compare the component
    # that is further from its zero (phi' carries an extra factor ~rho)
    (psi, psip), _ = initial_state(problem, "psi", lam)
    scale = np.sqrt(np.maximum(1.0, np.abs(lam)))
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.real(np.where(np.abs(psi) * scale >= np.abs(psip),
                                psi / y, psip / yp))
    bad = np.flatnonzero(~(norm2 > 0.0) | ~np.isfinite(norm2 + beta))
    if bad.size:
        raise ToleranceError("nonpositive squared norm or non-finite beta "
                             f"at lambda={lam[bad[0]].real}")
    return 1.0 / norm2, beta


def spectral_data(problem, eigs) -> SpectralData:
    """Fill gamma_n and beta_n for certified eigenvalues.

    gamma_n is the reciprocal squared weighted norm of phi(., lambda_n);
    in the eigenparameter variant the norm additionally carries the
    (w(0)/r1) R1(phi)^2 + (w(pi)/r2) R2(phi)^2 boundary terms.  beta_n is
    the coupling coefficient psi = beta_n phi, read off at pi as psi/phi
    (or psi'/phi' where psi(pi) is small against psi'(pi)/rho, as at
    lambda = H2 in the eigenparameter variant); psi's data at pi are the
    exact boundary data, so no backward solve is needed.  One batched
    forward propagation gives both for all records at once, at the
    ``cpm_density`` that ``eigs`` records (``CPM_DENSITY`` for a plain
    sequence), so the norming constants share the eigenvalues'
    discretization.

    The norm needs no quadrature.  The variational step carries u beside
    phi from u(0) = u'(0) = 0, so -u'' + q u = lambda u + phi, Lagrange's
    identity gives d/dx [w (u phi' - phi u')] = w phi^2 on every cell, and
    each jump keeps w (u phi' - phi u') since w+ = w- / (a b).  Hence
    int_0^pi w phi^2 dx = w(pi) (u phi' - phi u')(pi): exact to rounding on
    constant cells, the Magnus scheme's own fourth-order norm elsewhere.
    This is not the residue route gamma_n = beta_n / Delta'(lambda_n),
    whose lambda-affine boundary data cancel at high n in the
    eigenparameter variant; the bracket starts from zero, and the boundary
    terms enter as positive squares.
    """
    if isinstance(eigs, SpectralData):
        records, density = eigs.records, eigs.cpm_density
    else:
        density = CPM_DENSITY
        records = tuple(
            EigenRecord(n=i, lam=float(l), rho=complex(np.sqrt(complex(l))),
                        gamma=None, beta=None, certification="bracketed")
            for i, l in enumerate(eigs))
    gammas, betas = _norming_data(problem, [r.lam for r in records], density)
    out = tuple(replace(rec, gamma=float(g), beta=float(b))
                for rec, g, b in zip(records, gammas, betas))
    return SpectralData(records=out, fingerprint=problem.fingerprint(),
                        variant=problem.variant, cpm_density=density)


# ----------------------------------------------------------------------
# export / import
# ----------------------------------------------------------------------

def _fmt(v):
    return f"{v:.17g}"


def _fmt_rho(rho):
    rho = complex(rho)
    if rho.imag == 0.0:
        return _fmt(rho.real)
    return f"{rho.real:.17g}{rho.imag:+.17g}j"


def _spectral_text(sd: SpectralData, as_json=False):
    """The text that :func:`export_csv` or :func:`export_json` writes."""
    if as_json:
        data = {
            "fingerprint": sd.fingerprint,
            "variant": sd.variant,
            "records": [
                {"n": r.n, "lambda": r.lam, "rho": _fmt_rho(r.rho),
                 "gamma": r.gamma, "beta": r.beta,
                 "certification": r.certification}
                for r in sd.records
            ],
        }
        return json.dumps(data, indent=2) + "\n"
    eig = sd.variant == "eigenparameter"
    header = "n,lambda,rho,gamma,beta,certification" + (",variant" if eig else "")
    lines = [header]
    for rec in sd.records:
        fields = [str(rec.n), _fmt(rec.lam), _fmt_rho(rec.rho),
                  "" if rec.gamma is None else _fmt(rec.gamma),
                  "" if rec.beta is None else _fmt(rec.beta),
                  rec.certification]
        if eig:
            fields.append(sd.variant)
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def export_csv(sd: SpectralData, path):
    """CSV export: n,lambda,rho,gamma,beta,certification (+variant for
    eigenparameter problems)."""
    _atomic_write(path, _spectral_text(sd))


def export_json(sd: SpectralData, path):
    _atomic_write(path, _spectral_text(sd, as_json=True))


def load_csv(path) -> SpectralData:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    variant = "robin"
    records = []
    for ln in lines[1:]:
        fields = dict(zip(header, ln.split(",")))
        if "variant" in fields and fields["variant"]:
            variant = fields["variant"]
        records.append(EigenRecord(
            n=int(fields["n"]),
            lam=float(fields["lambda"]),
            rho=complex(fields["rho"]),
            gamma=float(fields["gamma"]) if fields.get("gamma") else None,
            beta=float(fields["beta"]) if fields.get("beta") else None,
            certification=fields.get("certification", "bracketed"),
        ))
    return SpectralData(records=tuple(records), fingerprint="", variant=variant)
