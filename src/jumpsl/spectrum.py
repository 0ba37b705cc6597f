"""Characteristic function Delta, eigenvalues, and spectral data.

Delta(lambda) = W(phi, psi) is taken at pi, where phi, propagated forward
through the batch transfer kernels, meets psi's data from ``initial_state``,
so scans over many lambda are vectorized and, for piecewise-constant
potentials, exact.  Its lambda-derivative comes from the variational
system, never from finite differences.  A fit's perturbed problems walk
as one stack per cell layout, and Delta and gamma come off it at once.

Eigenvalues are located by bisecting the exact oscillation index over a
grid on the real axis, which also certifies them, and polished by a
safeguarded Newton iteration in lambda from the grid cells where Delta
changes sign.  The grid's floor lies below every eigenvalue; its top
doubles until the index counts the roots asked for, so a potential's mean
moves no root out of reach.  Predicted roots (a fit's residuals have
them) seed the bisection near themselves; the brackets, and so the
roots' bits, do not depend on the seeds.

Norming constants and coupling coefficients of a whole spectrum come from
phi's end state at pi: the squared norm of phi is the Lagrange bracket
w (u phi' - phi u') at pi of phi and u = dphi/dlambda, and beta_n =
psi/phi is read off at pi, where psi's data are exact.  One forward
propagation serves a whole spectrum, with no dense solution and no
quadrature: for :func:`eigenvalues`' own result, the polish's last one.

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
from dataclasses import astuple, dataclass

import numpy as np

from .asymptotics import _check_count
from .errors import (
    ConfigParseError,
    ContourTooCloseError,
    DomainError,
    MismatchError,
    MissedEigenvalueError,
    ToleranceError,
)
from .problem import _atomic_write
from .propagation import (
    CPM_DENSITY,
    SpectralPoint,
    _psi_at_zero,
    _stack,
    _turns,
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
    certification: str      # "bracketed" | "index-verified"


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
        return np.array([r.gamma for r in self.records], dtype=float)   # None reads nan

    @property
    def betas(self):
        return np.array([r.beta for r in self.records], dtype=float)


def _n_terms(n_terms, available):
    """``n_terms``, or all ``available`` records where None; MismatchError
    unless it is an integer (not a bool) from 1 to ``available``."""
    n = available if n_terms is None else n_terms
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 1 <= n <= available:
        raise MismatchError(f"n_terms={n!r} outside 1..{available}")
    return n


# ----------------------------------------------------------------------
# characteristic function
# ----------------------------------------------------------------------

def _wronskian(a, b):
    """W(a, b) = y_a y_b' - y_a' y_b of two Cauchy data pairs (broadcasts)."""
    return a[0] * b[1] - a[1] * b[0]


def _phi_start(problem, lam, left):
    """phi's Cauchy data at 0 and their lambda-derivatives: those of
    :func:`initial_state`, or (0, 1) with ``left="dirichlet"``."""
    if left == "spec":
        return initial_state(problem, "phi", lam)
    if left == "dirichlet":
        return (0.0, 1.0), (0.0, 0.0)
    raise ValueError(f"unknown left boundary override {left!r}")


def _walk_phi(problem, lam, left, cpm_density, derivative=False):
    """phi's end state at pi from :func:`_phi_start`'s data: (y, y'), and with
    ``derivative`` (u, u') too, u started from the data's lambda-derivative."""
    start, dstart = _phi_start(problem, lam, left)
    return propagate_endpoints_batch(problem, lam, start + dstart if derivative else start,
                                     cpm_density=cpm_density)


def _delta_at(problem, lam, end, derivative=False):
    """Delta, and with ``derivative`` Delta', from phi's end state at pi."""
    psi, dpsi = initial_state(problem, "psi", lam)
    delta = problem.w_end * _wronskian(end, psi)
    if not derivative:
        return delta
    return delta, problem.w_end * (_wronskian(end[2:], psi)
                                   + _wronskian(end, dpsi))


def delta_batch(problem, lam, derivative=False, left="spec",
                cpm_density=CPM_DENSITY):
    """Delta = w(pi) W(phi, psi) at pi over an array of lambda, and with
    ``derivative`` also Delta' = w(pi) (W(u, psi) + W(phi, dpsi/dlambda)),
    u being phi's variational companion.  phi and psi take the data of
    :func:`initial_state`; ``left="dirichlet"`` starts phi from (0, 1).
    Real lambda gives float64 arrays, the complex result's real parts."""
    lam = np.asarray(lam)
    return _delta_at(problem, lam, _walk_phi(problem, lam, left, cpm_density, derivative),
                     derivative)


def _stacked(problems, lam, left, cpm_density, norm=False):
    """Delta of ``problems[r]`` at the real ``lam[r]``, and with ``norm``
    also their gamma (from :func:`_norming_at`), as (rows, lambda) arrays.
    The problems share their cells and jump points, as a fit's do; those
    whose constant cells agree walk as one stack (:func:`_stack`).  Every
    row has the bits of :func:`delta_batch` and :func:`_norming_data` for
    its problem alone."""
    lam = np.asarray(lam, dtype=float)
    keys = [tuple(c.q_const is None for c in p.pieces) for p in problems]
    delta, gamma = np.empty_like(lam), np.empty_like(lam)
    for key in dict.fromkeys(keys):
        rows = [r for r, k in enumerate(keys) if k == key]
        stack, lr = _stack([problems[r] for r in rows]), lam[rows]
        end = _walk_phi(stack, lr, left, cpm_density, norm)
        delta[rows] = _delta_at(stack, lr, end)
        if norm:
            gamma[rows] = _norming_at(stack, lr, end)[0]
    return (delta, gamma) if norm else delta


def char_delta(problem, lam, left="spec"):
    """Delta(lambda) = W(phi, psi), evaluated from the forward solution."""
    return complex(delta_batch(problem, np.array([lam]), left=left)[0])


def char_delta_derivative(problem, lam):
    """dDelta/dlambda via the variational system."""
    _, dd = delta_batch(problem, np.array([lam]), derivative=True)
    return complex(dd[0])


def char_delta_forms(problem, lam):
    """Delta = W(phi, psi) three ways: at pi (as :func:`delta_batch`), at 0
    from a backward solve of psi, and at an interior cell midpoint from the
    dense solutions.  Their pairwise agreement is the cross-check mode of
    the Delta evaluation.
    """
    d1 = char_delta(problem, lam)
    lam1 = np.array([complex(lam)])
    d2 = _wronskian(initial_state(problem, "phi", lam1)[0],
                    _psi_at_zero(problem, lam1))[0]
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
    """Scan floor for negative eigenvalues (certified by the oscillation index).

    Attractive boundary data produce bound states near -h^2, so the
    magnitudes of the boundary constants enter the bound alongside the
    potential and the jump c-terms.
    """
    s = 1.0 + problem.potential.max_abs() + max(map(abs, astuple(problem.boundary)))
    if problem.jumps:
        s += sum(abs(j.c) for j in problem.jumps) / min(1.0, problem.min_node_gap())
    return -(s * s)


def _sweep(problem, lam, left, cpm_density):
    """N(lambda), the number of eigenvalues below each real lambda, and Delta
    there, with :func:`delta_batch`'s bits, from one walk that counts the zeros
    of phi exactly (DomainError where phi overflows).  N comes from the Pruefer
    angle theta = atan2(phi, phi') at pi (Pryce 1993): theta passes k pi only
    upwards, and jumps keep it in [k pi, (k + 1) pi).  theta(pi) - atan2(psi,
    psi')(pi) grows with lambda and tends into (-pi, 0) as lambda -> -inf,
    except that phi's eigenparameter data (lambda - h2, h3 - lambda h1) tend to
    (-1, h1) and start theta a pi lower (Binding et al. 1993): + 1."""
    start = _phi_start(problem, lam, left)[0]
    y, yp, zeros = propagate_endpoints_batch(problem, lam, start, cpm_density=cpm_density,
                                             count_zeros=True)
    end = np.arctan2(y, yp)
    theta = math.pi * (_turns(np.arctan2(*start), start[0]) + zeros) \
        + (end - math.pi * _turns(end, y))
    if (bad := lam[np.isnan(theta)]).size:
        raise DomainError(f"phi overflowed at lambda = {bad[0]:.10g}: its Pruefer angle is NaN")
    psi, _ = initial_state(problem, "psi", lam)
    shift = left == "spec" and problem.variant == "eigenparameter"
    index = np.ceil((theta - np.arctan2(*psi)) / math.pi).astype(int) + shift
    return index, _delta_at(problem, lam, (y, yp))


def _polish_roots(fdf, lo, hi, flo):
    """Vectorized bracket-safeguarded Newton iteration (the ``rtsafe`` rule).

    ``fdf(x)`` returns f, f' and any more rows over an array; f(lo) has the
    sign of ``flo``.  Each root starts at its bracket midpoint; a Newton step
    that is not finite, lands outside the sign bracket or fails to halve the
    step before last falls back to the midpoint.  A root stops at f = 0, or
    when its Newton step or bracket is within 4 eps max(1, |x|), and is
    returned as the last point evaluated, with f' and the rows there."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x, step = 0.5 * (lo + hi), np.array([hi - lo, hi - lo])
    kept, todo = None, np.arange(x.size)
    for _ in range(64):
        xt = x[todo]
        f, *rows = fdf(xt)
        kept = np.full((len(rows),) + x.shape, np.nan) if kept is None else kept
        below = np.sign(f) == np.sign(flo[todo])
        lt, ht = np.where(below, xt, lo[todo]), np.where(below, hi[todo], xt)
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = f / rows[0]
        tol = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(xt))
        done = (f == 0.0) | (np.abs(dx) <= tol) | (ht - lt <= tol)
        xn = xt - dx
        safe = np.isfinite(xn) & (lt <= xn) & (xn <= ht) \
            & (2.0 * np.abs(dx) <= np.abs(step[0, todo]))
        xn = np.where(safe, xn, 0.5 * (lt + ht))
        step[:, todo] = step[1, todo], xn - xt
        lo[todo], hi[todo], kept[:, todo] = lt, ht, rows
        x[todo] = np.where(done, xt, xn)
        todo = todo[~done]
        if todo.size == 0:
            return (x, *kept)
    raise ToleranceError(f"{todo.size} root(s) unconverged after 64 Newton steps")


def _locate(problem, count, left, cpm_density, predicted=None):
    """The lowest ``count`` zeros of Delta on the real axis, polished, with
    Delta' at them and, with ``left="spec"``, the end rows (y, y', u, u')
    of each root's last Newton walk (else None: they follow another phi).

    The oscillation index N is bisected for every root at once, one
    :func:`_sweep` per level, over a grid of steps of 0.05 in
    -sqrt(-lambda) from below :func:`lambda_floor` to zero and of 0.02 in
    sqrt(lambda) above (point k at k steps, so a taller grid keeps every
    point).  The first level takes both ends, the top at sqrt(lambda) =
    count + 2, and every 25th point or the points k - 2 .. k + 1 around
    each predicted root's cell; the top doubles while N reads below
    ``count`` there, up to sqrt(lambda) = 100 max(count, 10), and the next
    level takes every 25th point above the old top too.  Each level
    takes the neighbouring points across which N rises from below
    ``count``: more than 3 cells apart they get the grid point halfway, 2 or
    3 cells apart all the grid points between and one more on each side,
    and within a cell, where N rises by 2 or more, their lambda midpoint
    unless it rounds onto an end.  Brackets are cells where Delta is zero
    at the left end or changes sign (np.sign: |Delta| passes 1e154 at deep
    floors), and N must read n or n + 1 at the ends of root n's (a cell
    apart where a root sits on a grid point) and never fall, or
    MissedEigenvalueError names the interval.  The brackets, and so the
    roots' bits, do not depend on the predictions."""
    neg = -np.arange(-math.sqrt(-lambda_floor(problem)) - 0.05, 0.0, 0.05) ** 2
    top = 50 * (count + 2)
    grid = lambda top: np.append(neg, (np.arange(top + 1) * 0.02) ** 2)
    lam = grid(top)
    new = lam[np.r_[0, lam.size - 1, np.arange(0, lam.size, 25) if predicted is None else np.clip(
        np.searchsorted(lam, predicted)[:, None] + np.arange(-2, 2), 0, lam.size - 1).ravel()]]
    x, index, vals = np.empty(0), np.empty(0, int), np.empty(0)
    while (new := np.setdiff1d(new, x)).size:
        order = np.argsort(np.concatenate([x, new]))
        x, index, vals = (np.concatenate(v)[order] for v in zip(
            (x, index, vals), (new, *_sweep(problem, new, left, cpm_density))))
        seeded = lam.size
        if index[-1] < count:
            if top * 0.02 > 100 * max(count, 10):
                raise MissedEigenvalueError(
                    f"found only {index[-1]} of {count} requested eigenvalues")
            top *= 2
            lam = grid(top)
        cell = np.searchsorted(lam, x, side="right") - 1
        j = np.flatnonzero((np.diff(index) > 0) & (index[:-1] < count))
        lo, hi, gap, mid = cell[j], cell[j + 1], np.diff(cell)[j], 0.5 * (x[j] + x[j + 1])
        fill = (gap > 1) & (gap <= 3)
        near = lo[fill, None] + np.arange(-1, 5)
        split = (gap <= 1) & (np.diff(index)[j] > 1) & (x[j] < mid) & (mid < x[j + 1])
        # the top and every 25th point above the last top are new where it doubled
        new = np.concatenate([lam[seeded::25], lam[-1:], lam[(lo + hi)[gap > 3] // 2], mid[split],
                              lam[np.clip(near[near <= hi[fill, None] + 1], 0, lam.size - 1)]])
    # an exact zero of Delta on the grid is its own bracket, not a sign change;
    # a cell is two evaluated points with no grid point between them
    lo = np.flatnonzero((np.diff(cell) <= 1) & (
        (vals[:-1] == 0.0) | (np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)))[:count]
    n = np.arange(lo.size)
    index0, x0 = np.append(0, index), np.append(-np.inf, x)   # names roots below the floor too
    fall = np.flatnonzero(np.diff(index0) < 0)
    off = np.flatnonzero((index[lo] < n) | (index[lo + 1] > n + 1))
    if fall.size or off.size or lo.size < count:
        k = fall[0] if fall.size else np.searchsorted(
            index0, off[0] if off.size else lo.size, side="right") - 1
        raise MissedEigenvalueError(
            f"the oscillation index reads {index0[k]} at lambda = {x0[k]:.10g} and "
            f"{index0[k + 1]} at {x0[k + 1]:.10g}, out of step with Delta's sign changes")
    def newton(z):      # delta_batch's walk, handing its end state on
        end = _walk_phi(problem, z, left, cpm_density, derivative=True)
        return (*_delta_at(problem, z, end, derivative=True), *end)
    roots, droots, *ends = _polish_roots(
        newton, x[lo], x[np.where(vals[lo] == 0.0, lo, lo + 1)], vals[lo])
    # simplicity check: nonzero derivative at every root
    if np.any(droots == 0.0):
        raise ToleranceError("vanishing Delta derivative at a located root")
    return roots, droots, ends if left == "spec" else None


def eigenvalues(problem, count, verify=True, left="spec",
                cpm_density=CPM_DENSITY) -> SpectralData:
    """The lowest ``count`` eigenvalues, located by bisecting the
    oscillation index and Newton-polished (see :func:`_locate`).  The index
    certifies each root's bracket, so every record is "index-verified";
    ``verify`` is accepted and does nothing.  The result privately keeps the
    polish's end rows for :func:`spectral_data` (None with ``left="dirichlet"``)."""
    _check_count(count)
    roots, _, ends = _locate(problem, count, left, cpm_density)
    sd = SpectralData(_records(roots, ["index-verified"] * count), problem.fingerprint(),
                      problem.variant, cpm_density)
    object.__setattr__(sd, "_rows", ends)  # not a field: a rebuilt or replace()d one has none
    return sd


def _records(lams, certifications, gammas=None, betas=None):
    """EigenRecords n = 0, 1, ... at ``lams`` with rho = sqrt(lambda), one
    certification each and, if given, gamma_n and beta_n."""
    lams = np.asarray(lams, dtype=float)
    none = [None] * lams.size
    return tuple(map(EigenRecord, range(lams.size), lams.tolist(),
                     np.sqrt(lams.astype(complex)).tolist(), none if gammas is None else gammas,
                     none if betas is None else betas, certifications))


def count_zeros_contour(problem, rectangle):
    """Winding number of Delta around a rectangle in the lambda plane."""
    re_min, re_max, im_min, im_max = rectangle
    if not (all(map(math.isfinite, rectangle)) and re_min < re_max and im_min < im_max):
        raise DomainError(f"degenerate or non-finite contour rectangle {tuple(rectangle)}")
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
    vals = delta_batch(problem, pts)
    for _ in range(40):
        av = np.abs(vals)      # nearness is local: |Delta| spans many decades
        if np.any(av[1:-1] < 1e-10 * np.maximum(av[:-2], av[2:])):
            raise ContourTooCloseError("Delta nearly vanishes on the contour")
        dphase = np.angle(vals[1:] / vals[:-1])
        bad = np.flatnonzero(np.abs(dphase) > 0.5 * math.pi)
        if len(bad) == 0:
            winding = float(np.sum(dphase)) / (2.0 * math.pi)
            return int(round(winding))
        if len(pts) + len(bad) > CONTOUR_MAX_POINTS:
            raise ContourTooCloseError("contour refinement exhausted")
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        mvals = delta_batch(problem, mids)
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, mvals)
    raise ContourTooCloseError("contour refinement did not settle")


# ----------------------------------------------------------------------
# norming constants and coupling coefficients
# ----------------------------------------------------------------------

def _norming_data(problem, lams, cpm_density, end=None):
    """(gamma, beta) arrays at real eigenvalues from one batched forward
    propagation (see :func:`spectral_data`), or from its ``end`` rows."""
    lam = np.asarray(lams, dtype=float)
    return _norming_at(problem, lam, end or _walk_phi(problem, lam, "spec", cpm_density, True))


def _norming_at(problem, lam, end):
    """(gamma, beta) from phi and u = dphi/dlambda at pi."""
    y, yp, u, up = end
    bc = problem.boundary
    norm2 = problem.w_end * (u * yp - y * up)
    if problem.variant == "eigenparameter":
        norm2 += (problem.w_end / bc.r2) * (yp + bc.H1 * y) ** 2
    # psi = beta phi, and psi's data at pi are exact: compare the component
    # that is further from its zero (phi' carries an extra factor ~rho)
    (psi, psip), _ = initial_state(problem, "psi", lam)
    scale = np.sqrt(np.maximum(1.0, np.abs(lam)))
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.where(np.abs(psi) * scale >= np.abs(psip), psi / y, psip / yp)
    bad = np.flatnonzero(~(norm2 > 0.0) | ~np.isfinite(norm2 + beta))
    if bad.size:
        raise ToleranceError("nonpositive squared norm or non-finite beta "
                             f"at lambda={lam.flat[bad[0]]}")
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

    The norm needs no quadrature.  The variational step carries u =
    dphi/dlambda beside phi, so -u'' + q u = lambda u + phi, Lagrange's
    identity gives d/dx [w (u phi' - phi u')] = w phi^2 on every cell, and
    each jump keeps w (u phi' - phi u') since w+ = w- / (a b).  Hence
    w(pi) (u phi' - phi u')(pi) = int_0^pi w phi^2 dx + w(0) r1: phi's
    eigenparameter data give (u phi' - phi u')(0) = h3 - h1 h2 = r1, the
    left term (w(0)/r1) R1(phi)^2, and Robin data start u from zero.  It is
    exact to rounding on constant cells, the Magnus scheme's own
    fourth-order norm elsewhere.  This is not the residue route gamma_n =
    beta_n / Delta'(lambda_n), whose lambda-affine boundary data cancel at
    high n in the eigenparameter variant; here both boundary terms enter
    with a positive sign.

    Data from :func:`eigenvalues` walk no more: the end rows of the
    polish's last Newton walks, which they carry, give the same bits.  Any
    other input walks, a rebuilt or ``dataclasses.replace``d one too.

    Each record's rho is sqrt(lambda_n), also where ``eigs`` carries its
    own.  MismatchError if ``eigs`` names another problem by its
    fingerprint; an empty one, as :func:`load_csv` gives, names none.
    """
    fingerprint = problem.fingerprint()
    if isinstance(eigs, SpectralData):
        if eigs.fingerprint not in ("", fingerprint):
            raise MismatchError(f"eigenvalues of {eigs.fingerprint}, not of {fingerprint}")
        lams, density = eigs.lambdas, eigs.cpm_density
        certifications = [r.certification for r in eigs.records]
    else:
        lams, density = np.asarray(eigs, dtype=float), CPM_DENSITY
        certifications = ["bracketed"] * lams.size
    gammas, betas = _norming_data(problem, lams, density, getattr(eigs, "_rows", None))
    return SpectralData(records=_records(lams, certifications, gammas.tolist(), betas.tolist()),
                        fingerprint=fingerprint, variant=problem.variant, cpm_density=density)


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
    """Read a table written by :func:`export_csv`; ConfigParseError, naming
    the file, if it is empty, a row lacks or garbles a required field, or
    the indices n do not run 0, 1, 2, ..."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    variant = "robin"
    records = []
    try:
        header = lines[0].split(",")
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
        # a gap in n is a ValueError of the constructor
        return SpectralData(records=tuple(records), fingerprint="", variant=variant)
    except (IndexError, KeyError, ValueError) as exc:
        raise ConfigParseError(f"{path}: malformed spectrum CSV "
                               f"({type(exc).__name__}: {exc})") from exc
