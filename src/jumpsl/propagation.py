"""Propagation of -y'' + q y = lambda y across segments and jumps.

One kernel does all propagation: the fourth-order Magnus step on two
Gauss-Legendre points (Iserles & Norsett 1999), the constant-perturbation
style step of MATSLISE.  A step of signed width h from x0 samples q at
x0 + (1/2 -+ sqrt(3)/6) h and replaces the generator of (y, y') by

    Omega = [[a, h], [h (qbar - lambda), -a]],
    qbar = (q1 + q2) / 2,   a = sqrt(3) h^2 (q1 - q2) / 12.

Omega is traceless with Omega^2 = -w I, w = (lambda - qbar) h^2 - a^2, so
exp(Omega) = C I + S Omega with C = cos(sqrt w) and S = sin(sqrt w)/sqrt w.
The step is entire in lambda (complex lambda needs no special case) and its
error does not grow with |rho|.  Where q is constant on a cell, a = 0 and
Omega is the exact generator: the cell is one step, exact to rounding, with
q taken from ``Piece.q_const``.  Other cells take ``CPM_DENSITY`` (or
``cpm_density``) equal steps per unit length, at least 32, and converge as
h^4.

Every walk across [0, pi] goes through :func:`propagate_endpoints_batch`:
scans, index sweeps, stacked Jacobian walks and dense solutions.  A walk
holds one array of rows over lambda, (y, y') or (y, y', u, u') with the
variational pair.  Each cell builds its step rows for a block of steps times
all lambdas (about ``_BLOCK_ELEMS`` entries) in one numpy array and takes a
step as one gather, one multiply and one add into one product array per walk
(an unbuffered ``take``, see :func:`_cross_cell`), the products and sums of
a single step; an index sweep counts the zeros of y on each block's trail of
states as the walk leaves it.  A walk follows its direction's route of cells
and jumps, laid out once per problem (:func:`_layout`) with the widths and q
values from which its constant cells take their exact steps, one call per
block of cells times lambdas, and a memo of each stepped cell's grid and q
samples.  A stack on equal lambda rows builds the step rows of a cell where
its problems share q for one row.  One non-real lambda walks (y, y') on
Python numbers (:func:`_walk_one`): numpy's fixed cost per call outweighs
one element's arithmetic.  Dense solutions keep every node and reach other
points by one partial step from the nearest node.  Real lambda runs in
float64; a forward walk gives the complex evaluation's real parts bit for
bit, a backward one through jumps not always, as the inverse jump map
divides (numpy divides by a real-valued complex c as a multiplication by
1/c).  Problems with one cell layout walk as one stack (:func:`_stack`).

The lambda-derivative of a solution is propagated through the analytic
derivative of the step (no finite differences).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace
from itertools import repeat
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MismatchError
from .problem import PI, Piece

__all__ = [
    "SpectralPoint",
    "StateVector",
    "PiecewiseSolution",
    "apply_jump",
    "propagate_interval",
    "fundamental_solution",
    "initial_state",
    "modified_wronskian",
    "propagate_endpoints_batch",
]

#: Gauss-Magnus steps per unit length on cells where q is not constant
CPM_DENSITY = 160

_GAUSS = math.sqrt(3.0) / 6.0     # Gauss nodes sit at the step midpoint -+ this
_COMMUTATOR = math.sqrt(3.0) / 12.0
#: bound on (steps x lambda) entries per block of precomputed step matrices
_BLOCK_ELEMS = 4096
#: for 2 or 4 state rows, the state row that each step row multiplies (see _coefs)
_GATHER = {2: np.array([0, 0, 1, 1]), 4: np.array([0, 0, 2, 2, 1, 1, 3, 3, 0, 0, 1, 1])}


@dataclass(frozen=True)
class SpectralPoint:
    """lambda together with its principal square root rho."""

    lam: complex
    rho: complex

    @classmethod
    def from_lambda(cls, lam):
        lam = complex(lam)
        # principal branch: Re rho >= 0, cut on (-inf, 0)
        return cls(lam=lam, rho=complex(np.sqrt(lam)))

    @classmethod
    def from_rho(cls, rho):
        rho = complex(rho)
        return cls(lam=rho * rho, rho=rho)


class StateVector(NamedTuple):
    """Cauchy data (y, y') at position x."""

    y: complex
    yp: complex
    x: float


# ----------------------------------------------------------------------
# the Gauss-Magnus kernel
# ----------------------------------------------------------------------

def _cs(w):
    """C(w) = cos(sqrt w) and S(w) = sin(sqrt w)/sqrt w, entire in w.  Real w
    gives the complex formula's bits: numpy divides a by a real-valued complex
    c as a * (1/c), and entries with w < 0 take the complex formula."""
    real = w.dtype.kind != "c"
    z = np.sqrt(np.maximum(w, 0.0) if real else w)
    with np.errstate(divide="ignore", invalid="ignore"):
        S = np.sin(z) * (1.0 / z) if real else np.sin(z) / z
    if np.count_nonzero(z) < z.size:
        S[z == 0.0] = 1.0
    C = np.cos(z)
    if real and np.count_nonzero(neg := w < 0.0):
        C[neg], S[neg] = (v.real for v in _cs(w[neg].astype(complex)))
    return C, S


def _cs_d(w):
    """C, S and D = (C - S)/(2 w) = dS/dw, by its series where |w| < 1e-3."""
    C, S = _cs(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        D = (C - S) / (2.0 * w) if np.iscomplexobj(w) else (C - S) * (0.5 / w)
    if np.count_nonzero(small := np.abs(w) < 1e-3):
        v = w[small]
        D[small] = -1.0 / 6.0 + v * (1.0 / 60.0 + v * (-1.0 / 1680.0 + v * (1.0 / 90720.0)))
    return C, S, D


def _magnus_q(piece, x0, h):
    """(qbar, a) of the Gauss-Magnus steps of width h from x0 (broadcast)."""
    q1, q2 = piece.qfun(np.stack(np.broadcast_arrays(
        x0 + (0.5 - _GAUSS) * h, x0 + (0.5 + _GAUSS) * h)))
    return 0.5 * (q1 + q2), _COMMUTATOR * h * h * (q1 - q2)


def _coefs(h, lam, qb, a, var=False):
    """w and the Gauss-Magnus step rows in the order the packed state meets
    them (see :func:`_cross_cell`), written into one (steps, rows, ...) array
    over the first axis of the inputs: t11, t21, hS, t22 or, with ``var``,
    t11, t21, t11, t21, hS, t22, hS, t22 and dT/dlambda's d11, d21, d12, d22."""
    ql = qb - lam
    w = ql * (-h * h) - a * a
    C, S, D = _cs_d(w) if var else (*_cs(w), None)
    T = np.empty((len(w), 12 if var else 4) + w.shape[1:], w.dtype)
    j = 4 if var else 2             # the rows that multiply y'
    # no out= reads T: numpy rounds complex products apart where out overlaps an input
    hS, aS = h * S, a * S
    T[:, j] = hS
    np.add(C, aS, out=T[:, 0])
    np.multiply(ql, hS, out=T[:, 1])
    np.subtract(C, aS, out=T[:, j + 1])
    if var:
        # dT/dlambda, from dC/dw = -S/2, dS/dw = D and dw/dlambda = h^2
        h2 = h * h
        aD, halfS = a * D, 0.5 * S
        T[:, 2:4], T[:, 6:8] = T[:, :2], T[:, 4:6]
        np.multiply(h2, aD - halfS, out=T[:, 8])
        np.subtract((h2 * h) * (ql * D), hS, out=T[:, 9])
        np.multiply(h2 * h, D, out=T[:, 10])
        np.multiply(-h2, aD + halfS, out=T[:, 11])
    return w, T


def _turns(angle, y):
    """floor(angle / pi) of an atan2 angle in [-pi, pi] whose sine has the
    sign of y, taken from that sign: atan2 rounds pi - delta up to pi."""
    return np.where(y > 0.0, 0.0, np.where(y < 0.0, -1.0, np.floor(angle / math.pi)))


def _zeros(h, w, a, trail):
    """Zeros of y on the steps of one block with node states ``trail``."""
    y, yp = trail[:, 0], trail[:, 1]
    s = np.sqrt(np.maximum(w, 0.0))
    count = (y[:-1] != 0.0) & (np.sign(y[:-1]) != np.sign(y[1:]))
    if (wide := ~(s < math.pi)).any():
        start, end = (np.arctan2(s * y[k], a * y[k] + h * yp[k])
                      for k in (slice(None, -1), slice(1, None)))
        # lift the end angle by the whole turns that bring it nearest
        # start + s, as an integer: adding 2 pi k first can round an end
        # angle just under a multiple of pi up onto it
        lift = 2.0 * np.round((start + s - end) / (2.0 * math.pi))
        count = np.where(wide, _turns(end, y[1:]) + lift - _turns(start, y[:-1]), count)
    return count.sum(axis=0)


def _cross_cell(h, blocks, S, P, nodes=None, zeros=None):
    """Carry the packed rows S, (y, y') or (y, y', u, u') over lambda,
    through the steps of signed width h of one cell, given as blocks (w,
    step rows, a), keeping a block's states in one (steps + 1, rows, ...)
    trail to count zeros or, appended to ``nodes``, for dense output.
    Returns the end rows and ``zeros`` plus the zeros of y at each lambda.

    A step gathers the rows of S that the step rows meet into the walk's
    product array P, multiplies them in place, step row first as in t11 * y
    (numpy's complex products are not symmetric in their bits), adds the
    halves, then d11 y and d21 y, then d12 y' and d22 y'.  The gather takes
    ``mode="clip"``: its indices are always in range, and numpy buffers
    ``take(out=)`` under the default ``mode="raise"``.  The loop binds take,
    multiply and add once and steps into the block's trail, or into S.

    A step turns (s y, a y + h y') rigidly through s = sqrt(w) (or w <= 0,
    s = 0: one zero at most), so y has a zero on it where it changes sign
    if s < pi, else where the angle passes a multiple of pi.  Each block of
    steps is counted as the walk leaves it, keeping one block's states."""
    n, gather = len(S), _GATHER[len(S)]
    P0, P1, D0, D1 = P[:n], P[n:2 * n], P[8:10], P[10:]
    take, multiply, add, var = np.ndarray.take, np.multiply, np.add, n == 4
    for w, T, a in blocks:
        rows, urows = repeat(S), repeat(S[2:])      # each step's state and its (u, u')
        if nodes is not None or zeros is not None:  # a block's states to count, all to keep
            trail = np.empty((len(T) + 1,) + S.shape, S.dtype)
            trail[0] = S
            rows, urows = trail[1:], trail[1:, 2:] if var else urows
        for Tk, Sk, U in zip(T, rows, urows):
            take(S, gather, 0, P, "clip")
            multiply(Tk, P, P)
            S = add(P0, P1, Sk)
            if var:
                add(U, D0, U)
                add(U, D1, U)
        if zeros is not None:
            zeros = zeros + _zeros(h, w, a, trail)
        if nodes is not None:
            nodes.append(trail[1:] if nodes else trail)
        del w, T, Tk            # before the next block is built
    return S, zeros


def _same_rows(v):
    """Whether the rows of v (along its first axis) agree bit for bit."""
    v = v.view(f"V{v.itemsize}")
    return bool((v[1:] == v[:1]).all())


def _steps(piece, x0, x1, memo, lam, density, var):
    """Step width, nodes and blocks of steps (see :func:`_cross_cell`) from
    x0 to x1 on a cell where q is not constant: ``density`` steps per unit
    length, at least 32, built about ``_BLOCK_ELEMS`` (steps x lambda) at a
    time.  ``memo`` (see :func:`_layout`) keeps the width, nodes and q columns
    per density, a stack's q columns as one if all agree; on equal lambda
    rows that cell's step rows are then built for one row, and broadcast."""
    if density not in memo:
        n = max(32, int(math.ceil(abs(x1 - x0) * density)))
        h = (x1 - x0) / n
        xs = x0 + h * np.arange(n + 1)
        qb, a = _magnus_q(piece, xs[:-1], h)        # (steps,) or (steps, problems)
        if qb.ndim == 2 and _same_rows(qb.T) and _same_rows(a.T):
            qb, a = qb[:, :1], a[:, :1]
        memo[density] = h, xs, qb, a
    h, xs, qb, a = memo[density]
    lam = lam[:1] if qb.shape[1:] == (1,) and _same_rows(lam) else lam
    qb, a = (v.reshape(v.shape + (1,) * (lam.ndim + 1 - v.ndim)) for v in (qb, a))
    block = max(1, _BLOCK_ELEMS // max(1, lam.size))
    return h, xs, ((*_coefs(h, lam, qb[k:k + block], a[k:k + block], var), a[k:k + block])
                   for k in range(0, len(xs) - 1, block))


def _layout(pieces, jumps):
    """The lambda-independent data of a walk, laid out once per problem: for
    the forward and the backward walk, its route of (cell index, piece,
    start, end, jump crossed after the cell, :func:`_steps`' memo) in walk
    order, and the width and q columns of its constant cells (widths negated
    backward).  ``jumps[i]`` sits at the right end of cell i; ``jumps[-1]``,
    at pi, is None, so it is the jump a backward walk crosses after cell 0."""
    cells, const = list(enumerate(pieces)), [p for p in pieces if p.q_const is not None]
    h, q = np.array([p.length for p in const]), np.array([p.q_const for p in const])
    return (([(i, p, p.xl, p.xr, jumps[i], {}) for i, p in cells], (h, q)),
            ([(i, p, p.xr, p.xl, jumps[i - 1], {}) for i, p in cells[::-1]],
             (-h[::-1], q[::-1])))


def _exact_steps(cells, lam, var):
    """Each constant cell's one exact step, as a block for :func:`_cross_cell`,
    in walk order.  A group of cells of at most ``_BLOCK_ELEMS`` (cells x
    lambda) entries takes its steps from one :func:`_coefs` call on the
    columns of ``cells`` (see :func:`_layout`), made when the walk
    reaches it and dropped before the next.  A cell alone in its group
    passes scalars: on a one-row column the float-to-complex casts made a
    call on 3,000 lambda with the variational pair about 1.4x as slow."""
    h, q = cells
    size = max(1, _BLOCK_ELEMS // max(1, lam.size))
    for k in range(0, len(h), size):
        hk, qk = h[k:k + size], q[k:k + size]
        if len(hk) == 1:
            w, T = _coefs(hk[0], lam[None], qk[0], 0.0, var)
        else:
            w, T = _coefs(hk.reshape((-1,) + (1,) * lam.ndim), lam,
                          qk.reshape(qk.shape + (1,) * (lam.ndim + 1 - qk.ndim)), 0.0, var)
        for j in range(len(hk)):
            yield w[j:j + 1], (T[j],), 0.0
        del w, T


# ----------------------------------------------------------------------
# jumps
# ----------------------------------------------------------------------

def apply_jump(jump, state, inverse=False):
    """Map Cauchy data across a transmission condition.

    Forward: (y, y') at d- to (a y, b y' + c y) at d+.  Inverse mode solves
    the same two linear equations for the left data (a != 0 is guaranteed
    by validation).  A tuple (y, y', u, u') maps its derivative pair alike.
    """
    values = state[:2] if isinstance(state, StateVector) else state
    S = np.array(np.broadcast_arrays(*values), np.result_type(1.0, *values))
    S = tuple(_jump_state(jump, S, inverse))
    return StateVector(*S, state.x) if isinstance(state, StateVector) else S


def _jump_state(jump, S, inverse=False):
    """The packed rows S, (y, y') or (y, y', u, u'), jumped as :func:`apply_jump` does."""
    y, yp, out = S[0::2], S[1::2], np.empty_like(S)
    if inverse:
        y = np.divide(y, jump.a, out=out[0::2])
        np.divide(yp - jump.c * y, jump.b, out=out[1::2])
    else:
        np.multiply(jump.a, y, out=out[0::2])
        np.add(jump.b * yp, jump.c * y, out=out[1::2])
    return out


# ----------------------------------------------------------------------
# single-interval propagation (public contract)
# ----------------------------------------------------------------------

def propagate_interval(q, sp, state, x_from, x_to):
    """Propagate Cauchy data across a jump-free interval.

    ``q`` may be a float (constant potential), a callable q(x), or a
    :class:`Piece`; with a Piece the interval is checked against the cell
    bounds and a DomainError is raised if it straddles an interior node.
    """
    lo, hi = min(x_from, x_to), max(x_from, x_to)
    if isinstance(q, Piece):
        if not (q.xl <= lo and hi <= q.xr):
            raise DomainError(
                f"[{x_from}, {x_to}] is not inside the cell [{q.xl}, {q.xr}]"
            )
        piece = replace(q, xl=lo, xr=hi)
    elif callable(q):
        piece = Piece(lo, hi, 0, None, q)
    else:
        piece = Piece(lo, hi, 0, float(q), None)

    y, yp = complex(state.y), complex(state.yp)
    if x_to == x_from:
        return StateVector(y, yp, x_to)
    cell = SimpleNamespace(layout=_layout([piece], [None]))
    y, yp = propagate_endpoints_batch(cell, np.asarray(sp.lam, dtype=complex), (y, yp),
                                      backward=x_to < x_from)
    return StateVector(complex(y), complex(yp), x_to)


# ----------------------------------------------------------------------
# piecewise solutions with dense output
# ----------------------------------------------------------------------

class _PieceSol:
    """Dense-output record for one integration cell: states at step nodes."""

    __slots__ = ("piece", "xs", "h", "ys", "yps")

    def __init__(self, piece, xs, h, nodes):
        self.piece = piece
        self.xs = xs                # step nodes, in propagation order
        self.h = h                  # signed step width
        # nodes: the (steps + 1, rows, lambda) states; y and y' flattened
        self.ys, self.yps = nodes[:, 0].reshape(-1), nodes[:, 1].reshape(-1)

    def eval(self, x, lam):
        """(y, y') at x by one partial step from the nearest node; on a
        constant cell the step from its first node is already exact."""
        x = np.asarray(x, dtype=float)
        if self.piece.q_const is not None:
            idx, h, qb, a = 0, x - self.xs[0], self.piece.q_const, 0.0
        else:
            # x lies in the cell, so (x - xs[0]) / h is in [0, n]
            idx = ((x - self.xs[0]) / self.h + 0.5).astype(int)
            h = x - self.xs[idx]
            qb, a = _magnus_q(self.piece, self.xs[idx], h)
        T = _coefs(h, lam, qb, a)[1]
        y, yp = self.ys[idx], self.yps[idx]
        return T[:, 0] * y + T[:, 2] * yp, T[:, 1] * y + T[:, 3] * yp


class PiecewiseSolution:
    """A solution branch (phi, psi, chi, ...) evaluable anywhere on [0, pi].

    Satisfies its defining initial conditions exactly as stored and the
    transmission conditions at every jump point by construction; one-sided
    limits at interior nodes are selected with ``side``.
    """

    def __init__(self, problem, sp, piece_sols, state0, state_pi):
        self.sp = sp
        self._pieces = piece_sols
        self._edges = np.array([p.xl for p in problem.pieces] + [problem.pieces[-1].xr])
        self.state0 = state0          # (y, y') at 0
        self.state_pi = state_pi      # (y, y') at pi

    def eval(self, x, side="+"):
        """Return (y, y') at x; vectorized, with one-sided limits at nodes."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if np.any(x < 0.0) or np.any(x > PI):
            raise DomainError("evaluation point outside [0, pi]")
        idx = np.searchsorted(self._edges, x, side="left" if side == "-" else "right") - 1
        idx = np.clip(idx, 0, len(self._pieces) - 1)
        y = np.empty(x.shape, dtype=complex)
        yp = np.empty(x.shape, dtype=complex)
        for i in np.flatnonzero(np.bincount(idx)):
            sel = idx == i
            y[sel], yp[sel] = self._pieces[i].eval(x[sel], self.sp.lam)
        if scalar:
            return complex(y[0]), complex(yp[0])
        return y, yp


def initial_state(problem, kind, lam):
    """Defining Cauchy data of phi, chi (at 0) or psi (at pi) per variant,
    with their lambda-derivatives; ``lam`` may be an array.  Delta, Delta'
    and m are Wronskians against these data, which no other code restates."""
    bc = problem.boundary
    if problem.variant == "robin":
        if kind == "phi":
            return (1.0, -bc.h), (0.0, 0.0)
        if kind == "chi":
            return (0.0, 1.0), (0.0, 0.0)
        if kind == "psi":
            return (1.0, -bc.H), (0.0, 0.0)
    else:
        if kind == "phi":
            return (lam - bc.h2, bc.h3 - lam * bc.h1), (1.0, -bc.h1)
        if kind == "chi":
            return (-1.0 / bc.r1, bc.h1 / bc.r1), (0.0, 0.0)
        if kind == "psi":
            return (bc.H2 - lam, lam * bc.H1 - bc.H3), (-1.0, bc.H1)
    raise ValueError(f"unknown solution kind {kind!r}")


def _psi_at_zero(problem, lam):
    """Backward solve: psi Cauchy data (y, y') at 0, for an array of complex
    lambda."""
    return propagate_endpoints_batch(problem, lam, initial_state(problem, "psi", lam)[0],
                                     backward=True)


def fundamental_solution(problem, kind, sp):
    """Build phi, psi or chi at the given spectral point with dense output.

    phi and chi propagate forward from 0 applying jumps left to right; psi
    propagates backward from pi solving the jump equations for the left
    data.  Their Cauchy data are those of :func:`initial_state`.
    """
    start = tuple(map(complex, initial_state(problem, kind, sp.lam)[0]))
    piece_sols = [None] * len(problem.pieces)
    backward = kind == "psi"
    # one-element arrays take the batch path's arithmetic, bit for bit
    end = propagate_endpoints_batch(problem, np.array([sp.lam]), start,
                                    backward=backward, cells=piece_sols)
    end = (complex(end[0][0]), complex(end[1][0]))
    state0, state_pi = (end, start) if backward else (start, end)
    return PiecewiseSolution(problem, sp, piece_sols, state0, state_pi)


def modified_wronskian(problem, u, v, x, side="+"):
    """w(x) (u v' - u' v); constant in x for two solutions at the same lambda."""
    if abs(u.sp.lam - v.sp.lam) > 1e-14 * max(1.0, abs(u.sp.lam)):
        raise MismatchError(
            f"Wronskian of solutions at different lambda: {u.sp.lam} vs {v.sp.lam}"
        )
    uy, uyp = u.eval(x, side)
    vy, vyp = v.eval(x, side)
    w = problem.weight_at(float(np.atleast_1d(x)[0]), side) if np.ndim(x) == 0 \
        else np.array([problem.weight_at(t, side) for t in np.atleast_1d(x)])
    return w * (uy * vyp - uyp * vy)


# ----------------------------------------------------------------------
# propagation over the whole interval
# ----------------------------------------------------------------------

def _stack(problems):
    """Problems with one cell layout (the same cells, constant cells and
    jump points, as a fit's have: d and w are known data) as one problem
    whose constant q, jump, boundary and weight numbers are (rows, 1)
    columns and whose stepped q returns the rows on a last axis.  Against
    (rows, lambda) arrays each row goes through its own problem's
    elementwise operations, with the bits of that problem alone."""
    def columns(objs, names):
        return replace(objs[0], **{k: np.array([getattr(o, k) for o in objs])[:, None]
                                   for k in names})

    def piece(cells):
        if cells[0].q_const is not None:
            return columns(cells, ["q_const"])
        return replace(cells[0], qfun=lambda x: np.stack([c.qfun(x) for c in cells], axis=-1))

    weights = tuple(np.array(w)[:, None] for w in zip(*(p.weights for p in problems)))
    return SimpleNamespace(
        layout=_layout([piece(c) for c in zip(*(p.pieces for p in problems))],
                       [None if j[0] is None else columns(j, "abc")
                        for j in zip(*(p.jump_after_piece for p in problems))]),
        variant=problems[0].variant, weights=weights, w_end=weights[-1],
        boundary=columns([p.boundary for p in problems],
                         [f.name for f in fields(problems[0].boundary)]))


def _walk_one(problem, lam, y, yp, backward, density):
    """(y, y') of one non-real lambda (a one-element array) walked on Python
    numbers in :func:`_cross_cell`'s and :func:`_jump_state`'s order: a
    stepped cell's rows from :func:`_coefs`, a constant cell's exact step
    from cmath (:func:`_coefs`'s expressions with a = 0, so t11 = t22 = C),
    as NaN where cmath overflows (numpy gives inf or nan there)."""
    lam1 = lam.item()
    for _, piece, x0, x1, jump, memo in problem.layout[backward][0]:
        if piece.q_const is None:
            rows = [t for _, T, _ in _steps(piece, x0, x1, memo, lam, density, False)[2]
                    for t in T[..., 0].tolist()]
        else:
            h, ql = x1 - x0, piece.q_const - lam1
            try:
                z = cmath.sqrt(ql * (-h * h))
                hS, C = h * (cmath.sin(z) / z if z else 1.0), cmath.cos(z)
                rows = [(C, ql * hS, hS, C)]
            except (OverflowError, ValueError):
                rows = [(complex(math.nan, math.nan),) * 4]
        for t11, t21, hS, t22 in rows:
            y, yp = t11 * y + hS * yp, t21 * y + t22 * yp
        if jump is not None and backward:
            y = y / jump.a
            yp = (yp - jump.c * y) / jump.b
        elif jump is not None:
            y, yp = jump.a * y, jump.b * yp + jump.c * y
    return y, yp


def propagate_endpoints_batch(problem, lam, start, backward=False,
                              cpm_density=CPM_DENSITY, cells=None,
                              count_zeros=False):
    """Propagate Cauchy data for a whole array of lambda at once.

    Uses the same Gauss-Magnus steps as the dense solutions: constant cells
    in one exact step each (built together, see :func:`_exact_steps`),
    other cells on a lambda-independent grid of
    ``cpm_density`` steps per unit length, so the result is a smooth
    function of lambda (what root polishing and the inverse iteration
    need).  ``start`` is (y, y') or, to carry the variational pair along,
    (y, y', u, u'); each value broadcasts against ``lam``.  Returns the
    state of the same length at the far endpoint: 0-d rows for a 0-d ``lam``,
    Python numbers for a non-real one walking (y, y').

    ``problem`` may be a stack (:func:`_stack`) with one row of a 2-D
    ``lam`` per problem.  With ``cells``, a list with one slot per cell,
    each slot receives the cell's dense-output record.  ``count_zeros``
    appends the zeros of y on (0, pi] of a forward walk of real lambda.
    """
    lam = np.asarray(lam, dtype=complex if np.iscomplexobj(lam) else float)
    if lam.dtype == complex and lam.size == 1 and lam.ndim < 2 and lam.item().imag \
            and len(start) == 2 and cells is None and not count_zeros:
        y, yp = (np.asarray(v, complex).item() + 0.0 for v in start)    # -0.0 is +0.0, as below
        end = _walk_one(problem, lam.reshape(1), y, yp, backward, cpm_density)
        return tuple(np.array(end)[:, None]) if lam.ndim else end
    shape, lam = lam.shape, lam if lam.ndim else lam.reshape(1)    # 0-d: one element
    S = np.empty((len(start),) + lam.shape,
                 complex if lam.dtype == complex else np.result_type(lam, *start))
    for k, v in enumerate(start):
        S[k] = v + 0.0          # as zeros + v: a start of -0.0 is +0.0
    P = np.empty((len(_GATHER[len(S)]),) + lam.shape, S.dtype)    # one step's products
    route, const = problem.layout[backward]
    exact = _exact_steps(const, lam, len(S) == 4)
    zeros = 0 if count_zeros else None
    for i, piece, x0, x1, jump, memo in route:
        if piece.q_const is None:
            h, xs, blocks = _steps(piece, x0, x1, memo, lam, cpm_density, len(S) == 4)
        else:   # pulled in the call, so the walk holds no row while the next is built
            h, xs, blocks = x1 - x0, (x0, x1), None
        nodes = None if cells is None else []
        S, zeros = _cross_cell(h, blocks or (next(exact),), S, P, nodes, zeros)
        if cells is not None:
            cells[i] = _PieceSol(piece, xs, h, np.concatenate(nodes))
        if jump is not None:
            S = _jump_state(jump, S, inverse=backward)
    end = tuple(S) if shape else tuple(row.reshape(shape) for row in S)
    return end + (zeros.reshape(shape),) if count_zeros else end
