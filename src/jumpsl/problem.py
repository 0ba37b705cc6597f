"""Problem definition, validation and normalization.

A problem instance is ``-y'' + q y = lambda y`` on ``[0, pi]`` with Robin or
eigenparameter-dependent boundary conditions and a finite list of interior
transmission (jump) conditions

    y(d+) = a y(d-),    y'(d+) = b y'(d-) + c y(d-),    a*b > 0.

Validation derives the piecewise-constant weight ``w`` (``w_0 = 1``,
``w_k = 1/(a_1 b_1 ... a_k b_k)``), the reflection coefficients
``alpha = (a+b)/2`` and ``alpha' = (a-b)/2`` per jump, and a merged node grid
that splits the interval at every jump point and every potential breakpoint.

Point evaluations exactly at an interior node return the right limit by
default; the left limit is available through ``side="-"``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryConstraintError,
    ConfigParseError,
    DomainError,
    JumpOrderError,
    JumpSignError,
    PotentialError,
)

PI = math.pi

__all__ = [
    "PI",
    "JumpCondition",
    "RobinBC",
    "EigenparameterBC",
    "PiecewisePolynomial",
    "SampledGrid",
    "constant_potential",
    "ProblemSpec",
    "Piece",
    "ValidatedProblem",
    "validate",
    "weight_at",
    "gauge_transform",
    "problem_to_dict",
    "problem_from_dict",
    "load_problem",
    "save_problem",
]


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class JumpCondition:
    """One transmission condition at the interior point ``d``."""

    d: float
    a: float
    b: float
    c: float = 0.0


@dataclass(frozen=True)
class RobinBC:
    """Robin data: y'(0) + h y(0) = 0 and y'(pi) + H y(pi) = 0."""

    h: float
    H: float

    variant = "robin"


@dataclass(frozen=True)
class EigenparameterBC:
    """Boundary conditions affine in the spectral parameter.

    Left:  lambda (y'(0) + h1 y(0)) - h2 y'(0) - h3 y(0) = 0.
    Right: lambda (y'(pi) + H1 y(pi)) - H2 y'(pi) - H3 y(pi) = 0.
    Requires r1 = h3 - h1 h2 > 0 and r2 = H1 H2 - H3 > 0.
    """

    h1: float
    h2: float
    h3: float
    H1: float
    H2: float
    H3: float

    variant = "eigenparameter"

    @property
    def r1(self) -> float:
        return self.h3 - self.h1 * self.h2

    @property
    def r2(self) -> float:
        return self.H1 * self.H2 - self.H3


class PiecewisePolynomial:
    """Piecewise polynomial potential with its own interior breakpoints.

    ``coefficients[i]`` are ascending-power coefficients in the local
    variable ``t = x - left_edge_i``.  Breakpoints are independent of jump
    points: the potential may be smooth across a jump, or break where no
    jump sits (the half-inverse setting needs a break at pi/2).
    """

    max_degree = 6

    def __init__(self, coefficients, breakpoints=()):
        breakpoints = tuple(float(t) for t in breakpoints)
        coefficients = tuple(tuple(float(c) for c in piece) for piece in coefficients)
        if len(coefficients) != len(breakpoints) + 1:
            raise PotentialError(
                "need exactly one coefficient list per potential segment "
                f"({len(breakpoints) + 1}), got {len(coefficients)}"
            )
        for piece in coefficients:
            if len(piece) == 0 or len(piece) > self.max_degree + 1:
                raise PotentialError(
                    f"per-segment degree must be between 0 and {self.max_degree}"
                )
            if not all(math.isfinite(c) for c in piece):
                raise PotentialError("non-finite polynomial coefficient")
        if any(not 0.0 < t < PI for t in breakpoints):
            raise PotentialError("potential breakpoints must lie in (0, pi)")
        if any(t1 >= t2 for t1, t2 in zip(breakpoints, breakpoints[1:])):
            raise PotentialError("potential breakpoints must be strictly increasing")
        self.breakpoints = breakpoints
        self.coefficients = coefficients

    @property
    def edges(self):
        return (0.0,) + self.breakpoints + (PI,)

    def piece_index(self, x, side="+"):
        edges = self.edges
        if side == "-":
            i = bisect_right(edges, x) - 1
            if x == edges[i] and i > 0:
                i -= 1
        else:
            i = bisect_right(edges, x) - 1
        return min(max(i, 0), len(self.coefficients) - 1)

    def __call__(self, x, side="+"):
        x = np.asarray(x, dtype=float)
        edges = np.asarray(self.edges)
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(self.coefficients) - 1)
        out = np.zeros_like(x, dtype=float)
        for i, coeffs in enumerate(self.coefficients):
            sel = idx == i
            if np.any(sel):
                t = x[sel] - edges[i]
                out[sel] = np.polynomial.polynomial.polyval(t, coeffs)
        return out if out.ndim else float(out)

    def max_abs(self):
        vals = self(np.linspace(0.0, PI, 257))
        return float(np.max(np.abs(vals)))

    def to_dict(self):
        return {
            "type": "piecewise_polynomial",
            "breakpoints": list(self.breakpoints),
            "coefficients": [list(c) for c in self.coefficients],
        }


class SampledGrid:
    """Potential given by samples with zero-, first- or third-order interpolation."""

    def __init__(self, x, values, order=1):
        x = tuple(float(t) for t in x)
        values = tuple(float(v) for v in values)
        if order not in (0, 1, 3):
            raise PotentialError("interpolation order must be 0, 1 or 3")
        if len(x) != len(values) or len(x) < 2:
            raise PotentialError("need matching abscissae/values with at least 2 samples")
        if any(t1 >= t2 for t1, t2 in zip(x, x[1:])):
            raise PotentialError("sample abscissae must be strictly increasing")
        if not (x[0] <= 0.0 + 1e-12 and x[-1] >= PI - 1e-12):
            raise PotentialError("samples must cover [0, pi]")
        if not all(math.isfinite(v) for v in values):
            raise PotentialError("non-finite potential sample")
        self.x = x
        self.values = values
        self.order = order
        if order in (0, 1):
            self._interp = None
        else:
            from scipy.interpolate import CubicSpline

            self._interp = CubicSpline(x, values)

    @property
    def breakpoints(self):
        return ()

    def __call__(self, x, side="+"):
        x = np.asarray(x, dtype=float)
        if self.order == 0:
            idx = np.clip(np.searchsorted(self.x, x, side="right") - 1, 0, len(self.values) - 1)
            out = np.asarray(self.values)[idx]
        elif self.order == 1:
            out = np.interp(x, self.x, self.values)
        else:
            out = self._interp(x)
        return out if np.ndim(out) else float(out)

    def max_abs(self):
        return float(np.max(np.abs(self.values)))

    def to_dict(self):
        return {
            "type": "sampled_grid",
            "x": list(self.x),
            "values": list(self.values),
            "order": self.order,
        }


def constant_potential(value=0.0):
    """Potential q(x) = value on all of [0, pi]."""
    return PiecewisePolynomial(coefficients=((float(value),),))


@dataclass(frozen=True)
class ProblemSpec:
    """Raw, unvalidated problem description."""

    potential: object
    boundary: object
    jumps: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple(self.jumps))


@dataclass(frozen=True)
class Piece:
    """One integration cell of the merged node grid (no interior node)."""

    xl: float
    xr: float
    segment: int            # weight-segment index (between consecutive jumps)
    q_const: object         # float when q is constant on the cell, else None
    qfun: object            # vectorized q(x)

    @property
    def length(self):
        return self.xr - self.xl


class ValidatedProblem:
    """A ProblemSpec plus all derived data; immutable after construction.

    Use :func:`validate` to build one.
    """

    def __init__(self, spec, weights, alphas, alpha_primes, pieces, jump_after_piece):
        self.spec = spec
        self.potential = spec.potential
        self.boundary = spec.boundary
        self.jumps = spec.jumps
        self.weights = weights                  # per weight segment, w_0 = 1
        self.alphas = alphas
        self.alpha_primes = alpha_primes
        self.pieces = pieces
        self.jump_after_piece = jump_after_piece  # JumpCondition or None per interior node
        self._jump_ds = tuple(j.d for j in spec.jumps)

    # -- basic queries --------------------------------------------------

    @property
    def variant(self):
        return self.boundary.variant

    @property
    def n_segments(self):
        return len(self.jumps) + 1

    def segment_of(self, x, side="+"):
        """Weight-segment index containing x (right limit at a jump point)."""
        if not 0.0 <= x <= PI:
            raise DomainError(f"x = {x} outside [0, pi]")
        i = bisect_right(self._jump_ds, x)
        if side == "-" and i > 0 and x == self._jump_ds[i - 1]:
            i -= 1
        return i

    def weight_at(self, x, side="+"):
        """Weight w(x); right-limit value exactly at a jump point."""
        return self.weights[self.segment_of(x, side)]

    @property
    def w_end(self):
        return self.weights[-1]

    def q(self, x, side="+"):
        return self.potential(x, side)

    def max_abs_q(self):
        return self.potential.max_abs()

    def min_node_gap(self):
        nodes = [0.0] + list(self._jump_ds) + [PI]
        return min(b - a for a, b in zip(nodes, nodes[1:]))

    def piece_containing(self, x_from, x_to):
        """The single Piece covering [x_from, x_to]; DomainError if none."""
        lo, hi = min(x_from, x_to), max(x_from, x_to)
        if lo < 0.0 or hi > PI:
            raise DomainError(f"[{x_from}, {x_to}] not within [0, pi]")
        for piece in self.pieces:
            if piece.xl <= lo and hi <= piece.xr:
                return piece
        raise DomainError(
            f"[{x_from}, {x_to}] straddles an interior node (jump or breakpoint)"
        )

    def fingerprint(self):
        payload = json.dumps(problem_to_dict(self), sort_keys=True)
        return hashlib.sha1(payload.encode()).hexdigest()[:16]

    def __repr__(self):
        return (
            f"ValidatedProblem(variant={self.variant!r}, "
            f"jumps={len(self.jumps)}, segments={self.n_segments})"
        )


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def validate(spec: ProblemSpec) -> ValidatedProblem:
    """Check all invariants and populate derived data."""
    jumps = spec.jumps
    ds = [j.d for j in jumps]
    if any(not 0.0 < d < PI for d in ds):
        raise JumpOrderError(f"jump points must lie strictly inside (0, pi): {ds}")
    if any(d1 >= d2 for d1, d2 in zip(ds, ds[1:])):
        raise JumpOrderError(f"jump points must be strictly increasing: {ds}")
    for j in jumps:
        if not all(math.isfinite(v) for v in (j.d, j.a, j.b, j.c)):
            raise JumpSignError(f"non-finite jump parameters: {j}")
        if j.a * j.b <= 0.0:
            raise JumpSignError(f"jump at d={j.d} has a*b = {j.a * j.b} <= 0")

    bc = spec.boundary
    if isinstance(bc, RobinBC):
        if not (math.isfinite(bc.h) and math.isfinite(bc.H)):
            raise BoundaryConstraintError("non-finite Robin parameters")
    elif isinstance(bc, EigenparameterBC):
        if bc.r1 <= 0.0:
            raise BoundaryConstraintError(f"r1 = h3 - h1*h2 = {bc.r1} must be > 0")
        if bc.r2 <= 0.0:
            raise BoundaryConstraintError(f"r2 = H1*H2 - H3 = {bc.r2} must be > 0")
    else:
        raise BoundaryConstraintError(f"unknown boundary condition {bc!r}")

    pot = spec.potential
    if not isinstance(pot, (PiecewisePolynomial, SampledGrid)):
        raise PotentialError(f"unknown potential type {type(pot).__name__}")

    weights = [1.0]
    for j in jumps:
        weights.append(weights[-1] / (j.a * j.b))
    alphas = tuple((j.a + j.b) / 2.0 for j in jumps)
    alpha_primes = tuple((j.a - j.b) / 2.0 for j in jumps)

    pieces, jump_after = _build_pieces(pot, jumps)
    return ValidatedProblem(spec, tuple(weights), alphas, alpha_primes, pieces, jump_after)


def _build_pieces(pot, jumps):
    ds = [j.d for j in jumps]
    nodes = sorted(set([0.0, PI] + ds + list(pot.breakpoints)))
    jump_by_d = {j.d: j for j in jumps}
    pieces = []
    jump_after = []
    for xl, xr in zip(nodes, nodes[1:]):
        seg = bisect_right(ds, xl)
        q_const = _constant_value(pot, xl, xr)
        pieces.append(Piece(xl, xr, seg, q_const, pot))
        jump_after.append(jump_by_d.get(xr))
    jump_after[-1] = None  # pi is never a jump point
    return tuple(pieces), tuple(jump_after)


def _constant_value(pot, xl, xr):
    if not isinstance(pot, PiecewisePolynomial):
        return None
    i = pot.piece_index(0.5 * (xl + xr))
    coeffs = pot.coefficients[i]
    if all(c == 0.0 for c in coeffs[1:]):
        return coeffs[0]
    return None


def weight_at(problem: ValidatedProblem, x, side="+"):
    """Module-level alias for :meth:`ValidatedProblem.weight_at`."""
    return problem.weight_at(x, side)


def gauge_transform(problem: ValidatedProblem) -> ValidatedProblem:
    """Rescale jump data so every a*b becomes 1 and the weight is identically 1.

    Replaces (a, b, c) by (sqrt(a/b), sqrt(b/a), c/sqrt(a*b)); potential and
    boundary data are unchanged, and the spectrum is preserved.
    """
    new_jumps = []
    for j in problem.jumps:
        s = math.sqrt(j.a * j.b)
        new_jumps.append(JumpCondition(d=j.d, a=j.a / s, b=j.b / s, c=j.c / s))
    return validate(ProblemSpec(problem.potential, problem.boundary, tuple(new_jumps)))


# ----------------------------------------------------------------------
# configuration files (JSON)
# ----------------------------------------------------------------------

def problem_to_dict(problem):
    spec = problem.spec if isinstance(problem, ValidatedProblem) else problem
    bc = spec.boundary
    if isinstance(bc, RobinBC):
        boundary = {"type": "robin", "h": bc.h, "H": bc.H}
    else:
        boundary = {
            "type": "eigenparameter",
            "h1": bc.h1, "h2": bc.h2, "h3": bc.h3,
            "H1": bc.H1, "H2": bc.H2, "H3": bc.H3,
        }
    return {
        "potential": spec.potential.to_dict(),
        "boundary": boundary,
        "jumps": [{"d": j.d, "a": j.a, "b": j.b, "c": j.c} for j in spec.jumps],
    }


def problem_from_dict(data) -> ValidatedProblem:
    try:
        pot_data = dict(data["potential"])
        pot_type = pot_data.pop("type")
        if pot_type == "piecewise_polynomial":
            pot = PiecewisePolynomial(**pot_data)
        elif pot_type == "sampled_grid":
            pot = SampledGrid(**pot_data)
        else:
            raise ConfigParseError(f"unknown potential type {pot_type!r}")
        bc_data = dict(data["boundary"])
        bc_type = bc_data.pop("type")
        if bc_type == "robin":
            bc = RobinBC(**bc_data)
        elif bc_type == "eigenparameter":
            bc = EigenparameterBC(**bc_data)
        else:
            raise ConfigParseError(f"unknown boundary type {bc_type!r}")
        jumps = tuple(JumpCondition(**j) for j in data.get("jumps", []))
    except (KeyError, TypeError) as exc:
        raise ConfigParseError(f"malformed problem configuration: {exc}") from exc
    return validate(ProblemSpec(pot, bc, jumps))


def load_problem(path) -> ValidatedProblem:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParseError(f"cannot read problem configuration {path}: {exc}") from exc
    return problem_from_dict(data)


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".jumpsl-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_problem(problem, path):
    _atomic_write(path, json.dumps(problem_to_dict(problem), indent=2) + "\n")
