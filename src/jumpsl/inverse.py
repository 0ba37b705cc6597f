"""Inverse spectral fitting: recover boundary, jump, and potential
parameters from truncated spectral data.

Three modes:

* ``full_spectral`` — targets are (lambda_n, gamma_n) from one spectrum
  with norming constants;
* ``two_spectra`` — targets are the primary lambda_n plus the secondary
  mu_n (Dirichlet condition at 0);
* ``half_inverse`` — the potential is known on [0, pi/2) together with
  the left boundary data and all jumps left of pi/2; one spectrum
  determines the free coefficients on (pi/2, pi] and the right boundary
  constant.

The weight function w is never a free parameter (uniqueness needs it
known), so an ``a<i>`` unknown moves a_i while b_i is retied to keep
a_i b_i fixed.  Each unknown token is parsed and checked in one place,
:func:`_token_slots`, into a (token, kind, index, slice) slot that
packing, unpacking, the bounds and the CLI report read.  The optimizer
is scipy's trust-region least squares over the forward eigenvalue map.

Each residual locates the eigenvalues; the Jacobian needs no eigenvalue
solve.  At an iterate the lambda_n and Delta'(lambda_n) are known from the
residual, and the implicit function theorem on Delta(lambda_n(p), p) = 0
gives

    dlambda_n/dp = -d_p Delta(lambda_n) / Delta'(lambda_n),

with d_p Delta a central difference in p at fixed lambda_n.  The mu_n of
``two_spectra`` are the zeros of the Dirichlet-start Delta, and gamma_n =
G(lambda_n(p), p), with G the norming constant of
:func:`spectrum._norming_data` at any lambda, has dgamma_n/dp = d_p G +
(d_lambda G) dlambda_n/dp, both partials central differences at fixed
lambda.  So finite differences touch only smooth functions at fixed
lambda, never the located roots.  The perturbed problems differ in
numbers only, never in where their cells and jumps lie, so they
propagate as stacks: one walk for the Delta (and gamma) rows, one for
the mu rows, and one more of each where moving a ``q<i>`` slope turns a
constant cell into a stepped one.

The first residual of a fit locates the roots from a coarse start.
Later residuals seed the same oscillation-index bisection with the
first-order prediction lambda_n(x_J) + (dlambda_n/dp)(x - x_J) of the
last Jacobian at x_J, which usually settles in one sweep; the brackets,
and so the roots' bits, do not depend on the seed.
"""

from __future__ import annotations

import json
import math
import numbers
import re as _re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BoundaryConstraintError,
    ConfigParseError,
    JumpSLError,
    JumpSignError,
    MismatchError,
    NonconvergenceError,
    ValidationError,
)
from .problem import (
    PI,
    EigenparameterBC,
    PiecewisePolynomial,
    ProblemSpec,
    RobinBC,
    ValidatedProblem,
    validate,
)
from .spectrum import _locate, _norming_data, _stacked, load_csv

__all__ = [
    "FitSpec",
    "FitResult",
    "pack_parameters",
    "unpack_parameters",
    "residuals",
    "fit",
    "load_fitspec",
]

_MODES = ("full_spectral", "two_spectra", "half_inverse")
_ROBIN_TOKENS = ("h", "H")
_EIG_TOKENS = ("h1", "h2", "h3", "H1", "H2", "H3")
_INDEXED = _re.compile(r"^(a|c|q)(\d+)$")

FLAG_RESIDUAL = 1e6

#: relative step of the Jacobian's central differences: the truncation
#: error ~ h^2 and the rounding error ~ eps/h balance at h ~ eps^(1/3)
_FD_STEP = np.finfo(float).eps ** (1.0 / 3.0)


@dataclass(frozen=True)
class FitSpec:
    """Inverse-problem definition: template, unknowns, targets, settings.

    Unknown tokens: boundary constants (``h``/``H`` or ``h1``..``H3``),
    ``c<i>`` and ``a<i>`` for jump i (0-based; ``b`` retied to preserve
    the weight), and ``q<i>`` for all polynomial coefficients of
    potential piece i.  ``bounds`` maps unknowns to (lo, hi) with lo < hi
    (infinite ends allowed; a ``q<i>`` bound holds for each coefficient),
    ``max_iter``, an integer >= 1, caps the residual evaluations, ``tol``
    (finite, at least machine epsilon) is the solver's xtol and ftol,
    ``cpm_density`` >= 1 sets the steps per unit length, and the targets
    are finite reals, in sequences that are not strings; no number is a
    bool.  The targets of the mode (lambdas plus gammas, lambdas plus mus,
    or lambdas alone) number at least the unknown parameters.
    ValidationError names what breaks these rules.
    """

    mode: str
    template: ValidatedProblem
    unknowns: tuple
    targets_lambda: tuple = ()
    targets_gamma: tuple = ()
    targets_mu: tuple = ()
    bounds: dict = field(default_factory=dict)
    max_iter: int = 100
    tol: float = 1e-10
    cpm_density: int = 96

    def __post_init__(self):
        for name in ("unknowns", "targets_lambda", "targets_gamma", "targets_mu"):
            if isinstance(v := getattr(self, name), str) or not np.iterable(v):
                raise ValidationError(f"{name} must be a sequence, got {v!r}")
            object.__setattr__(self, name, tuple(v))
        _validate_fitspec(self)
        object.__setattr__(self, "bounds", {k: tuple(v) for k, v in self.bounds.items()})


def _validate_fitspec(fs: FitSpec):
    if fs.mode not in _MODES:
        raise ValidationError(f"unknown fit mode {fs.mode!r}")
    if not fs.unknowns:
        raise ValidationError("no unknown parameters declared")
    if not fs.targets_lambda:
        raise ValidationError("targets_lambda must be nonempty")
    if fs.mode == "full_spectral":
        if len(fs.targets_gamma) != len(fs.targets_lambda):
            raise MismatchError("full_spectral needs matching lambda and "
                                "gamma target lists")
    if fs.mode == "two_spectra" and not fs.targets_mu:
        raise MismatchError("two_spectra needs a secondary target list")
    for name in ("targets_lambda", "targets_gamma", "targets_mu"):
        if not all(map(_finite, getattr(fs, name))):
            raise ValidationError(f"{name} must hold finite real numbers")
    eps = np.finfo(float).eps
    # scipy counts evaluations up to max_nfev exactly: 2.5 would never stop
    for name, ok, rule in (
            ("max_iter", lambda v: float(v).is_integer() and v >= 1, "an integer >= 1"),
            ("tol", lambda v: v >= eps, f"at least machine epsilon ({eps:.3g})"),
            ("cpm_density", lambda v: v >= 1, "at least 1")):
        if not (_finite(v := getattr(fs, name)) and ok(v)):
            raise ValidationError(f"{name} must be finite and {rule}, got {v!r}")
    lo, _ = _bounds_arrays(fs)      # checks the unknowns, then their bounds
    if (count := _targets(fs)[0].size) < lo.size:
        raise ValidationError(f"{fs.mode} has {count} targets for {lo.size} unknowns: "
                              f"a fit needs at least one target per unknown")
    for name, mode in (("targets_gamma", "full_spectral"), ("targets_mu", "two_spectra")):
        if getattr(fs, name) and fs.mode != mode:
            raise MismatchError(f"{fs.mode} does not read {name}: only {mode} does")


def _finite(v):
    """True for a finite real number; False for a bool, string, None or complex."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _token_slots(fs: FitSpec):
    """Each unknown, parsed and checked against the template and mode once,
    as (token, kind, index, slice of the parameter vector): kind "bc" for a
    boundary constant (index None), else "a", "c" or "q" with the jump or
    potential piece index; a ``q`` token spans all coefficients of its piece."""
    p, half = fs.template, fs.mode == "half_inverse"
    slots = []
    for tok in fs.unknowns:
        if not isinstance(tok, str):
            raise ValidationError(f"unknowns are token strings, got {tok!r}")
        if tok in (s[0] for s in slots):
            raise ValidationError(f"duplicate unknown token {tok!r}")
        if tok in ("w", "d") or _re.match(r"^[bdw]\d+$", tok):
            raise ValidationError(
                f"{tok!r} may not be freed: the weight function and jump "
                f"locations are known data of the inverse problem")
        m = _INDEXED.match(tok)
        if tok in _ROBIN_TOKENS or tok in _EIG_TOKENS:
            if tok in _ROBIN_TOKENS and p.variant != "robin":
                raise ValidationError(f"token {tok!r} needs a Robin problem")
            if tok in _EIG_TOKENS and p.variant != "eigenparameter":
                raise ValidationError(f"token {tok!r} needs an eigenparameter "
                                      f"problem")
            if half and tok in ("h", "h1", "h2", "h3"):
                raise ValidationError("half_inverse keeps the left boundary "
                                      "data fixed")
            kind, idx, width = "bc", None, 1
        elif not m:
            raise ValidationError(f"unrecognized unknown token {tok!r}")
        elif m.group(1) in ("a", "c"):
            kind, idx, width = m.group(1), int(m.group(2)), 1
            if idx >= len(p.jumps):
                raise ValidationError(f"jump index {idx} out of range")
            if half and p.jumps[idx].d <= PI / 2:
                raise ValidationError("half_inverse keeps jumps at or left of "
                                      "pi/2 fixed")
        else:
            kind, idx, pot = "q", int(m.group(2)), p.potential
            if not isinstance(pot, PiecewisePolynomial):
                raise ValidationError("q unknowns require a piecewise polynomial "
                                      "potential")
            if idx >= len(pot.coefficients):
                raise ValidationError(f"potential piece index {idx} out of range")
            if half and pot.edges[idx] < PI / 2 - 1e-12:
                raise ValidationError("half_inverse may free the potential only "
                                      "on pieces inside (pi/2, pi]")
            width = len(pot.coefficients[idx])
        start = slots[-1][3].stop if slots else 0
        slots.append((tok, kind, idx, slice(start, start + width)))
    return slots


def pack_parameters(fs: FitSpec, problem=None):
    """Flatten the unknown parameters of ``problem`` (default: template)."""
    p = problem if problem is not None else fs.template
    out = []
    for tok, kind, i, _ in _token_slots(fs):
        if kind == "q":
            out.extend(p.potential.coefficients[i])
        elif kind == "bc":
            out.append(getattr(p.boundary, tok))
        else:
            out.append(getattr(p.jumps[i], kind))
    return np.array(out, dtype=float)


def unpack_parameters(fs: FitSpec, params) -> ValidatedProblem:
    """Rebuild a validated problem with the unknowns replaced by params."""
    params = np.asarray(params, dtype=float)
    slots = _token_slots(fs)
    expected = slots[-1][3].stop
    if len(params) != expected:
        raise MismatchError(f"parameter vector has {len(params)} entries, "
                            f"expected {expected}")
    p = fs.template
    bc = p.boundary
    jumps = list(p.jumps)
    pot = p.potential
    for tok, kind, i, sl in slots:
        chunk = params[sl]
        if kind == "bc":
            bc = replace(bc, **{tok: float(chunk[0])})
        elif kind == "a":
            j = jumps[i]
            a_new = float(chunk[0])
            if a_new == 0.0:
                raise JumpSignError("jump coefficient a may not vanish")
            jumps[i] = replace(j, a=a_new, b=(j.a * j.b) / a_new)
        elif kind == "c":
            jumps[i] = replace(jumps[i], c=float(chunk[0]))
        else:
            coeffs = [list(c) for c in pot.coefficients]
            coeffs[i] = [float(v) for v in chunk]
            pot = PiecewisePolynomial(coefficients=coeffs,
                                      breakpoints=pot.breakpoints)
    return validate(ProblemSpec(potential=pot, boundary=bc,
                                jumps=tuple(jumps)))


def _forward_targets(fs: FitSpec, problem, *predicted):
    """(lams, gams, mus): the lambda_n and the mu_n of ``two_spectra``, each
    as a (roots, Delta' there) pair, and the gamma_n of ``full_spectral``.
    ``predicted`` holds predicted lambda_n (and mu_n) to warm-start the
    root locator."""
    guess = list(predicted) or [None, None]
    lams = _locate(problem, len(fs.targets_lambda), "spec", fs.cpm_density, guess[0])
    gams, mus = None, None
    if fs.mode == "full_spectral":
        gams, _ = _norming_data(problem, lams[0], fs.cpm_density)
    elif fs.mode == "two_spectra":
        mus = _locate(problem, len(fs.targets_mu), "dirichlet", fs.cpm_density, guess[1])
    return lams, gams, mus


def _targets(fs: FitSpec):
    """(targets, divisors) of the residual rows: the lambda_n, then the
    gamma_n or mu_n of the mode; an eigenvalue row is divided by 1 + |t|,
    a norming-constant row by t."""
    tl = np.array(fs.targets_lambda)
    if fs.mode == "full_spectral":
        tg = np.array(fs.targets_gamma)
        return np.concatenate([tl, tg]), np.concatenate([1.0 + np.abs(tl), tg])
    t = np.concatenate([tl, fs.targets_mu]) if fs.mode == "two_spectra" else tl
    return t, 1.0 + np.abs(t)


def residuals(fs: FitSpec, params, _forward=None):
    """Scaled residual vector at the candidate parameters.

    A forward solve that fails (invalid parameters, missed eigenvalues,
    a nonpositive norm) yields a vector of FLAG_RESIDUAL entries so the
    optimizer backs away instead of crashing.  :func:`fit` passes a dict
    as ``_forward``: its "predicted" entry, a tuple of predicted roots per
    spectrum, warm-starts the root locator, and the dict receives the
    (roots, Delta') pairs (lams, mus; left as they are when flagged) that
    the Jacobian starts from.
    """
    targets, scales = _targets(fs)
    flagged = np.full(scales.size, FLAG_RESIDUAL)
    predicted = () if _forward is None else _forward.get("predicted", ())
    try:
        problem = unpack_parameters(fs, params)
        lams, gams, mus = _forward_targets(fs, problem, *predicted)
    except JumpSLError:
        # invalid candidate (sign flips, missed roots, nonpositive norms):
        # flag it so the optimizer retreats instead of aborting the fit
        return flagged
    model = [lams[0], gams, None if mus is None else mus[0]]
    res = (np.concatenate([v for v in model if v is not None]) - targets) / scales
    if not np.all(np.isfinite(res)):
        return flagged
    if _forward is not None:
        _forward.update(lams=lams, mus=mus)
    return res


def _jacobian(fs: FitSpec, params, lams, mus):
    """d residuals / d params from the forward data at ``params``, by the
    implicit function theorem (see the module docstring): no eigenvalue
    solve, and Delta' at the roots comes with ``lams`` and ``mus``, the
    (roots, Delta') pairs of :func:`residuals`.  The perturbed problems
    (and, for gamma_n, the problem at lambda_n -+ dl) share one stacked
    propagation per kind of row.  Zero when a perturbed problem is
    invalid, so the solver stops instead of crashing; ``fit`` never asks
    it at a flagged residual."""
    _, scales = _targets(fs)
    jac = np.zeros((scales.size, params.size))
    dens = fs.cpm_density
    steps = _FD_STEP * np.maximum(1.0, np.abs(params))
    try:
        # rows: params + steps_j for each j, then params - steps_j
        shifted = [unpack_parameters(fs, params + sign * e)
                   for sign in (1.0, -1.0) for e in np.diag(steps)]

        def d_param(rows):
            """Central differences in each parameter, one column each."""
            return (rows[:params.size] - rows[params.size:]).T / (2.0 * steps)

        def root_rows(roots, values):
            return -d_param(values) / roots[1][:, None]

        lam = np.tile(lams[0], (len(shifted), 1))
        if fs.mode == "full_spectral":
            problem = unpack_parameters(fs, params)
            dl = _FD_STEP * np.maximum(1.0, np.abs(lams[0]))
            delta, gamma = _stacked(shifted + [problem] * 2,
                                    np.vstack([lam, lams[0] + dl, lams[0] - dl]),
                                    "spec", dens, norm=True)
            rows = [root_rows(lams, delta[:-2])]
            g_lam = (gamma[-2] - gamma[-1]) / (2.0 * dl)
            rows.append(d_param(gamma[:-2]) + g_lam[:, None] * rows[0])
        else:
            rows = [root_rows(lams, _stacked(shifted, lam, "spec", dens))]
        if fs.mode == "two_spectra":
            rows.append(root_rows(mus, _stacked(
                shifted, np.tile(mus[0], (len(shifted), 1)), "dirichlet", dens)))
    except JumpSLError:
        return jac
    return np.vstack(rows) / scales[:, None]


@dataclass(frozen=True)
class FitResult:
    """Recovered problem plus optimizer diagnostics."""

    problem: ValidatedProblem
    params: np.ndarray
    residual: np.ndarray
    norm: float
    nfev: int
    converged: bool
    message: str


def _bounds_arrays(fs: FitSpec):
    """(lo, hi) per parameter.  ValidationError for bounds that are not a
    dict, a bound on a token that is not an unknown, or one without numbers
    lo < hi (a nan or bool end has none)."""
    slots = _token_slots(fs)
    if not isinstance(fs.bounds, dict):
        raise ValidationError(f"bounds must map unknowns to (lo, hi), got {fs.bounds!r}")
    stray = set(fs.bounds) - {s[0] for s in slots}
    if stray:
        raise ValidationError(f"bounds name tokens that are not unknowns: "
                              f"{sorted(stray, key=str)}")
    lo = np.full(slots[-1][3].stop, -np.inf)
    hi = np.full(lo.size, np.inf)
    for tok, _, _, sl in slots:
        if tok in fs.bounds:
            try:
                lo[sl], hi[sl] = fs.bounds[tok]
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"bound on {tok!r} must be a pair (lo, hi), "
                                      f"got {fs.bounds[tok]!r}") from exc
            if any(isinstance(v, bool) for v in fs.bounds[tok]) \
                    or not np.all(lo[sl] < hi[sl]):
                raise ValidationError(f"bound on {tok!r} needs numbers lo < hi and no "
                                      f"nan end, got {tuple(fs.bounds[tok])}")
    return lo, hi


def fit(fs: FitSpec, initial_guess=None, raise_on_failure=False) -> FitResult:
    """Trust-region least-squares fit of the unknowns to the targets.

    Each function evaluation is one call of :func:`residuals`, and
    ``max_iter`` caps their number; after the first, each starts its root
    search from the last Jacobian's prediction.  The Jacobian comes from
    the implicit function theorem: it reuses the eigenvalues and Delta' of
    the residual at the same x, which the solver has always just
    evaluated, and costs one or two stacked propagations at fixed lambda.
    Both are described in the module docstring.
    """
    # imported here: scipy.optimize is most of the cost of ``import jumpsl``
    from scipy.optimize import OptimizeResult, least_squares

    lo, hi = _bounds_arrays(fs)
    if initial_guess is None:
        x0 = pack_parameters(fs)
    else:
        x0 = np.asarray(initial_guess, dtype=float)
        if x0.shape != lo.shape:
            raise MismatchError(f"initial guess has shape {x0.shape}, expected "
                                f"{lo.size} entries")
    x0 = np.clip(x0, lo, hi)
    _, scales = _targets(fs)
    last, lin = {}, {}

    def predict(x):
        """Each spectrum's roots at x, to first order from the last Jacobian."""
        if not lin:
            return ()
        out, pos = [], 0
        for roots, _ in lin["spectra"]:
            rows = slice(pos, pos + roots.size)
            out.append(roots + (lin["jac"][rows] * scales[rows, None]) @ (x - lin["x"]))
            pos += roots.size
        return tuple(out)

    def fun(x):
        last.update(x=x.copy(), lams=None, mus=None, predicted=predict(x))
        last["res"] = residuals(fs, x, _forward=last)
        return last["res"]

    def jac(x):
        if not np.array_equal(x, last["x"]):
            fun(x)
        if last["lams"] is None:  # a flagged start: J is asked only at accepted x
            raise NonconvergenceError("the forward solve failed at the initial guess")
        lin.update(x=last["x"], jac=_jacobian(fs, x, last["lams"], last["mus"]),
                   spectra=[v for v in (last["lams"], last["mus"]) if v is not None])
        return lin["jac"]

    # a zero Jacobian makes the solver's steps 0/0; a nan step is a flagged
    # residual, so the fit runs out of evaluations, unconverged
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            sol = least_squares(
                fun, x0, jac=jac, bounds=(lo, hi), method="trf",
                xtol=fs.tol, ftol=fs.tol, gtol=None, max_nfev=fs.max_iter)
    except NonconvergenceError as exc:
        sol = OptimizeResult(x=last["x"], fun=last["res"], nfev=1, success=False,
                             message=str(exc))
    norm = float(np.linalg.norm(sol.fun))
    converged = bool(sol.success) and norm < math.sqrt(FLAG_RESIDUAL)
    try:
        problem = unpack_parameters(fs, sol.x)
    except ValidationError as exc:
        if raise_on_failure:
            raise NonconvergenceError(str(exc))
        problem = fs.template
        converged = False
    result = FitResult(problem=problem, params=np.asarray(sol.x),
                       residual=np.asarray(sol.fun), norm=norm,
                       nfev=int(sol.nfev), converged=converged,
                       message=str(sol.message))
    if raise_on_failure and not converged:
        err = NonconvergenceError(f"fit did not converge: {sol.message}")
        err.result = result
        raise err
    return result


def load_fitspec(path, template: ValidatedProblem) -> FitSpec:
    """Read a fit definition from JSON.

    Keys: mode, unknowns (a list of tokens), bounds, targets_file (one
    path, or a pair [primary, secondary] for two_spectra), max_iter, tol,
    cpm_density.  Target files use the spectrum CSV format.  The values
    reach :class:`FitSpec` as JSON gives them, so the file and the API
    reject the same values; ConfigParseError names the file.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParseError(f"cannot read fit spec {path}: {exc}")
    try:
        mode, targets_file = data["mode"], data["targets_file"]
        kwargs = {k: data[k] for k in ("bounds", "max_iter", "tol", "cpm_density")
                  if k in data}
        kwargs["unknowns"] = data["unknowns"]
    except KeyError as exc:
        raise ConfigParseError(f"fit spec {path} missing key {exc}")
    except TypeError as exc:
        raise ConfigParseError(f"malformed fit spec {path}: {exc}") from exc
    if mode == "two_spectra":
        if not (isinstance(targets_file, (list, tuple))
                and len(targets_file) == 2):
            raise ConfigParseError("two_spectra needs targets_file = "
                                   "[primary_csv, secondary_csv]")
        kwargs.update(targets_lambda=load_csv(targets_file[0]).lambdas,
                      targets_mu=load_csv(targets_file[1]).lambdas)
    else:
        if isinstance(targets_file, (list, tuple)):
            raise ConfigParseError(f"{mode} takes a single targets_file")
        prim = load_csv(targets_file)
        kwargs["targets_lambda"] = prim.lambdas
        if mode == "full_spectral":     # a missing gamma is a nan target
            kwargs["targets_gamma"] = prim.gammas
    try:
        return FitSpec(mode=mode, template=template, **kwargs)
    except ValidationError as exc:
        raise ConfigParseError(f"fit spec {path}: {type(exc).__name__}: {exc}") from exc
