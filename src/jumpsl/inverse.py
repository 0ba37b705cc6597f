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
a_i b_i fixed.  The optimizer is scipy's trust-region least squares over
the forward eigenvalue map.
"""

from __future__ import annotations

import json
import math
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
from .spectrum import _norming_data, eigenvalues, load_csv

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


@dataclass(frozen=True)
class FitSpec:
    """Inverse-problem definition: template, unknowns, targets, settings.

    Unknown tokens: boundary constants (``h``/``H`` or ``h1``..``H3``),
    ``c<i>`` and ``a<i>`` for jump i (0-based; ``b`` retied to preserve
    the weight), and ``q<i>`` for all polynomial coefficients of
    potential piece i.
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
        object.__setattr__(self, "unknowns", tuple(self.unknowns))
        object.__setattr__(self, "targets_lambda", tuple(self.targets_lambda))
        object.__setattr__(self, "targets_gamma", tuple(self.targets_gamma))
        object.__setattr__(self, "targets_mu", tuple(self.targets_mu))
        _validate_fitspec(self)


def _validate_fitspec(fs: FitSpec):
    if fs.mode not in _MODES:
        raise ValidationError(f"unknown fit mode {fs.mode!r}")
    p = fs.template
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
    seen = set()
    for tok in fs.unknowns:
        if tok in seen:
            raise ValidationError(f"duplicate unknown token {tok!r}")
        seen.add(tok)
        _check_token(fs, tok)


def _check_token(fs: FitSpec, tok):
    p = fs.template
    if tok in ("w", "d") or _re.match(r"^[bdw]\d+$", tok):
        raise ValidationError(
            f"{tok!r} may not be freed: the weight function and jump "
            f"locations are known data of the inverse problem")
    if tok in _ROBIN_TOKENS or tok in _EIG_TOKENS:
        if tok in _ROBIN_TOKENS and p.variant != "robin":
            raise ValidationError(f"token {tok!r} needs a Robin problem")
        if tok in _EIG_TOKENS and p.variant != "eigenparameter":
            raise ValidationError(f"token {tok!r} needs an eigenparameter "
                                  f"problem")
        if fs.mode == "half_inverse" and tok in ("h", "h1", "h2", "h3"):
            raise ValidationError("half_inverse keeps the left boundary "
                                  "data fixed")
        return
    m = _INDEXED.match(tok)
    if not m:
        raise ValidationError(f"unrecognized unknown token {tok!r}")
    kind, idx = m.group(1), int(m.group(2))
    if kind in ("a", "c"):
        if idx >= len(p.jumps):
            raise ValidationError(f"jump index {idx} out of range")
        if fs.mode == "half_inverse" and p.jumps[idx].d <= PI / 2:
            raise ValidationError("half_inverse keeps jumps at or left of "
                                  "pi/2 fixed")
        return
    pot = p.potential
    if not isinstance(pot, PiecewisePolynomial):
        raise ValidationError("q unknowns require a piecewise polynomial "
                              "potential")
    if idx >= len(pot.coefficients):
        raise ValidationError(f"potential piece index {idx} out of range")
    if fs.mode == "half_inverse":
        edges = pot.edges
        if edges[idx] < PI / 2 - 1e-12:
            raise ValidationError("half_inverse may free the potential only "
                                  "on pieces inside (pi/2, pi]")


def _token_slots(fs: FitSpec):
    """(token, width) for each unknown; q tokens span all coefficients."""
    slots = []
    for tok in fs.unknowns:
        m = _INDEXED.match(tok)
        if m and m.group(1) == "q":
            width = len(fs.template.potential.coefficients[int(m.group(2))])
        else:
            width = 1
        slots.append((tok, width))
    return slots


def pack_parameters(fs: FitSpec, problem=None):
    """Flatten the unknown parameters of ``problem`` (default: template)."""
    p = problem if problem is not None else fs.template
    out = []
    for tok, _ in _token_slots(fs):
        m = _INDEXED.match(tok)
        if m is None:
            out.append(getattr(p.boundary, tok))
        elif m.group(1) == "a":
            out.append(p.jumps[int(m.group(2))].a)
        elif m.group(1) == "c":
            out.append(p.jumps[int(m.group(2))].c)
        else:
            out.extend(p.potential.coefficients[int(m.group(2))])
    return np.array(out, dtype=float)


def unpack_parameters(fs: FitSpec, params) -> ValidatedProblem:
    """Rebuild a validated problem with the unknowns replaced by params."""
    params = np.asarray(params, dtype=float)
    expected = sum(w for _, w in _token_slots(fs))
    if len(params) != expected:
        raise MismatchError(f"parameter vector has {len(params)} entries, "
                            f"expected {expected}")
    p = fs.template
    bc = p.boundary
    jumps = list(p.jumps)
    pot = p.potential
    pos = 0
    for tok, width in _token_slots(fs):
        chunk = params[pos:pos + width]
        pos += width
        m = _INDEXED.match(tok)
        if m is None:
            bc = replace(bc, **{tok: float(chunk[0])})
        elif m.group(1) == "a":
            i = int(m.group(2))
            j = jumps[i]
            a_new = float(chunk[0])
            if a_new == 0.0:
                raise JumpSignError("jump coefficient a may not vanish")
            jumps[i] = replace(j, a=a_new, b=(j.a * j.b) / a_new)
        elif m.group(1) == "c":
            i = int(m.group(2))
            jumps[i] = replace(jumps[i], c=float(chunk[0]))
        else:
            i = int(m.group(2))
            coeffs = [list(c) for c in pot.coefficients]
            coeffs[i] = [float(v) for v in chunk]
            pot = PiecewisePolynomial(coefficients=coeffs,
                                      breakpoints=pot.breakpoints)
    return validate(ProblemSpec(potential=pot, boundary=bc,
                                jumps=tuple(jumps)))


def _forward_targets(fs: FitSpec, problem):
    n = len(fs.targets_lambda)
    sd = eigenvalues(problem, n, verify=False, cpm_density=fs.cpm_density)
    lams = sd.lambdas
    gams = mus = None
    if fs.mode == "full_spectral":
        gams, _ = _norming_data(problem, lams, fs.cpm_density)
    elif fs.mode == "two_spectra":
        sd2 = eigenvalues(problem, len(fs.targets_mu), verify=False,
                          left="dirichlet", cpm_density=fs.cpm_density)
        mus = sd2.lambdas
    return lams, gams, mus


def residuals(fs: FitSpec, params):
    """Scaled residual vector at the candidate parameters.

    A forward solve that fails (invalid parameters, missed eigenvalues,
    a nonpositive norm) yields a vector of FLAG_RESIDUAL entries so the
    optimizer backs away instead of crashing.
    """
    n_out = len(fs.targets_lambda)
    if fs.mode == "full_spectral":
        n_out += len(fs.targets_gamma)
    elif fs.mode == "two_spectra":
        n_out += len(fs.targets_mu)
    try:
        problem = unpack_parameters(fs, params)
        lams, gams, mus = _forward_targets(fs, problem)
    except JumpSLError:
        # invalid candidate (sign flips, missed roots, nonpositive norms):
        # flag it so the optimizer retreats instead of aborting the fit
        return np.full(n_out, FLAG_RESIDUAL)
    tl = np.array(fs.targets_lambda)
    out = [(lams - tl) / (1.0 + np.abs(tl))]
    if fs.mode == "full_spectral":
        tg = np.array(fs.targets_gamma)
        out.append((gams - tg) / tg)
    elif fs.mode == "two_spectra":
        tm = np.array(fs.targets_mu)
        out.append((mus - tm) / (1.0 + np.abs(tm)))
    res = np.concatenate(out)
    if not np.all(np.isfinite(res)):
        return np.full(n_out, FLAG_RESIDUAL)
    return res


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
    slots = _token_slots(fs)
    total = sum(w for _, w in slots)
    lo = np.full(total, -np.inf)
    hi = np.full(total, np.inf)
    pos = 0
    for tok, width in slots:
        if tok in fs.bounds:
            b = fs.bounds[tok]
            lo[pos:pos + width] = b[0]
            hi[pos:pos + width] = b[1]
        pos += width
    return lo, hi


def fit(fs: FitSpec, initial_guess=None, raise_on_failure=False) -> FitResult:
    """Trust-region least-squares fit of the unknowns to the targets."""
    # imported here: scipy.optimize is most of the cost of ``import jumpsl``
    from scipy.optimize import least_squares

    if initial_guess is None:
        x0 = pack_parameters(fs)
    else:
        x0 = np.asarray(initial_guess, dtype=float)
    lo, hi = _bounds_arrays(fs)
    x0 = np.clip(x0, lo, hi)
    sol = least_squares(
        lambda x: residuals(fs, x), x0, bounds=(lo, hi), method="trf",
        xtol=fs.tol, ftol=fs.tol, gtol=None, diff_step=1e-6,
        max_nfev=fs.max_iter * (len(x0) + 1))
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

    Keys: mode, unknowns, bounds, targets_file (one path, or a pair
    [primary, secondary] for two_spectra), max_iter, tol.  Target files
    use the spectrum CSV format.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParseError(f"cannot read fit spec {path}: {exc}")
    try:
        mode = data["mode"]
        unknowns = tuple(data["unknowns"])
        targets_file = data["targets_file"]
    except KeyError as exc:
        raise ConfigParseError(f"fit spec missing key {exc}")
    kwargs = {
        "bounds": {k: tuple(v) for k, v in data.get("bounds", {}).items()},
        "max_iter": int(data.get("max_iter", 100)),
        "tol": float(data.get("tol", 1e-10)),
    }
    if "cpm_density" in data:
        kwargs["cpm_density"] = int(data["cpm_density"])
    if mode == "two_spectra":
        if not (isinstance(targets_file, (list, tuple))
                and len(targets_file) == 2):
            raise ConfigParseError("two_spectra needs targets_file = "
                                   "[primary_csv, secondary_csv]")
        prim = load_csv(targets_file[0])
        sec = load_csv(targets_file[1])
        return FitSpec(mode=mode, template=template, unknowns=unknowns,
                       targets_lambda=tuple(prim.lambdas),
                       targets_mu=tuple(sec.lambdas), **kwargs)
    if isinstance(targets_file, (list, tuple)):
        raise ConfigParseError(f"{mode} takes a single targets_file")
    prim = load_csv(targets_file)
    targets_gamma = ()
    if mode == "full_spectral":
        g = prim.gammas
        if np.any(np.isnan(g)):
            raise ConfigParseError("full_spectral targets need gamma values")
        targets_gamma = tuple(g)
    return FitSpec(mode=mode, template=template, unknowns=unknowns,
                   targets_lambda=tuple(prim.lambdas),
                   targets_gamma=targets_gamma, **kwargs)
