import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jumpsl import (
    ConfigParseError,
    EigenparameterBC,
    FitSpec,
    JumpCondition,
    MismatchError,
    MissedEigenvalueError,
    NonconvergenceError,
    PiecewisePolynomial,
    ProblemSpec,
    RobinBC,
    SampledGrid,
    ValidatedProblem,
    ValidationError,
    constant_potential,
    delta_batch,
    eigenvalues,
    export_csv,
    fit,
    load_fitspec,
    pack_parameters,
    residuals,
    spectral_data,
    unpack_parameters,
    validate,
)
import jumpsl
from jumpsl import inverse
from jumpsl import spectrum as inverse_spectrum
from jumpsl.inverse import FLAG_RESIDUAL

PI = math.pi


def _full_spec(problem, n, **kw):
    sd = spectral_data(problem, eigenvalues(problem, n, verify=False))
    return FitSpec(mode="full_spectral", template=problem,
                   unknowns=kw.pop("unknowns"),
                   targets_lambda=tuple(sd.lambdas),
                   targets_gamma=tuple(sd.gammas), **kw)


def test_zero_residual_at_truth_full(one_jump):
    fs = _full_spec(one_jump, 8, unknowns=("h", "H", "c0"),
                    cpm_density=160)
    r = residuals(fs, pack_parameters(fs))
    assert np.max(np.abs(r)) < 1e-7


def test_zero_residual_at_truth_full_eigenparameter(eig_desk):
    # model and target gammas come from one route, so they agree to
    # rounding out to n = 119, where the residue route was off by ~1e-7
    fs = _full_spec(eig_desk, 120, unknowns=("h1", "H1"))
    r = residuals(fs, pack_parameters(fs))
    assert np.max(np.abs(r)) <= 1e-12


def test_zero_residual_at_truth_two_spectra(free):
    # free problem: lambda_n = n^2, mu_n = (n + 1/2)^2
    n = np.arange(12)
    fs = FitSpec(mode="two_spectra", template=free, unknowns=("h", "H"),
                 targets_lambda=tuple((n * 1.0) ** 2),
                 targets_mu=tuple((n + 0.5) ** 2))
    r = residuals(fs, pack_parameters(fs))
    assert np.max(np.abs(r)) < 1e-7


def test_fit_recovers_boundary_and_coupling(one_jump):
    fs = _full_spec(one_jump, 10, unknowns=("h", "H", "c0"),
                    tol=1e-12)
    truth = pack_parameters(fs)
    result = fit(fs, initial_guess=truth + np.array([0.3, -0.25, 0.2]))
    assert result.converged
    assert np.allclose(result.params, truth, atol=1e-6)
    rec = result.problem
    assert rec.jumps[0].c == pytest.approx(one_jump.jumps[0].c, abs=1e-6)


def test_validation_rejections(free, one_jump, generic, eig_desk):
    lam = (0.0, 1.0, 4.0)
    gam = (0.3, 0.6, 0.6)
    for tok in ("w", "d", "b0", "d0", "w1"):
        with pytest.raises(ValidationError):
            FitSpec(mode="full_spectral", template=one_jump, unknowns=(tok,),
                    targets_lambda=lam, targets_gamma=gam)
    with pytest.raises(ValidationError):   # duplicate token
        FitSpec(mode="full_spectral", template=one_jump, unknowns=("h", "h"),
                targets_lambda=lam, targets_gamma=gam)
    with pytest.raises(ValidationError):   # eig token on Robin template
        FitSpec(mode="full_spectral", template=free, unknowns=("h1",),
                targets_lambda=lam, targets_gamma=gam)
    with pytest.raises(MismatchError):     # mismatched gamma list
        FitSpec(mode="full_spectral", template=free, unknowns=("h",),
                targets_lambda=lam, targets_gamma=gam[:2])
    with pytest.raises(MismatchError):     # two_spectra without secondary
        FitSpec(mode="two_spectra", template=free, unknowns=("h",),
                targets_lambda=lam)
    with pytest.raises(ValidationError):   # half_inverse frees left boundary
        FitSpec(mode="half_inverse", template=free, unknowns=("h",),
                targets_lambda=lam)
    with pytest.raises(ValidationError):   # jump at pi/2 is left-fixed
        FitSpec(mode="half_inverse", template=one_jump, unknowns=("c0",),
                targets_lambda=lam)
    with pytest.raises(ValidationError):   # jump index out of range
        FitSpec(mode="full_spectral", template=one_jump, unknowns=("c3",),
                targets_lambda=lam, targets_gamma=gam)
    # a bound on a token that is not an unknown, with lo >= hi, or a nan end
    for bounds in ({"HH": (0.0, 1.0)}, {"h": (1.0, 0.5)}, {"h": (0.7, 0.7)},
                   {"h": (math.nan, 1.0)}, {"H": (0.0, math.nan)}):
        with pytest.raises(ValidationError):
            FitSpec(mode="full_spectral", template=one_jump, unknowns=("h", "H"),
                    targets_lambda=lam, targets_gamma=gam, bounds=bounds)
    for setting in ({"max_iter": 0}, {"max_iter": 2.5}, {"tol": 0.0}, {"tol": 1e-20},
                    {"tol": math.inf}, {"tol": math.nan},
                    {"cpm_density": 0}, {"cpm_density": -5}):
        with pytest.raises(ValidationError):
            FitSpec(mode="full_spectral", template=one_jump, unknowns=("h",),
                    targets_lambda=lam, targets_gamma=gam, **setting)
    # wrongly typed or non-finite fields
    for field_ in ({"bounds": {"c0": 3}}, {"bounds": {"c0": (0, 1, 2)}},
                   {"bounds": {"c0": ("lo", 1.0)}}, {"unknowns": [1]},
                   {"tol": "1e-8"}, {"max_iter": "5"}, {"max_iter": math.inf},
                   {"cpm_density": "96"}, {"cpm_density": math.nan},
                   {"cpm_density": math.inf}, {"targets_lambda": (0.0, "x", 4.0)},
                   {"targets_lambda": (0.0, math.nan, 4.0)},
                   {"targets_gamma": (0.3, math.inf, 0.6)},
                   # one string is not a list of tokens, a bool not a number
                   {"unknowns": "hH"}, {"unknowns": 5}, {"bounds": 5},
                   {"bounds": {"c0": (True, 2.0)}},
                   {"max_iter": True}, {"tol": True}, {"cpm_density": True},
                   {"targets_lambda": (0.0, True, 4.0)}):
        with pytest.raises(ValidationError):
            FitSpec(**{"mode": "full_spectral", "template": one_jump,
                       "unknowns": ("c0",), "targets_lambda": lam,
                       "targets_gamma": gam, **field_})
    with pytest.raises(ValidationError):
        FitSpec(mode="two_spectra", template=one_jump, unknowns=("c0",),
                targets_lambda=lam, targets_mu=(1.0, None))
    # infinite ends stay allowed
    FitSpec(mode="full_spectral", template=one_jump, unknowns=("h", "H"),
            targets_lambda=lam, targets_gamma=gam,
            bounds={"h": (-math.inf, 0.5), "H": (-1.0, math.inf)})
    # a mode, unknown list or token that no template allows
    x = np.linspace(0.0, PI, 9)
    grid = validate(ProblemSpec(SampledGrid(x, np.cos(x)), RobinBC(0.0, 0.0)))
    halves = validate(ProblemSpec(PiecewisePolynomial(((0.1,), (0.2,)), (PI / 2,)),
                                  RobinBC(0.0, 0.0)))
    for template, field_, message in (
            (one_jump, {"mode": "inverse"}, "unknown fit mode"),
            (one_jump, {"unknowns": ()}, "no unknown parameters"),
            (one_jump, {"targets_lambda": (), "targets_gamma": ()},
             "targets_lambda must be nonempty"),
            (eig_desk, {"unknowns": ("H",)}, "needs a Robin problem"),
            (one_jump, {"unknowns": ("x1",)}, "unrecognized unknown token"),
            (grid, {"unknowns": ("q0",)}, "piecewise polynomial potential"),
            (one_jump, {"unknowns": ("q1",)}, "piece index 1 out of range"),
            (halves, {"mode": "half_inverse", "unknowns": ("q0",)},
             r"only on pieces inside \(pi/2, pi\]")):
        with pytest.raises(ValidationError, match=message):
            FitSpec(**{"mode": "full_spectral", "template": template, "unknowns": ("h",),
                       "targets_lambda": lam, "targets_gamma": gam, **field_})


def test_pack_unpack_round_trip(generic):
    fs = FitSpec(mode="full_spectral", template=generic,
                 unknowns=("h", "H", "a0", "c0", "q0"),
                 targets_lambda=(1.0, 4.0, 9.0), targets_gamma=(0.5,) * 3)
    x = pack_parameters(fs)
    rebuilt = unpack_parameters(fs, x)
    assert np.array_equal(pack_parameters(fs, rebuilt), x)
    # a-token moves a but keeps the weight a*b fixed
    x2 = x.copy()
    ia = 2  # slot order: h, H, a0, c0, q0...
    x2[ia] *= 1.5
    moved = unpack_parameters(fs, x2)
    j0, jm = generic.jumps[0], moved.jumps[0]
    assert jm.a == pytest.approx(1.5 * j0.a)
    assert jm.a * jm.b == pytest.approx(j0.a * j0.b)
    assert np.allclose(moved.weights, generic.weights)
    with pytest.raises(MismatchError):
        unpack_parameters(fs, x[:-1])
    # a multi-coefficient q<i> beside a boundary token
    half = validate(ProblemSpec(
        PiecewisePolynomial(coefficients=((0.25, -0.1, 0.2, 0.0),
                                          (0.1, 0.3, -0.2, 0.08)),
                            breakpoints=(PI / 2,)),
        RobinBC(0.2, -0.4)))
    fs = FitSpec(mode="half_inverse", template=half, unknowns=("H", "q1"),
                 targets_lambda=(1.0, 4.0, 9.0, 16.0, 25.0))
    x = pack_parameters(fs)
    assert np.array_equal(x, [-0.4, 0.1, 0.3, -0.2, 0.08])
    assert np.array_equal(pack_parameters(fs, unpack_parameters(fs, x)), x)
    moved = unpack_parameters(fs, x + 0.01)
    assert np.array_equal(pack_parameters(fs, moved), x + 0.01)
    assert moved.potential.coefficients[0] == half.potential.coefficients[0]


@pytest.mark.parametrize("count", [3, 4])
def test_fewer_targets_than_unknowns_rejected(tmp_path, count):
    # criterion 11's half-inverse setup frees H and q1's 4 coefficients; from
    # its 3 or 4 lowest eigenvalues a fit reported recoveries off by 3e-2 and
    # 7e-3.  Targets count per mode: gammas only in full_spectral, mus only
    # in two_spectra.
    truth = validate(ProblemSpec(
        PiecewisePolynomial(coefficients=((0.25, -0.1, 0.2, 0.0), (0.1, 0.3, -0.2, 0.08)),
                            breakpoints=(PI / 2,)),
        RobinBC(0.2, -0.4)))
    lowest = eigenvalues(truth, count, verify=False, cpm_density=96)
    lams = tuple(lowest.lambdas)
    message = f"has {count} targets for 5 unknowns"
    with pytest.raises(ValidationError, match=message):
        FitSpec(mode="half_inverse", template=truth, unknowns=("H", "q1"),
                targets_lambda=lams, targets_gamma=lams, targets_mu=lams)
    csv, cfg = tmp_path / "targets.csv", tmp_path / "fit.json"
    export_csv(lowest, csv)
    cfg.write_text(json.dumps({"mode": "half_inverse", "unknowns": ["H", "q1"],
                               "targets_file": str(csv)}))
    with pytest.raises(ConfigParseError, match=message):
        load_fitspec(cfg, truth)
    for mode, key in (("full_spectral", "targets_gamma"), ("two_spectra", "targets_mu")):
        FitSpec(mode=mode, template=truth, unknowns=("H", "q1"), targets_lambda=lams[:3],
                **{key: lams[:3]})
        with pytest.raises(ValidationError, match="has 4 targets for 5 unknowns"):
            FitSpec(mode=mode, template=truth, unknowns=("H", "q1"), targets_lambda=lams[:2],
                    **{key: lams[:2]})
    FitSpec(mode="half_inverse", template=truth, unknowns=("H", "q1"),
            targets_lambda=(0.0, 1.0, 4.0, 9.0, 16.0))


def test_target_lists_the_mode_never_reads_rejected(one_jump):
    # gammas are read by full_spectral only and mus by two_spectra only; a
    # list given to another mode would be checked for finite numbers and
    # then dropped from the fit
    lam = (1.0, 4.0, 9.0)
    for mode, extra, name in (("half_inverse", {"targets_gamma": lam}, "targets_gamma"),
                              ("half_inverse", {"targets_mu": lam}, "targets_mu"),
                              ("two_spectra", {"targets_mu": lam, "targets_gamma": lam},
                               "targets_gamma"),
                              ("full_spectral", {"targets_gamma": lam, "targets_mu": lam},
                               "targets_mu")):
        with pytest.raises(MismatchError, match=f"{mode} does not read {name}"):
            FitSpec(mode=mode, template=one_jump, unknowns=("H",), targets_lambda=lam,
                    **extra)
    FitSpec(mode="two_spectra", template=one_jump, unknowns=("H",), targets_lambda=lam,
            targets_mu=lam, targets_gamma=())


@pytest.mark.parametrize("start", [(0.3, 0.05), (0.8, 0.05)],
                         ids=["inside", "outside"])
def test_fit_ends_on_bound(one_jump, start):
    # the true h = 0 lies below the bound (0.1, 0.5), so the fit stops on
    # it; a start outside the bounds is clipped into them first
    fs = _full_spec(one_jump, 8, unknowns=("h", "H"), bounds={"h": (0.1, 0.5)})
    result = fit(fs, initial_guess=np.array(start))
    assert 0.1 <= result.params[0] <= 0.1 + 1e-12


def test_flag_residual_on_invalid_candidate(generic):
    fs = FitSpec(mode="full_spectral", template=generic,
                 unknowns=("a0",), targets_lambda=(1.0, 4.0),
                 targets_gamma=(0.5, 0.5))
    # a0 = 0 makes the jump singular, which unpacking rejects
    r = residuals(fs, np.array([0.0]))
    assert np.all(r == FLAG_RESIDUAL)
    assert len(r) == 4


def test_residuals_flag_numerical_errors(monkeypatch, one_jump):
    fs = _full_spec(one_jump, 4, unknowns=("h", "H"))

    def missed(fs, problem):
        raise MissedEigenvalueError("found only 3 of 4 requested eigenvalues")

    monkeypatch.setattr(inverse, "_forward_targets", missed)
    r = residuals(fs, pack_parameters(fs))
    assert np.all(r == FLAG_RESIDUAL)
    assert len(r) == 8


def test_residuals_propagate_programming_errors(monkeypatch, one_jump):
    fs = _full_spec(one_jump, 4, unknowns=("h", "H"))

    def broken(fs, problem):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(inverse, "_forward_targets", broken)
    with pytest.raises(TypeError):
        residuals(fs, pack_parameters(fs))


def test_load_fitspec_full(tmp_path, one_jump):
    sd = spectral_data(one_jump, eigenvalues(one_jump, 6, verify=False))
    csv = tmp_path / "targets.csv"
    export_csv(sd, csv)
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({
        "mode": "full_spectral",
        "unknowns": ["h", "c0"],
        "bounds": {"h": [-5, 5]},
        "max_iter": 40,
        "tol": 1e-9,
        "cpm_density": 96.5,
        "targets_file": str(csv),
    }))
    fs = load_fitspec(cfg, one_jump)
    assert fs.cpm_density == 96.5       # as FitSpec takes it, not truncated
    assert fs.mode == "full_spectral"
    assert fs.unknowns == ("h", "c0")
    assert fs.bounds["h"] == (-5, 5)
    assert np.allclose(fs.targets_lambda, sd.lambdas)
    assert np.allclose(fs.targets_gamma, sd.gammas)
    assert fs.max_iter == 40


@pytest.mark.parametrize("content, message", [
    (None, "cannot read fit spec"),
    ("{mode", "cannot read fit spec"),
    ({"mode": "full_spectral", "unknowns": ["c0"]}, "missing key 'targets_file'"),
    (["full_spectral"], "malformed fit spec"),
    ({"mode": "two_spectra", "unknowns": ["h"], "targets_file": "t.csv"},
     "two_spectra needs targets_file"),
    ({"mode": "full_spectral", "unknowns": ["c0"], "targets_file": ["t.csv", "t.csv"]},
     "full_spectral takes a single targets_file"),
], ids=["missing_file", "not_json", "missing_key", "not_an_object", "two_spectra_one_file",
        "full_two_files"])
def test_load_fitspec_config_errors(tmp_path, one_jump, content, message):
    cfg = tmp_path / "fit.json"
    if content is not None:
        cfg.write_text(content if isinstance(content, str) else json.dumps(content))
    with pytest.raises(ConfigParseError, match=message):
        load_fitspec(cfg, one_jump)


def test_load_fitspec_two_files(tmp_path, free):
    prim = spectral_data(free, eigenvalues(free, 5, verify=False))
    sec = spectral_data(free, eigenvalues(free, 5, verify=False,
                                          left="dirichlet"))
    p1, p2 = tmp_path / "prim.csv", tmp_path / "sec.csv"
    export_csv(prim, p1)
    export_csv(sec, p2)
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({
        "mode": "two_spectra",
        "unknowns": ["h", "H"],
        "targets_file": [str(p1), str(p2)],
    }))
    fs = load_fitspec(cfg, free)
    assert np.allclose(fs.targets_mu, sec.lambdas)


def test_raise_on_failure(one_jump):
    fs = _full_spec(one_jump, 6, unknowns=("h", "H"), max_iter=1)
    with pytest.raises(NonconvergenceError) as ei:
        fit(fs, initial_guess=np.array([3.0, -3.0]), raise_on_failure=True)
    assert ei.value.result.converged is False


def _jacobian_case(name):
    """A fit spec whose targets come from the template, and a point off it."""
    if name == "robin_jump":
        p = validate(ProblemSpec(constant_potential(0.5), RobinBC(0.3, -0.2),
                                 (JumpCondition(PI / 3, 2.0, 1.0, 0.5),)))
        fs = _full_spec(p, 10, unknowns=("h", "H", "a0", "c0"))
    elif name == "eigenparameter":
        p = validate(ProblemSpec(constant_potential(0.2),
                                 EigenparameterBC(0.1, 0.5, 1.5, 1.0, 2.0, 0.8),
                                 (JumpCondition(1.2, 1.5, 1.0, 0.4),)))
        fs = _full_spec(p, 10, unknowns=("h1", "H2", "H3", "c0"))
    elif name == "two_spectra":
        p = validate(ProblemSpec(
            PiecewisePolynomial(coefficients=((0.2, -0.3, 0.1, 0.05),)),
            RobinBC(0.3, -0.2)))
        fs = FitSpec(mode="two_spectra", template=p, unknowns=("h", "H", "q0"),
                     targets_lambda=tuple(eigenvalues(p, 10, verify=False).lambdas),
                     targets_mu=tuple(eigenvalues(p, 10, verify=False,
                                                  left="dirichlet").lambdas))
    else:
        p = validate(ProblemSpec(
            PiecewisePolynomial(coefficients=((0.25, -0.1, 0.2, 0.0),
                                              (0.1, 0.3, -0.2, 0.08)),
                                breakpoints=(PI / 2,)),
            RobinBC(0.2, -0.4)))
        fs = FitSpec(mode="half_inverse", template=p, unknowns=("H", "q1"),
                     targets_lambda=tuple(eigenvalues(p, 12, verify=False).lambdas))
    x = pack_parameters(fs)
    return fs, x + 0.03 * np.cos(np.arange(x.size))


@pytest.mark.parametrize("name", ["robin_jump", "eigenparameter",
                                  "two_spectra", "half_inverse"])
def test_jacobian_matches_central_differences(name):
    fs, x = _jacobian_case(name)
    fwd = {}
    r = residuals(fs, x, _forward=fwd)
    assert np.all(r != FLAG_RESIDUAL)
    jac = inverse._jacobian(fs, x, fwd["lams"], fwd["mus"])
    ref = np.empty_like(jac)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = 1e-5 * max(1.0, abs(x[j]))
        ref[:, j] = (residuals(fs, x + e) - residuals(fs, x - e)) / (2 * e[j])
    assert np.max(np.abs(jac - ref)) <= 1e-6 * np.max(np.abs(ref))


@pytest.mark.parametrize("mode", ["full_spectral", "two_spectra"])
def test_fit_jacobian_needs_no_eigenvalue_solve(monkeypatch, one_jump, mode):
    if mode == "full_spectral":
        fs = _full_spec(one_jump, 10, unknowns=("h", "H", "c0"))
    else:
        fs = FitSpec(mode="two_spectra", template=one_jump, unknowns=("h", "H"),
                     targets_lambda=tuple(eigenvalues(one_jump, 10).lambdas),
                     targets_mu=tuple(eigenvalues(one_jump, 10,
                                                  left="dirichlet").lambdas))
    calls = []
    locate = inverse._locate
    monkeypatch.setattr(inverse, "_locate",
                        lambda *a, **k: calls.append(1) or locate(*a, **k))
    x = pack_parameters(fs)
    result = fit(fs, initial_guess=x + 0.1 * np.cos(np.arange(x.size)))
    assert result.converged
    assert len(calls) == result.nfev * (2 if mode == "two_spectra" else 1)


def test_fit_from_flagged_start_ends_unconverged():
    # a0 = 0 is a singular jump: every residual there is flagged, and the
    # Jacobian must not try to rebuild the problem from it
    p = validate(ProblemSpec(constant_potential(0.0), RobinBC(0.7, -0.4),
                             (JumpCondition(PI / 2, 2.0, 0.5, 0.35),)))
    fs = _full_spec(p, 30, unknowns=("a0",))
    result = fit(fs, initial_guess=[0.0])
    assert not result.converged
    assert np.all(result.residual == FLAG_RESIDUAL)
    with pytest.raises(NonconvergenceError):
        fit(fs, initial_guess=[0.0], raise_on_failure=True)


def test_fit_stops_at_flagged_start(monkeypatch):
    # one evaluation at a flagged start shows that there is nothing to fit
    p = validate(ProblemSpec(constant_potential(0.0), RobinBC(0.7, -0.4),
                             (JumpCondition(PI / 2, 2.0, 0.5, 0.35),)))
    fs = _full_spec(p, 30, unknowns=("a0",))
    calls = []
    res = inverse.residuals
    monkeypatch.setattr(inverse, "residuals",
                        lambda *a, **k: calls.append(1) or res(*a, **k))
    result = fit(fs, initial_guess=[0.0])
    assert (result.nfev, len(calls)) == (1, 1)
    assert not result.converged
    assert "forward solve failed" in result.message
    assert np.array_equal(result.params, [0.0])


def test_import_leaves_optimizer_unloaded():
    # scipy.optimize is imported by fit() alone, not by ``import jumpsl``
    src = str(Path(jumpsl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, jumpsl, jumpsl.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_fit_checks_initial_guess_length(one_jump):
    fs = _full_spec(one_jump, 6, unknowns=("h", "H", "c0"))
    for guess in ([0.3], [0.3, 0.3], [0.3] * 4, 0.3):
        with pytest.raises(MismatchError, match="expected 3"):
            fit(fs, initial_guess=guess)


def _shifted(fs, x):
    """The Jacobian's perturbed problems at x, and x's own problem."""
    steps = inverse._FD_STEP * np.maximum(1.0, np.abs(x))
    return ([unpack_parameters(fs, x + sign * e)
             for sign in (1.0, -1.0) for e in np.diag(steps)],
            unpack_parameters(fs, x))


def _rows(walk):
    """The problem rows of a walk's stack, 0 for a single problem."""
    return 0 if isinstance(walk, ValidatedProblem) else len(walk.w_end)


@pytest.mark.parametrize("case", ["jump_mixed_q", "eigenparameter"])
def test_stacked_rows_bit_identical_to_single_problems(monkeypatch, case):
    if case == "jump_mixed_q":
        # q0 = 0.5 + 0 t is constant; moving its slope makes it linear, so
        # the rows need two cell layouts
        p = validate(ProblemSpec(
            PiecewisePolynomial(coefficients=((0.5, 0.0), (0.1, 0.3, -0.2)),
                                breakpoints=(PI / 2,)),
            RobinBC(0.3, -0.2), (JumpCondition(1.0, 2.0, 0.5, 0.4),)))
        fs = FitSpec(mode="full_spectral", template=p,
                     unknowns=("h", "H", "a0", "c0", "q0"),
                     targets_lambda=(1.0, 4.0, 9.0), targets_gamma=(0.5,) * 3)
        lefts, layouts = ("spec", "dirichlet"), 2
    else:
        fs, _ = _jacobian_case("eigenparameter")
        lefts, layouts = ("spec",), 1
    x = pack_parameters(fs)
    x[:-1] += 0.01      # the last slot, q0's slope, stays 0 at x
    shifted, base = _shifted(fs, x)
    problems = shifted + [base] * 2
    lam = np.linspace(-3.0, 150.0, 25) + 0.1 * np.arange(len(problems))[:, None]
    walks = []
    walk = inverse_spectrum.propagate_endpoints_batch
    monkeypatch.setattr(inverse_spectrum, "propagate_endpoints_batch",
                        lambda *a, **k: walks.append(a[0]) or walk(*a, **k))
    for left in lefts:
        walks.clear()
        delta, gamma = inverse_spectrum._stacked(problems, lam, left, 96, norm=True)
        assert len(walks) == layouts and sum(map(_rows, walks)) == len(problems)
        for p_r, l_r, d_r, g_r in zip(problems, lam, delta, gamma):
            assert np.array_equal(d_r, delta_batch(p_r, l_r, left=left, cpm_density=96))
            if left == "spec":
                assert np.array_equal(
                    g_r, inverse_spectrum._norming_data(p_r, l_r, 96)[0])
        assert np.array_equal(
            inverse_spectrum._stacked(problems, lam, left, 96), delta)


@pytest.mark.parametrize("name", ["robin_jump", "eigenparameter",
                                  "two_spectra", "half_inverse"])
def test_jacobian_propagates_stacks_only(monkeypatch, name):
    # at most two propagations, each over a stack of problems: Delta' at
    # the roots comes from the residual, not from a walk of the base problem
    fs, x = _jacobian_case(name)
    fwd = {}
    residuals(fs, x, _forward=fwd)
    walks = []
    walk = inverse_spectrum.propagate_endpoints_batch
    monkeypatch.setattr(inverse_spectrum, "propagate_endpoints_batch",
                        lambda *a, **k: walks.append(a[0]) or walk(*a, **k))
    jac = inverse._jacobian(fs, x, fwd["lams"], fwd["mus"])
    assert np.all(np.isfinite(jac)) and np.any(jac != 0.0)
    assert 1 <= len(walks) <= 2
    assert all(_rows(w) >= 2 * x.size for w in walks)


def test_fit_warm_start_changes_no_bit(monkeypatch):
    # the benchmark's half-inverse fit, its residuals' roots located from
    # the last Jacobian's predictions and from a cold start: the seeds save
    # sweeps and change no bit
    p = validate(ProblemSpec(
        PiecewisePolynomial(coefficients=((0.25, -0.1, 0.2, 0.0),
                                          (0.1, 0.3, -0.2, 0.08)),
                            breakpoints=(PI / 2,)),
        RobinBC(0.2, -0.4)))
    fs = FitSpec(mode="half_inverse", template=p, unknowns=("H", "q1"),
                 targets_lambda=tuple(eigenvalues(p, 40, verify=False,
                                                  cpm_density=96).lambdas),
                 tol=1e-12, cpm_density=96)
    start = pack_parameters(fs) + np.random.default_rng(3).uniform(-0.05, 0.05, 5)
    seeded, sweeps = [], []
    locate, sweep = inverse._locate, inverse_spectrum._sweep
    monkeypatch.setattr(inverse_spectrum, "_sweep", lambda *a: sweeps.append(1) or sweep(*a))
    monkeypatch.setattr(inverse, "_locate", lambda *a: seeded.append(a[4] is not None)
                        or locate(*a))
    on = fit(fs, initial_guess=start)
    assert on.converged and seeded[0] is False and all(seeded[1:]) and len(seeded) > 2
    warm = len(sweeps)
    sweeps.clear()
    monkeypatch.setattr(inverse, "_locate", lambda *a: locate(*a[:4]))
    off = fit(fs, initial_guess=start)
    assert len(sweeps) > warm
    assert np.array_equal(on.params, off.params)
    assert np.array_equal(on.residual, off.residual)
    assert on.nfev == off.nfev
