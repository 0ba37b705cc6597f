import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jumpsl import (
    FitSpec,
    MismatchError,
    MissedEigenvalueError,
    NonconvergenceError,
    ValidationError,
    eigenvalues,
    export_csv,
    fit,
    load_fitspec,
    pack_parameters,
    residuals,
    spectral_data,
    unpack_parameters,
)
import jumpsl
from jumpsl import inverse
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


def test_validation_rejections(free, one_jump, generic):
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


def test_pack_unpack_round_trip(generic):
    fs = FitSpec(mode="full_spectral", template=generic,
                 unknowns=("h", "H", "a0", "c0", "q0"),
                 targets_lambda=(1.0,), targets_gamma=(0.5,))
    x = pack_parameters(fs)
    rebuilt = unpack_parameters(fs, x)
    assert np.allclose(pack_parameters(fs, rebuilt), x)
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
        "targets_file": str(csv),
    }))
    fs = load_fitspec(cfg, one_jump)
    assert fs.mode == "full_spectral"
    assert fs.unknowns == ("h", "c0")
    assert fs.bounds["h"] == (-5, 5)
    assert np.allclose(fs.targets_lambda, sd.lambdas)
    assert np.allclose(fs.targets_gamma, sd.gammas)
    assert fs.max_iter == 40


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


def test_import_leaves_optimizer_unloaded():
    # scipy.optimize is imported by fit() alone, not by ``import jumpsl``
    src = str(Path(jumpsl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, jumpsl, jumpsl.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
