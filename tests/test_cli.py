import json
import math

import numpy as np
import pytest

from jumpsl import save_problem
from jumpsl.cli import main

PI = math.pi


@pytest.fixture()
def free_cfg(tmp_path, free):
    path = tmp_path / "free.json"
    save_problem(free, path)
    return str(path)


@pytest.fixture()
def one_jump_cfg(tmp_path, one_jump):
    path = tmp_path / "one_jump.json"
    save_problem(one_jump, path)
    return str(path)


def test_eigs_csv(free_cfg, tmp_path, capsys):
    out = tmp_path / "eigs.csv"
    assert main(["eigs", free_cfg, "--count", "5", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,lambda,rho")
    lams = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(lams, [0, 1, 4, 9, 16], atol=1e-8)


def test_eigs_stdout_and_determinism(free_cfg, capsys):
    assert main(["eigs", free_cfg, "--count", "4", "--no-verify"]) == 0
    first = capsys.readouterr().out
    assert main(["eigs", free_cfg, "--count", "4", "--no-verify"]) == 0
    assert capsys.readouterr().out == first
    assert first.count("\n") == 5
    # --no-verify is accepted and ignored: every spectrum is index-verified
    assert main(["eigs", free_cfg, "--count", "4"]) == 0
    assert capsys.readouterr().out == first
    assert first.count("index-verified") == 4


def test_eigs_stdout_matches_output_file(one_jump_cfg, tmp_path, capsys):
    out = tmp_path / "eigs.csv"
    assert main(["eigs", one_jump_cfg, "--count", "5"]) == 0
    stdout = capsys.readouterr().out
    assert main(["eigs", one_jump_cfg, "--count", "5", "-o", str(out)]) == 0
    assert out.read_bytes() == stdout.encode()


def test_spectral_data_json(free_cfg, tmp_path):
    out = tmp_path / "sd.json"
    assert main(["spectral-data", free_cfg, "--count", "3", "--json",
                 "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    recs = data["records"] if isinstance(data, dict) else data
    assert len(recs) == 3


def test_weyl_csv(free_cfg, tmp_path):
    out = tmp_path / "weyl.csv"
    assert main(["weyl", free_cfg, "--grid=-5:-1:3", "--imag", "0.5",
                 "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re_lambda,im_lambda,re_m,im_m"
    assert len(lines) == 4
    # Herglotz: Im m > 0 in the upper half plane
    assert all(float(line.split(",")[3]) > 0 for line in lines[1:])


def test_weyl_bad_grid(free_cfg, capsys):
    assert main(["weyl", free_cfg, "--grid", "nonsense"]) == 1
    assert "ConfigParseError" in capsys.readouterr().err


def test_asym_check_ratio(one_jump_cfg, tmp_path):
    out = tmp_path / "asym.csv"
    assert main(["asym-check", one_jump_cfg, "--rho", "40.5,80.5",
                 "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rho,exact_delta,asymptotic_delta,scaled_error"
    ratio_line = [l for l in lines if l.startswith("# scaled_error_ratio")]
    assert len(ratio_line) == 1
    assert float(ratio_line[0].split(",")[1]) < 1.2


def test_gauge_output(one_jump_cfg, tmp_path):
    out = tmp_path / "gauge.json"
    assert main(["gauge", one_jump_cfg, "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    jump = data["jumps"][0]
    assert jump["a"] * jump["b"] == pytest.approx(1.0)
    assert "a_i b_i = 1" in data["note"]


def test_two_spectra_cmd(free_cfg, tmp_path):
    out = tmp_path / "ts.csv"
    assert main(["two-spectra", free_cfg, "--count", "40",
                 "--lam=-1,-4", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,m_two_spectra,m_direct"
    for line in lines[1:]:
        _, approx, direct = (float(v) for v in line.split(","))
        assert approx == pytest.approx(direct, rel=1e-10)


def test_two_spectra_cmd_eigenparameter(tmp_path, eig_desk, capsys):
    cfg = tmp_path / "desk.json"
    save_problem(eig_desk, cfg)
    assert main(["two-spectra", str(cfg), "--count", "10", "--lam=-1"]) == 1
    assert "VariantError" in capsys.readouterr().err


def test_contour_count_cmd(free_cfg, capsys):
    assert main(["contour-count", free_cfg, "--rect=-0.5,8.5,-1,1"]) == 0
    assert capsys.readouterr().out.strip() == "zeros_inside,3"
    assert main(["contour-count", free_cfg, "--rect=1,2,3"]) == 1
    assert "ConfigParseError: --rect expects" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["asym-check", "--rho", "nan"], ["asym-check", "--rho", "40.5,inf"],
    ["contour-count", "--rect", "nan,1,-1,1"], ["contour-count", "--rect=-inf,1,-1,1"],
], ids=["rho_nan", "rho_inf", "rect_nan", "rect_inf"])
def test_non_finite_argument_is_domain_error(one_jump_cfg, args, capsys):
    assert main([args[0], one_jump_cfg, *args[1:]]) == 1
    err = capsys.readouterr().err
    assert "DomainError" in err and "Traceback" not in err


def test_fit_cmd(tmp_path, one_jump, one_jump_cfg):
    from jumpsl import eigenvalues, export_csv, spectral_data
    sd = spectral_data(one_jump, eigenvalues(one_jump, 6, verify=False))
    targets = tmp_path / "targets.csv"
    export_csv(sd, targets)
    fitspec = tmp_path / "fit.json"
    fitspec.write_text(json.dumps({
        "mode": "full_spectral",
        "unknowns": ["c0"],
        "targets_file": str(targets),
        "max_iter": 30,
    }))
    out = tmp_path / "report.json"
    assert main(["fit", one_jump_cfg, str(fitspec), "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["converged"] is True
    assert report["parameters"]["c0"] == pytest.approx(
        one_jump.jumps[0].c, abs=1e-6)


def test_fit_cmd_unconverged(tmp_path, one_jump, capsys):
    # one evaluation cannot move c0 from 0.9 to the targets' 0: exit 2, report written
    from jumpsl import (JumpCondition, ProblemSpec, eigenvalues, export_csv, spectral_data,
                        validate)
    targets, cfg = tmp_path / "targets.csv", tmp_path / "start.json"
    export_csv(spectral_data(one_jump, eigenvalues(one_jump, 6, verify=False)), targets)
    save_problem(validate(ProblemSpec(one_jump.potential, one_jump.boundary,
                                      (JumpCondition(PI / 2, 2.0, 0.5, 0.9),))), cfg)
    fitspec = tmp_path / "fit.json"
    fitspec.write_text(json.dumps({"mode": "full_spectral", "unknowns": ["c0"],
                                   "targets_file": str(targets), "max_iter": 1}))
    out = tmp_path / "report.json"
    assert main(["fit", str(cfg), str(fitspec), "-o", str(out)]) == 2
    assert "NumericalError: fit did not converge" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["converged"] is False and report["nfev"] == 1
    assert report["parameters"] == {"c0": 0.9}


@pytest.mark.parametrize("text", ["", "n,rho\n0,0\n", "n,lambda,rho\n0,abc,0\n"],
                         ids=["empty", "no_lambda", "bad_lambda"])
def test_fit_malformed_targets(tmp_path, one_jump_cfg, text, capsys):
    targets = tmp_path / "targets.csv"
    targets.write_text(text)
    fitspec = tmp_path / "fit.json"
    fitspec.write_text(json.dumps({
        "mode": "full_spectral",
        "unknowns": ["c0"],
        "targets_file": str(targets),
    }))
    assert main(["fit", one_jump_cfg, str(fitspec)]) == 1
    err = capsys.readouterr().err
    assert "ConfigParseError" in err and str(targets) in err


@pytest.mark.parametrize("section, key, value", [
    ("potential", "coefficients", [["abc"]]),
    ("jumps", "d", "x"),
    ("boundary", "h", "zz"),
], ids=["coefficient", "jump_d", "robin_h"])
def test_eigs_malformed_config_value(tmp_path, one_jump_cfg, section, key,
                                     value, capsys):
    with open(one_jump_cfg) as fh:
        data = json.load(fh)
    (data[section][0] if section == "jumps" else data[section])[key] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(data))
    assert main(["eigs", str(cfg), "--count", "3"]) == 1
    err = capsys.readouterr().err
    assert "ConfigParseError" in err and str(cfg) in err


@pytest.mark.parametrize("extra", [
    {"max_iter": "many"}, {"tol": "small"}, {"cpm_density": "x"},
    {"bounds": {"h": 3}}, {"unknowns": 5}, {"unknowns": "c0"},
    # FitSpec's own rejections, with no conversion on the way
    {"max_iter": 2.5}, {"max_iter": True}, {"tol": True}, {"cpm_density": True},
], ids=["max_iter", "tol", "cpm_density", "bounds", "unknowns", "unknowns_string",
        "max_iter_fraction", "max_iter_bool", "tol_bool", "cpm_density_bool"])
def test_fit_malformed_spec_value(tmp_path, one_jump, one_jump_cfg, extra,
                                  capsys):
    from jumpsl import eigenvalues, export_csv, spectral_data
    targets = tmp_path / "targets.csv"
    export_csv(spectral_data(one_jump, eigenvalues(one_jump, 4, verify=False)),
               targets)
    fitspec = tmp_path / "fit.json"
    fitspec.write_text(json.dumps({
        "mode": "full_spectral", "unknowns": ["c0"],
        "targets_file": str(targets), **extra}))
    assert main(["fit", one_jump_cfg, str(fitspec)]) == 1
    err = capsys.readouterr().err
    assert "ConfigParseError" in err and str(fitspec) in err


@pytest.mark.parametrize("extra", [
    {"bounds": {"c0": [1.0, 0.5]}}, {"tol": 0}, {"max_iter": 0},
], ids=["bounds", "tol", "max_iter"])
def test_fit_rejects_unusable_setting(tmp_path, one_jump, one_jump_cfg, extra,
                                      capsys):
    # each reached scipy as a bare ValueError, which escaped main
    from jumpsl import eigenvalues, export_csv, spectral_data
    targets = tmp_path / "targets.csv"
    export_csv(spectral_data(one_jump, eigenvalues(one_jump, 4, verify=False)),
               targets)
    fitspec = tmp_path / "fit.json"
    fitspec.write_text(json.dumps({
        "mode": "full_spectral", "unknowns": ["c0"],
        "targets_file": str(targets), **extra}))
    assert main(["fit", one_jump_cfg, str(fitspec)]) == 1
    err = capsys.readouterr().err
    assert "ValidationError" in err and "Traceback" not in err


def test_exit_codes(tmp_path, capsys):
    assert main(["eigs", str(tmp_path / "missing.json"), "--count", "2"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["eigs", str(bad), "--count", "2"]) == 1
    assert "ConfigParseError" in capsys.readouterr().err
    assert main(["no-such-subcommand"]) == 1


def test_fit_cmd_lists_potential_coefficients(tmp_path):
    # a q<i> token frees every coefficient of its piece; the report keeps them all
    from jumpsl import (PiecewisePolynomial, ProblemSpec, RobinBC, eigenvalues,
                        export_csv, validate)
    truth = validate(ProblemSpec(
        PiecewisePolynomial(coefficients=((0.25, -0.1, 0.2, 0.0),
                                          (0.1, 0.3, -0.2, 0.08)),
                            breakpoints=(PI / 2,)),
        RobinBC(0.2, -0.4)))
    cfg, targets = tmp_path / "half.json", tmp_path / "targets.csv"
    save_problem(truth, cfg)
    export_csv(eigenvalues(truth, 12, verify=False), targets)
    fitspec = tmp_path / "fit.json"
    fitspec.write_text(json.dumps({"mode": "half_inverse", "unknowns": ["H", "q1"],
                                   "targets_file": str(targets)}))
    out = tmp_path / "report.json"
    assert main(["fit", str(cfg), str(fitspec), "-o", str(out)]) == 0
    params = json.loads(out.read_text())["parameters"]
    assert params["H"] == pytest.approx(-0.4, abs=1e-8)
    assert params["q1"] == pytest.approx([0.1, 0.3, -0.2, 0.08], abs=1e-6)


def test_fit_targets_with_index_gap(tmp_path, one_jump_cfg, capsys):
    targets = tmp_path / "targets.csv"
    targets.write_text("n,lambda,rho,gamma\n0,0,0,0.3\n2,4,2,0.6\n")
    fitspec = tmp_path / "fit.json"
    fitspec.write_text(json.dumps({"mode": "full_spectral", "unknowns": ["c0"],
                                   "targets_file": str(targets)}))
    assert main(["fit", one_jump_cfg, str(fitspec)]) == 1
    err = capsys.readouterr().err
    assert "ConfigParseError" in err and str(targets) in err
