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
        assert approx == pytest.approx(direct, abs=5e-2)


def test_contour_count_cmd(free_cfg, capsys):
    assert main(["contour-count", free_cfg, "--rect=-0.5,8.5,-1,1"]) == 0
    assert capsys.readouterr().out.strip() == "zeros_inside,3"


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


def test_exit_codes(tmp_path, capsys):
    assert main(["eigs", str(tmp_path / "missing.json"), "--count", "2"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["eigs", str(bad), "--count", "2"]) == 1
    assert "ConfigParseError" in capsys.readouterr().err
    assert main(["no-such-subcommand"]) == 1
