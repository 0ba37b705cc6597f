import json
import math

import numpy as np
import pytest

from jumpsl import (
    ContourTooCloseError,
    EigenparameterBC,
    PiecewisePolynomial,
    ProblemSpec,
    RobinBC,
    SampledGrid,
    SpectralData,
    ToleranceError,
    char_delta,
    char_delta_derivative,
    char_delta_forms,
    constant_potential,
    count_zeros_contour,
    delta_batch,
    eigenvalues,
    export_csv,
    export_json,
    load_csv,
    spectral_data,
    validate,
)
from jumpsl import propagation, spectrum
from jumpsl.eigenparameter import boundary_functionals
from jumpsl.propagation import SpectralPoint, fundamental_solution
from jumpsl.quadrature import weighted_norm_sq
from jumpsl.spectrum import EigenRecord, _polish_roots, lambda_floor

PI = math.pi
INV_PI = 0.3183098861837907       # 1/pi
TWO_OVER_PI = 0.6366197723675814  # 2/pi


def test_free_delta_closed_form(free):
    for lam in (2.5, -3.0, 0.3, 1.7 + 0.4j):
        rho = np.sqrt(complex(lam))
        assert char_delta(free, lam) == pytest.approx(
            complex(rho * np.sin(rho * PI)), rel=1e-12)


def test_one_jump_delta_closed_form(one_jump):
    rng = np.random.default_rng(11)
    lams = np.concatenate([rng.uniform(-20, 60, 10),
                           rng.uniform(-20, 60, 10) + 1j * rng.uniform(-5, 5, 10)])
    for lam in lams:
        rho = np.sqrt(complex(lam))
        expect = 1.25 * rho * np.sin(rho * PI)
        assert char_delta(one_jump, complex(lam)) == pytest.approx(
            complex(expect), rel=1e-8)


def test_free_spectrum_exact(free):
    sd = spectral_data(free, eigenvalues(free, 20))
    assert np.allclose(sd.lambdas, np.arange(20) ** 2, atol=1e-8)
    assert sd.records[0].gamma == pytest.approx(INV_PI, abs=1e-8)
    assert np.allclose(sd.gammas[1:], TWO_OVER_PI, atol=1e-8)
    signs = np.sign(sd.betas)
    assert np.array_equal(signs, (-1.0) ** np.arange(20))
    assert np.allclose(np.abs(sd.betas), 1.0, atol=1e-8)


def test_one_jump_spectrum(one_jump):
    sd = eigenvalues(one_jump, 10)
    assert np.allclose(sd.lambdas, np.arange(10) ** 2, atol=1e-8)
    assert all(r.certification == "contour-verified" for r in sd.records)


def test_delta_forms_agree(generic, eig_desk):
    for p in (generic, eig_desk):
        for lam in (3.7 + 0.5j, -2.0, 12.3):
            d1, d2, d3 = char_delta_forms(p, lam)
            scale = max(1.0, abs(d1))
            assert abs(d1 - d2) < 1e-9 * scale
            assert abs(d1 - d3) < 1e-9 * scale


def test_derivative_identity(free, one_jump, generic, eig_desk):
    # dDelta/dlambda(lambda_n) = +beta_n/gamma_n, one global sign
    for p in (free, one_jump, generic, eig_desk):
        sd = spectral_data(p, eigenvalues(p, 10, verify=False))
        for r in sd.records:
            dd = char_delta_derivative(p, r.lam).real
            assert dd == pytest.approx(r.beta / r.gamma, rel=1e-6)


def test_derivative_matches_finite_difference(generic):
    lam = 5.234
    dd = char_delta_derivative(generic, lam)
    eps = 1e-6
    fd = (char_delta(generic, lam + eps) - char_delta(generic, lam - eps)) / (2 * eps)
    assert dd == pytest.approx(fd, rel=1e-7)


def test_negative_eigenvalue_found():
    # h = H = -2 admits the exact bound state y = e^{2x}, lambda = -4
    p = validate(ProblemSpec(constant_potential(0.0), RobinBC(-2.0, -2.0)))
    sd = eigenvalues(p, 3)
    assert sd.lambdas[0] == pytest.approx(-4.0, abs=1e-9)
    assert lambda_floor(p) < sd.lambdas[0]
    assert char_delta(p, sd.lambdas[0]).real == pytest.approx(0.0, abs=1e-7)


def test_scan_floor_respects_jumps(two_jump):
    floor = lambda_floor(two_jump)
    total_c = sum(abs(j.c) for j in two_jump.jumps)
    assert floor <= -(1.0 + 0.5 + total_c) ** 2 * 0.99


def test_contour_count_free(free):
    assert count_zeros_contour(free, (-0.5, 10.0, -1.0, 1.0)) == 4
    assert count_zeros_contour(free, (10.0, 30.0, -1.0, 1.0)) == 2
    assert count_zeros_contour(free, (40.0, 60.0, -1.0, 1.0)) == 1


def test_contour_too_close(free):
    # eigenvalue lambda = 1 sits on the contour edge
    with pytest.raises(ContourTooCloseError):
        count_zeros_contour(free, (1.0, 10.0, -1.0, 1.0))


def test_delta_batch_vectorized(generic):
    lams = np.array([1.0, 2.0 + 1.0j, -4.0])
    batch = delta_batch(generic, lams)
    for i, lam in enumerate(lams):
        assert batch[i] == pytest.approx(char_delta(generic, complex(lam)),
                                         rel=1e-12)


def test_csv_roundtrip(tmp_path, free):
    sd = spectral_data(free, eigenvalues(free, 5))
    path = tmp_path / "spec.csv"
    export_csv(sd, path)
    text = path.read_text()
    header = text.splitlines()[0]
    assert header == "n,lambda,rho,gamma,beta,certification"
    back = load_csv(path)
    assert np.allclose(back.lambdas, sd.lambdas, rtol=0, atol=0)
    assert np.allclose(back.gammas, sd.gammas, rtol=0, atol=0)
    assert back.records[2].certification == "contour-verified"


def test_csv_17_digits(tmp_path, free):
    records = (EigenRecord(0, 1.0 / 3.0, complex(math.sqrt(1.0 / 3.0)),
                           2.0 / 3.0, -1.0, "bracketed"),)
    sd = SpectralData(records=records, fingerprint="x", variant="robin")
    path = tmp_path / "one.csv"
    export_csv(sd, path)
    back = load_csv(path)
    assert back.records[0].lam == 1.0 / 3.0          # bit-exact round trip
    assert back.records[0].gamma == 2.0 / 3.0


def test_csv_eigenparameter_variant_column(tmp_path, eig_desk):
    sd = eigenvalues(eig_desk, 3, verify=False)
    path = tmp_path / "eig.csv"
    export_csv(sd, path)
    header = path.read_text().splitlines()[0]
    assert header.endswith(",variant")
    back = load_csv(path)
    assert back.variant == "eigenparameter"


def test_json_export(tmp_path, free):
    sd = spectral_data(free, eigenvalues(free, 3))
    path = tmp_path / "spec.json"
    export_json(sd, path)
    data = json.loads(path.read_text())
    assert data["variant"] == "robin"
    assert len(data["records"]) == 3
    assert data["records"][1]["lambda"] == pytest.approx(1.0, abs=1e-10)


def test_eigenvalue_residual_tolerance(free):
    # located roots satisfy |Delta| ~ 0 to safeguarded-Newton precision
    sd = eigenvalues(free, 8)
    for r in sd.records[1:]:
        rho = math.sqrt(r.lam)
        assert abs(rho - round(rho)) < 1e-10


def test_deterministic_outputs(generic):
    a = eigenvalues(generic, 6).lambdas
    b = eigenvalues(generic, 6).lambdas
    assert np.array_equal(a, b)


def _counted(fdf, calls):
    def wrapped(x):
        calls.append(len(x))
        return fdf(x)
    return wrapped


def test_polish_survives_newton_overshoot():
    # from each midpoint, a plain Newton step on atan(x - 3) lands far
    # outside its bracket (near -418 from 20); the safeguard falls back to
    # bisection and every bracket still converges to the root
    lo, hi = np.array([0.0, -30.0, 2.0]), np.array([40.0, 10.0, 100.0])

    def fdf(x):
        return np.arctan(x - 3.0), 1.0 / (1.0 + (x - 3.0) ** 2)

    f, df = fdf(0.5 * (lo + hi))
    xn = 0.5 * (lo + hi) - f / df
    assert np.all((xn < lo) | (xn > hi))
    calls = []
    x, dfx = _polish_roots(_counted(fdf, calls), lo, hi, np.arctan(lo - 3.0))
    assert np.allclose(x, 3.0, rtol=0, atol=1e-15)
    assert np.allclose(dfx, 1.0, rtol=1e-14)
    assert len(calls) < 20


def test_polish_exact_zero_at_midpoint():
    calls = []
    x, dfx = _polish_roots(_counted(lambda x: (x - 0.5, 2.0 * np.ones_like(x)), calls),
                           np.array([0.0]), np.array([1.0]), np.array([-0.5]))
    assert x[0] == 0.5 and dfx[0] == 2.0
    assert calls == [1]


def test_polish_iteration_cap():
    # a vanishing derivative forces bisection on every step, and 64
    # halvings cannot shrink a bracket of width 2e300 to 4 eps
    def fdf(x):
        return np.sign(x - 0.3), np.zeros_like(x)

    with pytest.raises(ToleranceError):
        _polish_roots(fdf, np.array([-1e300]), np.array([1e300]), np.array([-1.0]))


def test_one_jump_relative_accuracy(one_jump):
    n = np.arange(1000)
    sd = spectral_data(one_jump, eigenvalues(one_jump, 1000))
    assert np.max(np.abs(sd.lambdas - n * n) / np.maximum(1.0, n * n)) <= 2e-15
    # gamma_0 = 2/(5 pi), then 16/(5 pi) at odd n and 4/(5 pi) at even n
    ref = np.where(n % 2 == 1, 16.0, 4.0) / (5.0 * PI)
    ref[0] = 2.0 / (5.0 * PI)
    assert np.max(np.abs(sd.gammas / ref - 1.0)) <= 2e-15


def _quadrature_gammas(p, lams):
    """Reference gammas: quadrature of the dense phi plus boundary terms."""
    bc = p.boundary
    out = []
    for lam in lams:
        phi = fundamental_solution(p, "phi", SpectralPoint.from_lambda(lam))
        norm2 = weighted_norm_sq(p, phi)
        if p.variant == "eigenparameter":
            bf = boundary_functionals(p, phi)
            norm2 += (p.weights[0] / bc.r1) * bf.r1.real ** 2
            norm2 += (p.w_end / bc.r2) * bf.r2.real ** 2
        out.append(1.0 / norm2)
    return np.array(out)


@pytest.mark.parametrize("name, count, bound", [
    ("four_jump", 400, 1e-12),
    ("eig_desk", 400, 1e-12),    # covers n = 100, 119, 393
    ("cubic", 30, 1e-9),
])
def test_gamma_matches_quadrature(request, name, count, bound):
    p = request.getfixturevalue(name)
    sd = spectral_data(p, eigenvalues(p, count, verify=False))
    ref = _quadrature_gammas(p, sd.lambdas)
    assert np.max(np.abs(sd.gammas / ref - 1.0)) <= bound


def test_spectral_data_call_count(monkeypatch, four_jump):
    eigs = eigenvalues(four_jump, 400, verify=False)
    calls = {"batch": 0, "dense": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    batch = counting("batch", propagation.propagate_endpoints_batch)
    dense = counting("dense", propagation.fundamental_solution)
    for mod in (spectrum, propagation):
        monkeypatch.setattr(mod, "propagate_endpoints_batch", batch)
        monkeypatch.setattr(mod, "fundamental_solution", dense)
    sd = spectral_data(four_jump, eigs)
    assert len(sd) == 400
    assert calls == {"batch": 1, "dense": 0}


@pytest.mark.parametrize("name", ["eig_desk", "four_jump"])
def test_beta_matches_derivative_identity(request, name):
    # Delta'(lambda_n) gamma_n / beta_n = 1, with Delta' from the
    # variational system and beta_n read off at pi
    p = request.getfixturevalue(name)
    sd = spectral_data(p, eigenvalues(p, 400, verify=False))
    _, dd = delta_batch(p, sd.lambdas, derivative=True)
    assert np.max(np.abs(dd.real * sd.gammas / sd.betas - 1.0)) <= 1e-11


def test_beta_next_to_psi_zero():
    # q = 0, left data (0, 0, 1): phi(pi) = lam cos(rho pi) + sin(rho pi)/rho.
    # With H2 just above a zero lam* of phi(pi), an eigenvalue sits within
    # ~1e-12 of H2, where psi(pi) = H2 - lam nearly vanishes and psi/phi at
    # pi loses its digits (1e-3 here); psi'/phi' keeps them
    from scipy.optimize import brentq

    lam_star = brentq(lambda l: l * math.cos(math.sqrt(l) * PI)
                      + math.sin(math.sqrt(l) * PI) / math.sqrt(l), 3.0, 9.0,
                      xtol=1e-15)
    p = validate(ProblemSpec(constant_potential(0.0), EigenparameterBC(
        0.0, 0.0, 1.0, 1.0, lam_star + 1e-12, 1.0)))
    sd = spectral_data(p, eigenvalues(p, 10, verify=False))
    assert np.min(np.abs(sd.lambdas - lam_star)) < 1e-11
    _, dd = delta_batch(p, sd.lambdas, derivative=True)
    assert np.max(np.abs(dd.real * sd.gammas / sd.betas - 1.0)) <= 1e-11


def test_non_finite_beta_raises(monkeypatch, free):
    # phi(pi) = 0 with a positive norm: psi/phi cannot give beta
    def fake(problem, lam, *args, **kwargs):
        zero, one = np.zeros_like(lam), np.ones_like(lam)
        return zero, one, one, zero

    monkeypatch.setattr(spectrum, "propagate_endpoints_batch", fake)
    with pytest.raises(ToleranceError):
        spectral_data(free, [0.25])


def _sign_brackets_loop(s_grid, vals, fake):
    """Reference: the near-double-root scan as a loop over scan points."""
    av = np.abs(vals)
    parts = []
    for i in range(1, len(s_grid) - 1):
        if av[i] < av[i - 1] and av[i] < av[i + 1] \
                and vals[i - 1] * vals[i] > 0.0 and vals[i] * vals[i + 1] > 0.0 \
                and av[i] < 1e-3 * max(av[i - 1], av[i + 1]):
            lam = spectrum._scan_lambda(np.linspace(s_grid[i - 1], s_grid[i + 1], 65))
            f = fake(lam).real
            k = np.flatnonzero(f[:-1] * f[1:] < 0.0)
            parts.append((lam[k], lam[k + 1], f[k]))
    return tuple(np.concatenate(p) for p in zip(*parts))


def test_sign_brackets_split_close_pairs(monkeypatch):
    # two pairs of roots, each pair inside one coarse scan cell next to a
    # grid point, so |Delta| dips there without changing sign
    s_grid = np.arange(0.0, 5.0, 0.02)
    roots = [s_grid[100] ** 2 + 2e-4, s_grid[100] ** 2 + 6e-3,
             s_grid[180] ** 2 + 3e-4, s_grid[180] ** 2 + 1e-2]

    def fake(lam):
        return np.prod([np.asarray(lam, dtype=complex) - r for r in roots], axis=0)

    monkeypatch.setattr(spectrum, "delta_batch", lambda problem, lam, **kw: fake(lam))
    vals = fake(spectrum._scan_lambda(s_grid)).real
    assert not np.any(vals[:-1] * vals[1:] < 0.0)
    lo, hi, flo = spectrum._sign_brackets(None, s_grid, vals, "spec", 160)
    for got, want in zip((lo, hi, flo), _sign_brackets_loop(s_grid, vals, fake)):
        assert np.array_equal(got, want)
    assert len(lo) == 4
    for r in roots:
        assert np.sum((lo <= r) & (r <= hi)) == 1


def test_mathieu_reference():
    # q = 4 cos 2x with Neumann conditions: lambda_n = a_n(2) and, with
    # phi(0) = 1, gamma_n = 2 ce_n(0)^2 / pi (int_0^pi ce_n^2 = pi/2)
    from scipy.special import mathieu_a, mathieu_cem

    x = np.linspace(0.0, PI, 513)
    p = validate(ProblemSpec(SampledGrid(x, 4.0 * np.cos(2.0 * x), order=3),
                             RobinBC(0.0, 0.0)))
    sd = spectral_data(p, eigenvalues(p, 20))
    n = np.arange(20)
    ref_lam = np.array([mathieu_a(k, 2.0) for k in n])
    ref_gamma = np.array([2.0 * mathieu_cem(k, 2.0, 0.0)[0] ** 2 / PI for k in n])
    assert np.max(np.abs(sd.lambdas / ref_lam - 1.0)) <= 1e-8
    assert np.max(np.abs(sd.gammas / ref_gamma - 1.0)) <= 1e-8


def test_root_polish_call_count(monkeypatch):
    # the half-inverse truth problem of acceptance criterion 11
    pot = PiecewisePolynomial(
        coefficients=((0.25, -0.1, 0.2, 0.0), (0.1, 0.3, -0.2, 0.08)),
        breakpoints=(PI / 2,))
    p = validate(ProblemSpec(pot, RobinBC(0.2, -0.4)))
    calls = []
    original = spectrum.delta_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectrum, "delta_batch", counting)
    sd = eigenvalues(p, 40, verify=False, cpm_density=96)
    assert len(sd) == 40
    assert len(calls) <= 10


def test_spectral_data_reuses_eigenvalue_density(cubic, tmp_path):
    sd = spectrum.eigenvalues(cubic, 8, verify=False, cpm_density=96)
    assert sd.cpm_density == 96
    full = spectral_data(cubic, sd)
    assert full.cpm_density == 96
    gammas, betas = spectrum._norming_data(cubic, sd.lambdas, 96)
    assert np.array_equal(full.gammas, gammas)
    assert np.array_equal(full.betas, betas)
    # a plain sequence of eigenvalues takes the default density
    plain = spectral_data(cubic, list(sd.lambdas))
    assert plain.cpm_density == propagation.CPM_DENSITY
    gammas, _ = spectrum._norming_data(cubic, sd.lambdas, propagation.CPM_DENSITY)
    assert np.array_equal(plain.gammas, gammas)
    assert not np.array_equal(plain.gammas, full.gammas)
    # the density is not exported, so loaded data take the default too
    spectrum.export_csv(full, tmp_path / "s.csv")
    assert load_csv(tmp_path / "s.csv").cpm_density == propagation.CPM_DENSITY
