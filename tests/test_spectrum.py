import json
import math
import re

import numpy as np
import pytest

from jumpsl import (
    ContourTooCloseError,
    DomainError,
    EigenparameterBC,
    JumpCondition,
    MismatchError,
    MissedEigenvalueError,
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
    weyl_m,
)
from jumpsl import propagation, spectrum
from jumpsl.asymptotics import eigenvalue_guesses
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
    assert all(r.certification == "index-verified" for r in sd.records)
    # the index that locates the roots certifies them: verify changes nothing
    assert eigenvalues(one_jump, 10, verify=False) == sd


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


@pytest.mark.parametrize("rect", [(math.nan, 10.0, -1.0, 1.0), (-0.5, math.inf, -1.0, 1.0),
                                  (-0.5, 10.0, -math.inf, 1.0), (-0.5, 10.0, -1.0, math.nan)])
def test_contour_rejects_non_finite_rectangle(free, rect):
    with pytest.raises(DomainError):
        count_zeros_contour(free, rect)


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
    assert back.records[2].certification == "index-verified"


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


def _barrier(q):
    """q on (pi/2 - 1/4, pi/2 + 1/4), 0 elsewhere, Neumann: two wells whose
    eigenvalues come in pairs, the lowest closer than the scan step."""
    return validate(ProblemSpec(PiecewisePolynomial(
        ((0.0,), (q,), (0.0,)), (PI / 2 - 0.25, PI / 2 + 0.25)), RobinBC(0.0, 0.0)))


def _assert_index_certified(p, lams, left="spec", density=160):
    """N reads 0 at the floor and k between roots k - 1 and k."""
    pts = np.concatenate([[lambda_floor(p)], 0.5 * (lams[1:] + lams[:-1])])
    assert np.array_equal(spectrum._sweep(p, pts, left, density)[0], np.arange(len(lams)))


def test_index_locates_close_pair():
    # the ground pair (about 1.197 and 1.206) shares one cell of the scan
    # grid, where N rises by 2 and Delta keeps its sign; the cell is split
    # off the grid, so 10.7309 is the third eigenvalue
    p = _barrier(80.0)
    sd = eigenvalues(p, 8)
    assert len(sd) == 8 and all(r.certification == "index-verified" for r in sd.records)
    assert sd.lambdas[0] == pytest.approx(1.197, abs=1e-3)
    assert sd.lambdas[1] - sd.lambdas[0] < 0.02
    assert sd.lambdas[2] == pytest.approx(10.7309, abs=1e-4)
    _assert_index_certified(p, sd.lambdas)
    assert np.max(np.abs(delta_batch(p, sd.lambdas))) <= 1e-9 * np.max(
        np.abs(delta_batch(p, sd.lambdas + 0.001)))


def test_scan_survives_huge_delta_at_floor():
    # |Delta| passes 1e154 at this floor, so a product of neighbouring
    # values overflows; the sign test must not (RuntimeWarning is an error).
    # Its two lowest pairs each share a grid cell
    p = _barrier(120.0)
    assert np.max(np.abs(delta_batch(p, np.array([lambda_floor(p)])))) > 1e154
    sd = eigenvalues(p, 8, verify=False)
    assert len(sd) == 8 and sd[7].certification == "index-verified"
    _assert_index_certified(p, sd.lambdas)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_at_scan_floor_is_domain_error():
    # at q = 1000 phi overflows at the scan floor and its Pruefer angle is
    # not a number there; at q = 300 only Delta does, and the roots come out
    with pytest.raises(DomainError, match=r"phi overflowed at lambda = -1002101\.1.*NaN"):
        eigenvalues(_barrier(1000.0), 4)
    lams = eigenvalues(_barrier(300.0), 4).lambdas
    assert lams == pytest.approx([1.2983, 1.2984, 11.6787, 11.6795], abs=1e-4)


def _mathieu(q):
    """Neumann problem with potential 2 q cos 2x (sampled, cubic spline)."""
    x = np.linspace(0.0, PI, 513)
    return validate(ProblemSpec(SampledGrid(x, 2.0 * q * np.cos(2.0 * x), order=3),
                                RobinBC(0.0, 0.0)))


_INDEX_PROBLEMS = {
    "attractive": lambda: validate(ProblemSpec(    # bound states below 0
        constant_potential(0.0), RobinBC(3.0, -4.0))),
    "negative_a": lambda: validate(ProblemSpec(
        constant_potential(0.5), RobinBC(0.2, -0.1),
        (JumpCondition(1.0, -1.2, -0.8, 0.3), JumpCondition(2.1, -0.9, -1.1, -0.2)))),
    "eig_jump": lambda: _eig_h1(),
    "mathieu": lambda: _mathieu(2.0),
}


@pytest.mark.parametrize("left", ["spec", "dirichlet"])
@pytest.mark.parametrize("name", ["free", "one_jump", "generic", "four_jump",
                                  "attractive", "negative_a", "eig_desk",
                                  "eig_jump", "cubic", "mathieu"])
def test_index_exact_between_roots(request, name, left):
    p = (_INDEX_PROBLEMS[name]() if name in _INDEX_PROBLEMS
         else request.getfixturevalue(name))
    lams = eigenvalues(p, 40, verify=False, left=left).lambdas
    if name == "attractive" and left == "spec":
        assert lams[1] < 0.0
    pts = np.concatenate([[lambda_floor(p)], 0.5 * (lams[1:] + lams[:-1])])
    assert np.array_equal(spectrum._sweep(p, pts, left, 160)[0], np.arange(40))


@pytest.mark.parametrize("count", [1500, 3000])
@pytest.mark.parametrize("name", ["one_jump", "four_jump", "eig_desk"])
def test_large_counts_certify(request, name, count):
    sd = eigenvalues(request.getfixturevalue(name), count)
    assert len(sd) == count and sd[-1].certification == "index-verified"
    if name == "one_jump":
        n2 = np.arange(count) ** 2
        assert np.max(np.abs(sd.lambdas - n2) / np.maximum(1, n2)) <= 2e-15


def test_certify_raised_and_deep_spectra():
    # a spectrum raised to 25 + n^2, and Mathieu q = 12 with a_0 = -17.3
    sd = eigenvalues(validate(ProblemSpec(constant_potential(25.0),
                                          RobinBC(0.0, 0.0))), 10)
    assert np.allclose(sd.lambdas, 25.0 + np.arange(10) ** 2, rtol=0, atol=1e-9)
    from scipy.special import mathieu_a
    sd = eigenvalues(_mathieu(12.0), 10)
    ref = np.array([mathieu_a(k, 12.0) for k in range(10)])
    assert np.max(np.abs(sd.lambdas - ref)) <= 1e-6
    assert sd[0].certification == "index-verified"


@pytest.mark.parametrize("left, shift", [("spec", 0.0), ("dirichlet", 0.5)])
def test_constant_potential_with_large_mean(left, shift):
    # q = 50 raises every eigenvalue by 50, far above the zeros of the
    # leading sine sum: 50 + n^2 with Neumann ends, 50 + (n + 1/2)^2 from
    # phi(0) = 0
    p = validate(ProblemSpec(constant_potential(50.0), RobinBC(0.0, 0.0)))
    lams = eigenvalues(p, 6, left=left).lambdas
    assert np.max(np.abs(lams / (50.0 + (np.arange(6) + shift) ** 2) - 1.0)) <= 1e-13
    _assert_index_certified(p, lams, left)


def test_mathieu_with_large_mean():
    # q = 60 + 4 cos 2x: lambda_n = 60 + a_n(2)
    from scipy.special import mathieu_a

    x = np.linspace(0.0, PI, 513)
    p = validate(ProblemSpec(SampledGrid(x, 60.0 + 4.0 * np.cos(2.0 * x), order=3),
                             RobinBC(0.0, 0.0)))
    lams = eigenvalues(p, 8).lambdas
    ref = 60.0 + np.array([mathieu_a(k, 2.0) for k in range(8)])
    assert np.max(np.abs(lams / ref - 1.0)) <= 1e-10
    _assert_index_certified(p, lams)


def test_verify_makes_no_contour_call(monkeypatch, eig_desk):
    def forbidden(*args, **kwargs):
        raise AssertionError("count_zeros_contour called")

    monkeypatch.setattr(spectrum, "count_zeros_contour", forbidden)
    assert eigenvalues(eig_desk, 30)[29].certification == "index-verified"


def test_contour_judges_nearness_locally():
    # eigenvalues 25 + n^2; |Delta| spans many orders over these contours
    p = validate(ProblemSpec(constant_potential(25.0), RobinBC(0.0, 0.0)))
    lo = lambda_floor(p) - 0.5
    for top, want in ((27.5, 2), (37.5, 4), (125.5, 11)):
        assert count_zeros_contour(p, (lo, top, -1.0, 1.0)) == want


def test_mathieu_reference():
    # q = 4 cos 2x with Neumann conditions: lambda_n = a_n(2) and, with
    # phi(0) = 1, gamma_n = 2 ce_n(0)^2 / pi (int_0^pi ce_n^2 = pi/2)
    from scipy.special import mathieu_a, mathieu_cem

    p = _mathieu(2.0)
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


def test_spectral_data_checks_the_problem(free, one_jump, tmp_path):
    # gammas at another problem's eigenvalues would carry this one's fingerprint
    with pytest.raises(MismatchError):
        spectral_data(one_jump, eigenvalues(free, 5))
    # a loaded table names no problem, so it still passes
    spectrum.export_csv(spectral_data(one_jump, eigenvalues(one_jump, 5)), tmp_path / "s.csv")
    loaded = spectral_data(one_jump, load_csv(tmp_path / "s.csv"))
    assert loaded.fingerprint == one_jump.fingerprint()


@pytest.mark.parametrize("count", [0, -3, 2.5, 2.0, True, "3", None])
def test_eigenvalues_count_must_be_a_positive_integer(free, count):
    with pytest.raises(DomainError):
        eigenvalues(free, count)


# ----------------------------------------------------------------------
# Delta, Delta' and m as Wronskians against initial_state
# ----------------------------------------------------------------------

def _functional_delta(p, lam, left):
    """Delta and Delta' from each variant's boundary functional at pi, with
    the per-variant sign that makes it W(phi, psi): the reference form."""
    bc = p.boundary
    start, dstart = (propagation.initial_state(p, "phi", lam)
                     if left == "spec" else ((0.0, 1.0), (0.0, 0.0)))
    y, yp, u, up = propagation.propagate_endpoints_batch(p, lam, start + dstart)
    if p.variant == "robin":
        return p.w_end * -(yp + bc.H * y), p.w_end * -(up + bc.H * u)
    r2 = yp + bc.H1 * y
    return (p.w_end * (lam * r2 - bc.H2 * yp - bc.H3 * y),
            p.w_end * (r2 + lam * (up + bc.H1 * u) - bc.H2 * up - bc.H3 * u))


def _functional_m(p, lam):
    """m = -psi(0)/Delta (Robin) or -R1(psi)/(r1 Delta), with Delta = L1(psi)."""
    bc = p.boundary
    y, yp = propagation._psi_at_zero(p, lam)
    if p.variant == "robin":
        return -y / (yp + bc.h * y)
    r1psi = yp + bc.h1 * y
    return -(r1psi / bc.r1) / (lam * r1psi - bc.h2 * yp - bc.h3 * y)


def _eig_h1():
    """Eigenparameter problem with h1, H1 != 0 and a jump with c != 0."""
    return validate(ProblemSpec(constant_potential(0.0),
                                EigenparameterBC(0.5, 1.0, 2.0, 1.0, 3.0, 1.0),
                                (JumpCondition(1.0, 1.3, 0.9, 0.2),)))


@pytest.mark.parametrize("name", ["cubic", "mathieu", "four_jump"])
def test_robin_wronskians_bit_identical_to_functionals(request, name):
    p = _mathieu(2.0) if name == "mathieu" else request.getfixturevalue(name)
    rng = np.random.default_rng(8)
    lam = np.concatenate([rng.uniform(-50.0, 400.0, 300),
                          rng.uniform(-50.0, 400.0, 100)
                          + 1j * rng.uniform(-20.0, 20.0, 100)]).astype(complex)
    for left in ("spec", "dirichlet"):
        ref, dref = _functional_delta(p, lam, left)
        assert np.array_equal(delta_batch(p, lam, left=left), ref)
        got, dgot = delta_batch(p, lam, derivative=True, left=left)
        assert np.array_equal(got, ref) and np.array_equal(dgot, dref)
    assert np.array_equal(weyl_m(p, lam).m, _functional_m(p, lam))


@pytest.mark.parametrize("name", ["eig_desk", "eig_h1"])
def test_eigenparameter_wronskians_match_functionals(request, name):
    p = _eig_h1() if name == "eig_h1" else request.getfixturevalue(name)
    lams = eigenvalues(p, 40).lambdas
    # away from zeros: between eigenvalues, and off the real axis
    lam = np.concatenate([0.5 * (lams[1:] + lams[:-1]),
                          np.linspace(-20.0, 1500.0, 60)
                          + 1j * np.linspace(1.0, 30.0, 60)]).astype(complex)
    ref, dref = _functional_delta(p, lam, "spec")
    got, dgot = delta_batch(p, lam, derivative=True)
    for a, b in ((got, ref), (dgot, dref), (weyl_m(p, lam).m, _functional_m(p, lam))):
        assert np.max(np.abs(a / b - 1.0)) <= 1e-13


def test_eigenparameter_h1_derivative_identity():
    # h1, H1 != 0 put lambda-dependent data at both ends of phi and psi
    p = _eig_h1()
    sd = spectral_data(p, eigenvalues(p, 200))
    _, dd = delta_batch(p, sd.lambdas, derivative=True)
    assert np.max(np.abs(dd.real * sd.gammas / sd.betas - 1.0)) <= 1e-11


def test_delta_batch_unknown_left(generic):
    with pytest.raises(ValueError):
        delta_batch(generic, np.array([1.0]), left="chi")


def _shift_cells(lams, cells):
    """Move each lambda by ``cells`` cells of the scan grid: steps of 0.05
    in -sqrt(-lambda) below zero and of 0.02 in sqrt(lambda) above."""
    s = np.sign(lams) * np.sqrt(np.abs(lams))
    s = s + cells * np.where(s < 0.0, 0.05, 0.02)
    return s * np.abs(s)


@pytest.fixture
def sweeps(monkeypatch):
    """The number of lambda of each index sweep."""
    sizes = []
    sweep = spectrum._sweep

    def spy(problem, lam, *args):
        sizes.append(len(lam))
        return sweep(problem, lam, *args)

    monkeypatch.setattr(spectrum, "_sweep", spy)
    return sizes


def _assert_same_roots(got, cold):
    assert np.array_equal(got[0], cold[0]) and np.array_equal(got[1], cold[1])


@pytest.mark.parametrize("left", ["spec", "dirichlet"])
@pytest.mark.parametrize("name", ["free", "one_jump", "generic", "two_jump",
                                  "three_jump", "four_jump", "eig_desk", "cubic"])
def test_warm_brackets_give_the_scan_roots(request, sweeps, name, left, cold_sweeps=6,
                                           near_sweeps=1):
    # exact predictions and predictions one cell off seed the bisection near
    # the roots: the same brackets, so the cold roots bit for bit.  A cold
    # start takes at most ``cold_sweeps``; exact ones and ones a cell high
    # at most ``near_sweeps``, also where roots sit on grid points (free,
    # one_jump)
    p = request.getfixturevalue(name)
    cold = spectrum._locate(p, 30, left, 96)
    assert 1 < len(sweeps) <= cold_sweeps
    for cells in (0, -1, 1):
        sweeps.clear()
        _assert_same_roots(spectrum._locate(p, 30, left, 96, _shift_cells(cold[0], cells)),
                           cold)
        if cells >= 0:
            assert len(sweeps) <= near_sweeps


def test_warm_brackets_one_jump_grid_roots(one_jump):
    # lambda_n = n^2 lies on the scan grid (sqrt(lambda) = n on a 0.02 step)
    cold = spectrum._locate(one_jump, 40, "spec", 160)
    assert np.allclose(cold[0], np.arange(40) ** 2, rtol=0, atol=1e-9)
    _assert_same_roots(spectrum._locate(one_jump, 40, "spec", 160, cold[0]), cold)


@pytest.mark.parametrize("name", ["four_jump", "cubic"])
def test_warm_brackets_far_prediction_falls_back(request, sweeps, name):
    # seeds 10 cells off: the bisection falls back on more levels, from the
    # seeds and both ends of the grid, to the same brackets
    p = request.getfixturevalue(name)
    cold = spectrum._locate(p, 30, "spec", 96)
    sweeps.clear()
    _assert_same_roots(spectrum._locate(p, 30, "spec", 96, _shift_cells(cold[0], 10)), cold)
    assert len(sweeps) > 1


def test_warm_brackets_close_pair_falls_back():
    # the ground pair of each barrier shares one grid cell, which is split
    # off the grid from any seeds: the cold roots again
    for q, guesses in ((80.0, [1.197, 1.201]), (120.0, np.arange(8.0) ** 2)):
        p = _barrier(q)
        cold = spectrum._locate(p, 8, "spec", 160)
        for predicted in (cold[0], np.concatenate([guesses, cold[0]])[:8]):
            _assert_same_roots(spectrum._locate(p, 8, "spec", 160, predicted), cold)


def test_locate_names_where_the_index_disagrees(monkeypatch, generic):
    lams = eigenvalues(generic, 30).lambdas
    sweep = spectrum._sweep

    def faked(change):
        def fake(p, lam, *args):
            index, vals = sweep(p, lam, *args)
            return change(lam, index), vals
        return fake

    # an index that never reaches the count asked for: the grid's top
    # doubles up to its limit and gives up
    with monkeypatch.context() as m:
        m.setattr(spectrum, "_sweep", faked(lambda lam, n: np.minimum(n, 17)))
        with pytest.raises(MissedEigenvalueError, match="found only 17 of 30"):
            eigenvalues(generic, 30)
    # an index that falls, and one that counts a second eigenvalue at
    # lambda_3, where Delta changes sign once: the split stops between two
    # neighbouring floats
    for change, lo, hi in ((lambda lam, n: n - 2 * ((lam > 50.0) & (lam < 60.0)), 50.0, 60.0),
                           (lambda lam, n: n + (lam > lams[3]), lams[3], lams[3])):
        with monkeypatch.context() as m:
            m.setattr(spectrum, "_sweep", faked(change))
            with pytest.raises(MissedEigenvalueError, match="out of step") as err:
                eigenvalues(generic, 30)
        # the interval named, to its 10 printed digits
        a, b = map(float, re.findall(r"lambda = (\S+) and \d+ at (\S+),", str(err.value))[0])
        assert a <= hi * (1 + 1e-9) and lo <= b * (1 + 1e-9)



@pytest.mark.parametrize("ulps", [0, 1])
def test_split_gives_up_between_neighbouring_floats(monkeypatch, generic, ulps):
    # N faked to rise by 2 from a float c, halfway between lambda_30 and
    # lambda_31, to the next float up, with no sign change of Delta: the
    # split halves the cell down to those two floats, whose midpoint rounds
    # to one of them (c and c + 1 ulp round opposite ways), and must stop
    # there and name the cell, not add the same point again and again
    lams = eigenvalues(generic, 40).lambdas
    c = 0.5 * (lams[30] + lams[31])
    for _ in range(ulps):
        c = np.nextafter(c, np.inf)
    sweep, calls = spectrum._sweep, []

    def fake(p, lam, *args):
        calls.append(len(lam))
        index, vals = sweep(p, lam, *args)
        return index + 2 * (lam > c), vals

    monkeypatch.setattr(spectrum, "_sweep", fake)
    with pytest.raises(MissedEigenvalueError, match="reads 31 at .* and 33 at") as err:
        eigenvalues(generic, 40)
    assert len(calls) < 80
    a, b = map(float, re.findall(r"lambda = (\S+) and \d+ at (\S+),", str(err.value))[0])
    assert a == pytest.approx(c, rel=1e-9) and b == pytest.approx(c, rel=1e-9)

def _scan_locate(p, count, left, density):
    """The scan that located roots before the index bisection: Delta on the
    whole grid, a bracket at each sign change (np.sign) or exact zero at a
    cell's left end, then the same polish."""
    guesses = eigenvalue_guesses(p, count + 2, trig="cos" if left == "dirichlet" else "sin")
    rho_max = guesses[-1] + 0.75
    s = np.concatenate([np.arange(-math.sqrt(-lambda_floor(p)) - 0.05, 0.0, 0.05),
                        np.arange(0.0, rho_max + 0.02, 0.02)])
    lam = s * np.abs(s)
    vals = delta_batch(p, lam, left=left, cpm_density=density)
    lo = np.flatnonzero((vals[:-1] == 0.0) | (np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0))
    roots, droots = _polish_roots(
        lambda x: delta_batch(p, x, derivative=True, left=left, cpm_density=density),
        lam[lo], lam[np.where(vals[lo] == 0.0, lo, lo + 1)], vals[lo])
    return roots[:count], droots[:count]


_LOCATE_PROBLEMS = {
    "eig_jump": lambda: validate(ProblemSpec(
        constant_potential(0.7), EigenparameterBC(0.5, 0.3, 1.2, 1.0, 2.0, 0.5),
        (JumpCondition(1.1, 0.8, 1.3, -0.4),))),
    "half": lambda: validate(ProblemSpec(PiecewisePolynomial(
        coefficients=((0.25, -0.1, 0.2, 0.0), (0.1, 0.3, -0.2, 0.08)),
        breakpoints=(PI / 2,)), RobinBC(0.2, -0.4))),
    "mathieu": lambda: _mathieu(2.0),
}


@pytest.mark.parametrize("density", [160, 96])
@pytest.mark.parametrize("left", ["spec", "dirichlet"])
@pytest.mark.parametrize("name", ["free", "one_jump", "generic", "four_jump", "eig_desk",
                                  "eig_jump", "cubic", "half", "mathieu"])
def test_locate_matches_reference_scan(request, name, left, density):
    p = (_LOCATE_PROBLEMS[name]() if name in _LOCATE_PROBLEMS
         else request.getfixturevalue(name))
    _assert_same_roots(spectrum._locate(p, 40, left, density),
                       _scan_locate(p, 40, left, density))


def _phi_before(p, lam, i):
    """phi at the right end of cell i, before its jump, from the walk."""
    cells = [None] * len(p.pieces)
    propagation.propagate_endpoints_batch(
        p, lam, propagation.initial_state(p, "phi", lam)[0], cells=cells)
    return cells[i].ys[-lam.size:]


@pytest.mark.parametrize("name", ["generic", "four_jump", "one_jump"])
def test_index_monotone_where_phi_vanishes_at_a_jump(request, name):
    # within ulps of a zero of phi at a jump point the step that ends there
    # has an end angle just under a multiple of pi, which must be counted
    # once; on one_jump these zeros are the eigenvalues (2k + 1)^2
    p = request.getfixturevalue(name)
    grid = np.linspace(-5.0, 1000.0, 2000)
    windows = []
    for i in np.flatnonzero([j is not None for j in p.jump_after_piece]):
        v = _phi_before(p, grid, i)
        k = np.flatnonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0.0)
        lo, hi, sign = grid[k], grid[k + 1], np.sign(v[k])
        for _ in range(64):     # to neighbouring floats
            mid = 0.5 * (lo + hi)
            below = np.sign(_phi_before(p, mid, i)) == sign
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        windows.append(hi[:, None] + np.arange(-16, 17) * np.spacing(hi)[:, None])
    windows = np.concatenate(windows)
    assert len(windows) >= 9
    index = spectrum._sweep(p, windows.ravel(), "spec", 160)[0].reshape(windows.shape)
    assert np.all(np.diff(index, axis=1) >= 0)


def test_sweep_delta_matches_delta_batch(cubic):
    lam = np.linspace(-30.0, 400.0, 77)
    for left in ("spec", "dirichlet"):
        _, delta = spectrum._sweep(cubic, lam, left, 96)
        assert np.array_equal(delta, delta_batch(cubic, lam, left=left, cpm_density=96))


@pytest.mark.parametrize("left", ["spec", "dirichlet"])
def test_index_angle_branch_on_stepped_cells(cubic, left):
    # at density 1 each cell takes 32 steps; above lambda ~ 2300 a step of
    # the wider cell turns through more than pi, so the index counts those
    # steps' zeros from their angles, not from sign changes
    sd = eigenvalues(cubic, 150, left=left, cpm_density=1)
    assert len(sd) == 150 and sd[-1].certification == "index-verified"
    lams = eigenvalues(cubic, 151, verify=False, left=left, cpm_density=1).lambdas
    assert np.array_equal(lams[:150], sd.lambdas)
    assert math.sqrt(lams[-1]) * (2.0 * PI / 3.0) / 32 > PI
    pts = np.concatenate([[lambda_floor(cubic)], 0.5 * (lams[1:] + lams[:-1])])
    assert np.array_equal(spectrum._sweep(cubic, pts, left, 1)[0], np.arange(151))


def test_sweep_memory_bounded_by_a_block():
    # the sweep counts each block of steps as the walk leaves it, so its
    # memory stays near a scan's instead of growing with steps x points
    import tracemalloc
    pot = PiecewisePolynomial(
        coefficients=((0.25, -0.1, 0.2, 0.0), (0.1, 0.3, -0.2, 0.08)),
        breakpoints=(PI / 2,))
    p = validate(ProblemSpec(pot, RobinBC(0.2, -0.4)))     # the half-inverse truth
    lam = np.linspace(-20.0, 2000.0, 2131)
    peaks = []
    for run in (lambda: spectrum._sweep(p, lam, "spec", 96),
                lambda: delta_batch(p, lam, cpm_density=96)):
        run()
        tracemalloc.start()
        run()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] <= 2 * peaks[1], peaks
