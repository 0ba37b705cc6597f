import math

import numpy as np
import pytest

from jumpsl import (
    DomainError,
    InterlacingError,
    JumpCondition,
    PoleError,
    ProblemSpec,
    RobinBC,
    SpectralData,
    TwoSpectra,
    VariantError,
    constant_potential,
    eigenvalues,
    m_from_two_spectra,
    numerical_residue,
    partial_fraction_m,
    secondary_spectrum,
    spectral_data,
    validate,
    weyl_m,
    weyl_theta,
)
from jumpsl.quadrature import weighted_abs_norm_sq
from jumpsl.spectrum import EigenRecord
from jumpsl.weyl import WeylSample, export_m_samples

PI = math.pi
COTH_PI = 1.0037418731973213


def test_free_m_closed_form(free):
    assert weyl_m(free, -1.0).m == pytest.approx(COTH_PI, rel=1e-12)
    # m(lambda) = -cos(rho pi)/(rho sin(rho pi))
    lam = 2.3 + 0.7j
    rho = np.sqrt(complex(lam))
    expect = -np.cos(rho * PI) / (rho * np.sin(rho * PI))
    assert weyl_m(free, lam).m == pytest.approx(complex(expect), rel=1e-12)


def test_m_large_negative_asymptote(free):
    # |m - 1/sqrt(-lambda)| * |lambda| stays bounded along lambda = -t^2
    for t in (5.0, 10.0, 20.0):
        lam = -t * t
        err = abs(weyl_m(free, lam).m - 1.0 / math.sqrt(-lam)) * abs(lam)
        assert err < 1.0


def test_herglotz_positivity_grid(generic):
    res = [r for r in np.linspace(-20, 20, 7)]
    ims = [-8.0, -4.0, -1.0, -0.5, 0.5, 4.0, 8.0]
    for re in res:
        for im in ims:
            m = weyl_m(generic, complex(re, im)).m
            assert m.imag * im > 0


@pytest.mark.parametrize("name", ["generic", "eig_desk"])
def test_array_m_equals_scalar_loop(request, name):
    # a non-real scalar is evaluated on Python numbers and an array on
    # numpy, whose complex products round apart (numpy's array loops use
    # FMA): the real row is bit for bit, the others agree to rounding
    p = request.getfixturevalue(name)
    lam = np.linspace(-20.0, 300.0, 41).reshape(1, 41) + np.array([[0.0j], [0.5j], [-2.0j]])
    ws = weyl_m(p, lam)
    assert ws.m.shape == lam.shape and ws.lam.shape == lam.shape
    for field in ("m", "delta", "theta0"):
        loop = np.array([[getattr(weyl_m(p, z), field) for z in row] for row in lam])
        assert np.array_equal(getattr(ws, field)[0], loop[0])
        assert np.allclose(getattr(ws, field), loop, rtol=1e-12, atol=0.0)
    scalar = weyl_m(p, lam[0, 0])
    assert all(type(getattr(scalar, f)) is complex
               for f in ("lam", "m", "delta", "theta0"))


def test_array_pole_error(free):
    sd = eigenvalues(free, 5)
    with pytest.raises(PoleError):
        weyl_m(free, np.array([-1.0, 0.5 + 1j, 9.0 + 1e-13]), sd)
    for lam in (np.array([-1.0, 0.0, 7.5]), 0.0, 0j):
        with pytest.raises(PoleError):
            weyl_m(free, lam)   # Delta(0) = 0 exactly


def test_pole_error(free):
    sd = eigenvalues(free, 5)
    with pytest.raises(PoleError):
        weyl_m(free, 4.0 + 1e-13, sd)
    with pytest.raises(PoleError):
        weyl_m(free, 1.0, sd)  # lambda_1 itself


def test_theta_consistency_and_theta0(free, generic):
    for p in (free, generic):
        xs = np.linspace(0.2, 3.0, 9)
        theta, theta_p, disc = weyl_theta(p, xs, -2.0 + 1.0j)
        assert disc < 1e-8
    ws = weyl_m(free, -3.0)
    assert ws.theta0 == pytest.approx(-ws.m, rel=1e-12)


def test_weyl_solution_wronskian(free):
    # W(phi, theta) = w(x)(phi theta' - phi' theta) = 1
    from jumpsl.propagation import SpectralPoint, fundamental_solution
    lam = -2.0 + 1.0j
    sp = SpectralPoint.from_lambda(lam)
    phi = fundamental_solution(free, "phi", sp)
    xs = np.array([0.4, 1.3, 2.8])
    theta, theta_p, _ = weyl_theta(free, xs, lam)
    y, yp = phi.eval(xs)
    w = np.array([free.weight_at(float(x)) for x in xs])
    assert np.allclose(w * (y * theta_p - yp * theta), 1.0, atol=1e-10)


def test_energy_identity_robin(generic):
    # Im m = Im lambda * ||theta||^2 with the weighted L2 norm
    from jumpsl.propagation import SpectralPoint, fundamental_solution
    for lam in (1.0 + 1.0j, -3.0 + 0.5j, 5.0 - 2.0j, 0.3 + 4.0j, -1.0 - 1.0j):
        ws = weyl_m(generic, lam)
        sp = SpectralPoint.from_lambda(lam)
        psi = fundamental_solution(generic, "psi", sp)
        norm2 = weighted_abs_norm_sq(generic, psi) / abs(ws.delta) ** 2
        assert ws.m.imag == pytest.approx(lam.imag * norm2, rel=1e-6)


def test_residues_equal_minus_gamma(free, one_jump):
    for p in (free, one_jump):
        sd = spectral_data(p, eigenvalues(p, 10, verify=False))
        for r in sd.records[:10]:
            res = numerical_residue(lambda z: weyl_m(p, z).m, r.lam,
                                    radius=1e-3 * max(1.0, abs(r.lam)))
            assert res.real == pytest.approx(-r.gamma, rel=1e-6)
            assert abs(res.imag) < 1e-9 * max(1.0, r.gamma)


def test_partial_fraction_free(free):
    # closed-form records: lambda_n = n^2, gamma_0 = 1/pi, gamma_n = 2/pi
    n = np.arange(200)
    records = tuple(
        EigenRecord(int(i), float(i * i), complex(float(i)),
                    (1.0 if i else 0.5) * 2.0 / PI, float((-1.0) ** i),
                    "bracketed")
        for i in n)
    sd = SpectralData(records=records, fingerprint="", variant="robin")
    approx = partial_fraction_m(sd, -1.0)
    assert abs(approx - COTH_PI) < 1e-2
    e100 = abs(partial_fraction_m(sd, -1.0, 100) - COTH_PI)
    e200 = abs(partial_fraction_m(sd, -1.0, 200) - COTH_PI)
    assert 1.5 <= e100 / e200 <= 2.5


def test_gamma_summability_tail(free):
    # sum gamma_n/(1 + lambda_n^0.6): solver gammas match the closed form,
    # and the closed-form tail increments shrink as N doubles
    sd = spectral_data(free, eigenvalues(free, 30, verify=False))
    n = np.arange(1, 2000)
    closed = 2.0 / PI / (1.0 + n ** 1.2)
    assert np.allclose(sd.gammas[1:], 2.0 / PI, atol=1e-10)
    inc1 = np.sum(closed[100:200])
    inc2 = np.sum(closed[200:400])
    inc3 = np.sum(closed[400:800])
    assert inc2 < inc1 and inc3 < inc2


def test_secondary_spectrum_free(free):
    sec = secondary_spectrum(free, 8)
    assert np.allclose(sec.lambdas, (np.arange(8) + 0.5) ** 2, atol=1e-8)


def test_two_spectra_free(free):
    prim = eigenvalues(free, 100, verify=False)
    sec = secondary_spectrum(free, 100)
    ts = TwoSpectra(prim, sec, free)
    approx = m_from_two_spectra(ts, -1.0)
    assert isinstance(approx, complex)
    assert approx == pytest.approx(COTH_PI, rel=1e-12)
    # array input: the shape of lam, the values of the direct solve
    lam = np.array([[-5.0, -20.0], [3.3 + 0.5j, 10.0 - 2.0j]])
    approx = m_from_two_spectra(ts, lam)
    assert approx.shape == lam.shape
    assert np.allclose(approx, weyl_m(free, lam).m, rtol=1e-12, atol=0.0)


def _closed_form_two_spectra(free, n):
    """The free problem's spectra n^2 and (n + 1/2)^2, as exact records."""
    def sd(lams):
        return SpectralData(records=tuple(
            EigenRecord(n=i, lam=float(l), rho=complex(math.sqrt(l)), gamma=None,
                        beta=None, certification="bracketed")
            for i, l in enumerate(lams)), fingerprint="", variant="robin")
    k = np.arange(n)
    return TwoSpectra(sd(k * k), sd((k + 0.5) ** 2), free)


def test_two_spectra_full_precision_near_normalizing_roots(free):
    # 2.5 lies 0.25 from mu0_1 = 2.25, 6.2 lies 0.05 from mu0_2 = 6.25
    ts = _closed_form_two_spectra(free, 100)
    lam = np.array([2.5, 6.2])
    direct = weyl_m(free, lam).m
    assert np.max(np.abs(m_from_two_spectra(ts, lam) / direct - 1.0)) <= 1e-13


def test_deep_negative_axis_raises_domain_error():
    p = validate(ProblemSpec(constant_potential(0.5), RobinBC(0.3, -0.2),
                             (JumpCondition(PI / 3, 2.0, 1.0, 0.5),)))
    ts = TwoSpectra(eigenvalues(p, 20, verify=False),
                    secondary_spectrum(p, 20), p)
    for fn in (lambda lam: weyl_m(p, lam).m, lambda lam: m_from_two_spectra(ts, lam)):
        for bad in (-6e4, -1e6):
            for lam in (bad, np.array([-1.0, bad])):
                with pytest.raises(DomainError, match=rf"lambda=\({bad:.0f}\+0j\)"):
                    fn(lam)
    assert weyl_m(p, -4e4).m == pytest.approx(0.005007479923, rel=1e-10)
    # a scalar off the axis: cmath overflows at -1e6 - 1j, Python floats at -6e4 + 1j
    for lam in (-6e4 + 1j, -1e6 - 1j):
        with pytest.raises(DomainError, match=rf"lambda=\({lam.real:.0f}[+-]1j\)"):
            weyl_m(p, lam)


@pytest.mark.parametrize("bad", [complex(math.nan, 1.0), complex(math.inf, 1.0),
                                 complex(2.0, -math.inf)])
def test_non_finite_lambda_is_named(generic, bad):
    # a lambda that is not finite is named as such, not as an overflow
    ts = TwoSpectra(eigenvalues(generic, 10, verify=False),
                    secondary_spectrum(generic, 10), generic)
    for fn in (lambda lam: weyl_m(generic, lam), lambda lam: m_from_two_spectra(ts, lam)):
        for lam in (bad, np.array([3.0 + 1.0j, bad])):
            with pytest.raises(DomainError, match=r"lambda=.* is not finite$"):
                fn(lam)


@pytest.mark.parametrize("name", ["jump_q", "cubic", "robin_q"])
def test_two_spectra_matches_weyl_m(name, cubic):
    jump = JumpCondition(PI / 3, 2.0, 1.0, 0.5)
    problem = cubic if name == "cubic" else validate(ProblemSpec(
        constant_potential(0.5), RobinBC(0.3, -0.2),
        (jump,) if name == "jump_q" else ()))
    ts = TwoSpectra(eigenvalues(problem, 100, verify=False),
                    secondary_spectrum(problem, 100), problem)
    # lambda = 0 is a removable 0 * inf of the product form
    lam = np.array([-1.0, -5.0, -20.0, 3.3 + 0.5j, 2.5, 0.0])
    direct = weyl_m(problem, lam).m
    rel = np.abs(m_from_two_spectra(ts, lam) - direct) / np.abs(direct)
    assert np.max(rel) <= 5e-3


def test_two_spectra_domain_and_interlacing(free, eig_desk):
    prim = eigenvalues(free, 10, verify=False)
    sec = secondary_spectrum(free, 10)
    ts = TwoSpectra(prim, sec, free)
    with pytest.raises(PoleError):
        m_from_two_spectra(ts, 1.0)     # a primary eigenvalue
    with pytest.raises(InterlacingError):
        TwoSpectra(sec, prim, free)     # swapped lists cannot interlace
    with pytest.raises(VariantError):
        TwoSpectra(eigenvalues(eig_desk, 10, verify=False),
                   secondary_spectrum(eig_desk, 10), eig_desk)


def test_export_m_samples(tmp_path, free):
    samples = [weyl_m(free, complex(-2.0, t)) for t in (0.0, 1.0)]
    path = tmp_path / "m.csv"
    export_m_samples(samples, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "re_lambda,im_lambda,re_m,im_m"
    assert len(lines) == 3
    assert float(lines[1].split(",")[2]) == pytest.approx(samples[0].m.real)


def test_export_m_samples_array(tmp_path, free):
    # one sample with array fields writes the rows of its points' samples
    ws = weyl_m(free, np.array([-2.0, -2.0 + 1.0j]))
    points = [WeylSample(*(getattr(ws, f)[k].item() for f in ("lam", "m", "delta", "theta0")),
                         variant=ws.variant) for k in range(2)]
    scalar, array = tmp_path / "scalar.csv", tmp_path / "array.csv"
    export_m_samples(points, scalar)
    export_m_samples(ws, array)
    assert array.read_text() == scalar.read_text()


def _one_jump_m(lam):
    """m of ``one_jump`` from its two exact cells: with s = rho pi / 2,
    psi(0) = cos(s)^2 / 2 - 2 sin(s)^2 and Delta = (5/4) rho sin(2 s)."""
    rho = np.sqrt(lam)
    s = rho * np.arccos(np.longdouble(-1.0)) / 2
    return (2.0 * np.sin(s) ** 2 - 0.5 * np.cos(s) ** 2) / (1.25 * rho * np.sin(2.0 * s))


def _free_m(lam):
    rho = np.sqrt(lam)
    return -1.0 / (rho * np.tan(rho * np.arccos(np.longdouble(-1.0))))


@pytest.mark.parametrize("name, closed", [("free", _free_m), ("one_jump", _one_jump_m)])
def test_complex_m_matches_closed_form(request, name, closed):
    # the closed forms run in long double.  The scalar walk (Python numbers)
    # and the array walk (numpy) agree to about 1e-15, far inside the
    # 1e-13 error they share, so which of them has the larger worst or
    # mean error is a matter of that 1e-15: at these points the scalar's
    # worst error is 1.0034x (free) and 1.0000x (one_jump) the array's
    p = request.getfixturevalue(name)
    rng = np.random.default_rng(0)
    lam = rng.uniform(-20.0, 400.0, 200) + 1j * rng.choice([-1.0, 1.0], 200) \
        * 10.0 ** rng.uniform(-1.0, 0.7, 200)
    exact = closed(lam.astype(np.clongdouble))
    scalar, array = np.array([weyl_m(p, z).m for z in lam]), weyl_m(p, lam).m
    assert np.max(np.abs(scalar - array) / np.abs(array)) < 1e-14
    err = [np.abs(m - exact) / np.abs(exact) for m in (scalar, array)]
    assert np.max(err[1]) < 1e-12
    assert np.max(err[0]) <= 1.01 * np.max(err[1])
    assert np.mean(err[0]) <= 1.01 * np.mean(err[1])
