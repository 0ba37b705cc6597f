import math

import numpy as np
import pytest

from jumpsl import (
    DomainError,
    JumpCondition,
    ProblemSpec,
    RobinBC,
    asymptotic_eval,
    char_delta,
    constant_potential,
    eigenvalue_guesses,
    reflection_terms,
    sine_sum,
    validate,
)
from jumpsl.propagation import SpectralPoint, fundamental_solution

PI = math.pi


def _alphas(jumps):
    a = [(j.a + j.b) / 2 for j in jumps]
    ap = [(j.a - j.b) / 2 for j in jumps]
    return a, ap


def test_reflection_terms_one_jump(generic):
    terms = reflection_terms(generic, 1)
    j = generic.jumps[0]
    al, alp = (j.a + j.b) / 2, (j.a - j.b) / 2
    assert len(terms) == 2
    assert terms[0].subset == ()
    assert terms[0].coefficient == pytest.approx(al)
    assert terms[0].phase == 0.0
    assert terms[1].subset == (1,)
    assert terms[1].coefficient == pytest.approx(alp)
    assert terms[1].phase == pytest.approx(-2 * j.d)


def test_reflection_terms_two_jumps(two_jump):
    terms = {t.subset: t for t in reflection_terms(two_jump, 2)}
    a, ap = _alphas(two_jump.jumps)
    d1, d2 = (j.d for j in two_jump.jumps)
    assert len(terms) == 4
    # printed pattern: a1 a2; a1' a2 with phase -2d1; a1 a2' with -2d2;
    # a1' a2' with +2d1 - 2d2
    assert terms[()].coefficient == pytest.approx(a[0] * a[1])
    assert terms[(1,)].coefficient == pytest.approx(ap[0] * a[1])
    assert terms[(1,)].phase == pytest.approx(-2 * d1)
    assert terms[(2,)].coefficient == pytest.approx(a[0] * ap[1])
    assert terms[(2,)].phase == pytest.approx(-2 * d2)
    assert terms[(1, 2)].coefficient == pytest.approx(ap[0] * ap[1])
    assert terms[(1, 2)].phase == pytest.approx(2 * d1 - 2 * d2)


def test_reflection_terms_three_jumps(three_jump):
    terms = {t.subset: t for t in reflection_terms(three_jump, 3)}
    a, ap = _alphas(three_jump.jumps)
    d1, d2, d3 = (j.d for j in three_jump.jumps)
    assert len(terms) == 8
    # pairwise pattern +2d_i - 2d_j for i < j
    assert terms[(1, 3)].phase == pytest.approx(2 * d1 - 2 * d3)
    assert terms[(2, 3)].phase == pytest.approx(2 * d2 - 2 * d3)
    # triple: backward-alternating signs ending negative at the largest index
    assert terms[(1, 2, 3)].phase == pytest.approx(-2 * d1 + 2 * d2 - 2 * d3)
    assert terms[(1, 2, 3)].coefficient == pytest.approx(ap[0] * ap[1] * ap[2])
    assert terms[(2,)].coefficient == pytest.approx(a[0] * ap[1] * a[2])


@pytest.mark.parametrize("rho", [math.nan, math.inf, complex(1.0, math.nan),
                                 np.array([40.5, math.inf])])
def test_asymptotic_rejects_non_finite_rho(one_jump, rho):
    for target, x in (("delta", None), ("phi", 1.0), ("phi_prime", 1.0)):
        with pytest.raises(DomainError):
            asymptotic_eval(one_jump, target, x, rho)


@pytest.mark.parametrize("x", [5.0, -1.0, math.inf, math.nan])
def test_asymptotic_rejects_x_outside_the_interval(one_jump, x):
    for target in ("phi", "phi_prime"):
        with pytest.raises(DomainError, match=r"outside \[0, pi\]"):
            asymptotic_eval(one_jump, target, x, 3.0)


@pytest.mark.parametrize("count", [0, -3, 2.5, 2.0, True, "3", None])
def test_eigenvalue_guesses_count_must_be_a_positive_integer(one_jump, count):
    with pytest.raises(DomainError, match="count must be an integer >= 1"):
        eigenvalue_guesses(one_jump, count)


def test_asymptotic_free_is_exact(free):
    # no jumps, q = 0: the "asymptotic" phi is the exact solution
    rho = 4.7
    for x in (0.5, 1.9, 3.0):
        assert asymptotic_eval(free, "phi", x, rho) == pytest.approx(
            math.cos(rho * x), rel=1e-12)
        assert asymptotic_eval(free, "phi_prime", x, rho) == pytest.approx(
            -rho * math.sin(rho * x), rel=1e-12)
    assert asymptotic_eval(free, "delta", None, rho) == pytest.approx(
        rho * math.sin(rho * PI), rel=1e-12)


def test_asymptotic_matches_exact_delta_at_large_rho(three_jump):
    for rho in (40.0, 80.0):
        exact = char_delta(three_jump, rho * rho).real
        asym = complex(asymptotic_eval(three_jump, "delta", None, rho)).real
        assert abs(exact - asym) / abs(rho) < 0.5   # remainder is O(1) in rho


def test_scaled_remainder_does_not_grow(three_jump):
    xs = np.linspace(0.05, PI - 0.05, 30)
    xs = np.array([x for x in xs
                   if min(abs(x - j.d) for j in three_jump.jumps) > 0.03])

    def worst(rho):
        sp = SpectralPoint.from_rho(rho)
        phi = fundamental_solution(three_jump, "phi", sp)
        num = phi.eval(xs)[0]
        asym = np.array([asymptotic_eval(three_jump, "phi", float(x), rho)
                         for x in xs])
        return np.max(np.abs(num - asym) * abs(rho))

    w40, w80, w160 = worst(40.0), worst(80.0), worst(160.0)
    assert w80 / w40 <= 1.2
    assert w160 / w80 <= 1.2


def test_eigenparameter_rho_powers(eig_desk):
    rho = 9.0
    x = 1.1
    # phi and phi' carry rho^2, Delta carries -rho^4 relative to Robin form
    base = asymptotic_eval(eig_desk, "phi", x, rho)
    assert base == pytest.approx(rho ** 2 * math.cos(rho * x), rel=1e-12)
    d = asymptotic_eval(eig_desk, "delta", None, rho)
    assert d == pytest.approx(-rho ** 5 * math.sin(rho * PI), rel=1e-12)


def test_sine_sum_zero_guesses_free(free):
    guesses = eigenvalue_guesses(free, 6)
    assert np.allclose(guesses, [0, 1, 2, 3, 4, 5], atol=1e-10)
    cos_guesses = eigenvalue_guesses(free, 4, trig="cos")
    assert np.allclose(cos_guesses, [0.5, 1.5, 2.5, 3.5], atol=1e-10)


@pytest.mark.parametrize("trig", ["sin", "cos"])
def test_guesses_match_brentq(four_jump, trig):
    from scipy.optimize import brentq

    count, step = 402, 0.05
    grid = np.arange(step, 500.0, step)
    vals = sine_sum(four_jump, grid, trig)
    ref = [0.0] if sine_sum(four_jump, 0.0, trig) == 0.0 else []
    for i in np.flatnonzero(vals[:-1] * vals[1:] <= 0.0):
        if vals[i] == 0.0:
            ref.append(grid[i])
        elif vals[i + 1] != 0.0:
            ref.append(brentq(lambda r: sine_sum(four_jump, r, trig),
                              grid[i], grid[i + 1], xtol=1e-13))
    guesses = eigenvalue_guesses(four_jump, count, trig=trig)
    assert len(guesses) == count
    assert np.max(np.abs(np.array(guesses) - ref[:count])) <= 1e-12


def test_sine_sum_one_jump(one_jump):
    # alpha = 5/4, alpha' = 3/4, phase -pi: sum = (5/4) sin rho pi
    #   + (3/4) sin rho(pi - pi) with d = pi/2, so zeros stay at integers
    guesses = eigenvalue_guesses(one_jump, 5)
    assert np.allclose(guesses, [0, 1, 2, 3, 4], atol=1e-9)


def test_domain_errors(three_jump):
    with pytest.raises(DomainError):
        asymptotic_eval(three_jump, "phi", three_jump.jumps[0].d, 10.0)
    with pytest.raises(DomainError):
        asymptotic_eval(three_jump, "phi", 1.0, 0.0)
    with pytest.raises(DomainError):
        reflection_terms(three_jump, 7)
