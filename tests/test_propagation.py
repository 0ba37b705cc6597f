import cmath
import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import jumpsl
from jumpsl import (
    DomainError,
    FitSpec,
    JumpCondition,
    MismatchError,
    PiecewisePolynomial,
    ProblemSpec,
    RobinBC,
    SampledGrid,
    SpectralPoint,
    constant_potential,
    fundamental_solution,
    initial_state,
    modified_wronskian,
    pack_parameters,
    unpack_parameters,
    validate,
)
from jumpsl import inverse, propagation
from jumpsl.propagation import (
    CPM_DENSITY,
    StateVector,
    _stack,
    apply_jump,
    propagate_endpoints_batch,
    propagate_interval,
)
from jumpsl.spectrum import _norming_data, delta_batch, eigenvalues

PI = math.pi


def test_spectral_point_branches():
    sp = SpectralPoint.from_lambda(-4.0)
    assert sp.rho.imag == pytest.approx(2.0)
    sp = SpectralPoint.from_lambda(9.0)
    assert sp.rho == pytest.approx(3.0)
    sp2 = SpectralPoint.from_rho(3.0)
    assert sp2.lam == pytest.approx(9.0)


@pytest.mark.parametrize("lam", [7.3, -5.1, 2.0 + 3.0j, 0.0])
def test_constant_step_closed_form(lam):
    # q = 0: y(x) = cos(rho x) for the Neumann-type start (1, 0)
    sp = SpectralPoint.from_lambda(lam)
    state = StateVector(1.0, 0.0, 0.0)
    out = propagate_interval(0.0, sp, state, 0.0, 1.3)
    rho = np.sqrt(complex(lam))
    if rho == 0:
        expect_y, expect_yp = 1.0, 0.0
    else:
        expect_y = np.cos(rho * 1.3)
        expect_yp = -rho * np.sin(rho * 1.3)
    assert complex(out.y) == pytest.approx(complex(expect_y), rel=1e-13, abs=1e-13)
    assert complex(out.yp) == pytest.approx(complex(expect_yp), rel=1e-13, abs=1e-13)


def test_constant_step_backward_inverts():
    sp = SpectralPoint.from_lambda(6.7)
    state = StateVector(0.42, -1.1, 0.0)
    fwd = propagate_interval(0.3, sp, state, 0.0, 2.0)
    back = propagate_interval(0.3, sp, fwd, 2.0, 0.0)
    assert complex(back.y) == pytest.approx(0.42, rel=1e-12)
    assert complex(back.yp) == pytest.approx(-1.1, rel=1e-12)


def test_apply_jump_and_inverse():
    j = JumpCondition(1.0, 2.0, 0.5, 0.7)
    s = StateVector(1.3, -0.4, 1.0)
    t = apply_jump(j, s)
    assert t.y == pytest.approx(2.0 * 1.3)
    assert t.yp == pytest.approx(0.5 * -0.4 + 0.7 * 1.3)
    back = apply_jump(j, t, inverse=True)
    assert back.y == pytest.approx(1.3, rel=1e-14)
    assert back.yp == pytest.approx(-0.4, rel=1e-14)


def test_phi_chi_free_closed_forms(free):
    lam = 5.3
    rho = math.sqrt(lam)
    sp = SpectralPoint.from_lambda(lam)
    phi = fundamental_solution(free, "phi", sp)
    chi = fundamental_solution(free, "chi", sp)
    xs = np.linspace(0.0, PI, 17)
    y, yp = phi.eval(xs)
    assert np.allclose(y, np.cos(rho * xs), atol=1e-12)
    assert np.allclose(yp, -rho * np.sin(rho * xs), atol=1e-12)
    y, _ = chi.eval(xs)
    assert np.allclose(y, np.sin(rho * xs) / rho, atol=1e-12)


def test_psi_free_closed_form(free):
    lam = 3.7
    rho = math.sqrt(lam)
    sp = SpectralPoint.from_lambda(lam)
    psi = fundamental_solution(free, "psi", sp)
    xs = np.linspace(0.0, PI, 13)
    y, yp = psi.eval(xs)
    assert np.allclose(y, np.cos(rho * (PI - xs)), atol=1e-12)
    assert np.allclose(yp, rho * np.sin(rho * (PI - xs)), atol=1e-12)


def test_jump_limits_at_node(one_jump):
    sp = SpectralPoint.from_lambda(4.2)
    phi = fundamental_solution(one_jump, "phi", sp)
    d = one_jump.jumps[0].d
    ym, _ = phi.eval(np.array([d]), side="-")
    yp_, _ = phi.eval(np.array([d]), side="+")
    assert complex(yp_[0]) == pytest.approx(2.0 * complex(ym[0]), rel=1e-12)


def test_wronskian_constant_across_jumps(generic, two_jump, four_jump, cubic):
    rng = np.random.default_rng(3)
    for p in (generic, two_jump, four_jump, cubic):
        for _ in range(3):
            lam = complex(rng.uniform(-5, 40), rng.uniform(-3, 3))
            sp = SpectralPoint.from_lambda(lam)
            phi = fundamental_solution(p, "phi", sp)
            psi = fundamental_solution(p, "psi", sp)
            xs = np.linspace(1e-3, PI - 1e-3, 50)
            vals = np.array([modified_wronskian(p, phi, psi, x) for x in xs])
            spread = np.max(np.abs(vals - vals[0]))
            assert spread < 1e-9 * max(1.0, abs(vals[0]))


def test_wronskian_mismatched_lambda(free):
    phi = fundamental_solution(free, "phi", SpectralPoint.from_lambda(1.0))
    psi = fundamental_solution(free, "psi", SpectralPoint.from_lambda(2.0))
    with pytest.raises(MismatchError):
        modified_wronskian(free, phi, psi, 1.0)


def test_magnus_constant_q_matches_exact_step():
    # a callable q takes the Gauss-Magnus path; with q constant, a = 0 and
    # every step is the exact transfer matrix
    sp = SpectralPoint.from_lambda(11.0)
    s0 = StateVector(1.0, 0.0, 0.0)
    exact = propagate_interval(0.2, sp, s0, 0.0, 2.5)
    magnus = propagate_interval(lambda x: 0.2 + 0.0 * x, sp, s0, 0.0, 2.5)
    assert complex(magnus.y) == pytest.approx(complex(exact.y), rel=1e-12)
    assert complex(magnus.yp) == pytest.approx(complex(exact.yp), rel=1e-12)


def test_errors_of_the_python_walk_propagate():
    # a walk of one non-real lambda on Python numbers turns only cmath's
    # overflow into NaN: an error of the potential or of the start reaches
    # the caller, as on the numpy walk
    def bad(x):
        raise ValueError("q failed")

    sp, s0 = SpectralPoint.from_lambda(11.0 + 0.5j), StateVector(1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="q failed"):
        propagate_interval(bad, sp, s0, 0.0, 2.5)
    cell = validate(ProblemSpec(constant_potential(0.2), RobinBC(0.0, 0.0)))
    with pytest.raises(ValueError):
        propagate_endpoints_batch(cell, 11.0 + 0.5j, (np.ones(2), 0.0))
    y, yp = propagate_endpoints_batch(cell, -1e6 - 1j, (1.0, 0.0))
    assert cmath.isnan(y) and cmath.isnan(yp)


def test_magnus_cubic_q_matches_dop853():
    from scipy.integrate import solve_ivp

    pot = PiecewisePolynomial(coefficients=((0.5, 0.3, -0.1, 0.02),))
    lam = 7.3
    sp = SpectralPoint.from_lambda(lam)
    s0 = StateVector(1.0, -0.2, 0.0)
    magnus = propagate_interval(lambda x: pot(x), sp, s0, 0.0, 3.0)
    ref = solve_ivp(lambda x, s: [s[1], (pot(x) - lam) * s[0]], (0.0, 3.0),
                    [1.0, -0.2], method="DOP853", rtol=1e-12, atol=1e-12)
    assert complex(magnus.y) == pytest.approx(ref.y[0][-1], rel=1e-9)
    assert complex(magnus.yp) == pytest.approx(ref.y[1][-1], rel=1e-9)


def test_batch_matches_single(generic, cubic):
    lams = np.array([2.0, -3.0, 7.5 + 1.0j])
    for p in (generic, cubic):
        y0, yp0 = 1.0, -p.boundary.h
        ys, yps = propagate_endpoints_batch(p, lams, (y0, yp0))
        for i, lam in enumerate(lams):
            sp = SpectralPoint.from_lambda(lam)
            phi = fundamental_solution(p, "phi", sp)
            y, yp = phi.state_pi
            assert complex(ys[i]) == pytest.approx(complex(y), rel=1e-11)
            assert complex(yps[i]) == pytest.approx(complex(yp), rel=1e-11)


def test_batch_backward_matches_forward_wronskian(two_jump):
    # psi computed backward must satisfy the jump conditions: check by
    # comparing W(phi, psi) evaluated near 0 and near pi
    lam = np.array([5.5 + 0.25j])
    bc = two_jump.boundary
    y, yp = propagate_endpoints_batch(two_jump, lam, (1.0, -bc.H), backward=True)
    sp = SpectralPoint.from_lambda(complex(lam[0]))
    psi = fundamental_solution(two_jump, "psi", sp)
    y2, yp2 = psi.state0
    assert complex(y[0]) == pytest.approx(complex(y2), rel=1e-11)
    assert complex(yp[0]) == pytest.approx(complex(yp2), rel=1e-11)


def test_variational_derivative_matches_fd(generic, cubic):
    lam = np.array([4.1 + 0j])
    eps = 1e-6
    for p in (generic, cubic):
        y0, yp0 = 1.0, -p.boundary.h
        y, yp, u, up = propagate_endpoints_batch(p, lam, (y0, yp0, 0.0, 0.0))
        yp1, ypp1 = propagate_endpoints_batch(p, lam + eps, (y0, yp0))
        ym1, ypm1 = propagate_endpoints_batch(p, lam - eps, (y0, yp0))
        assert complex(u[0]) == pytest.approx(
            complex((yp1[0] - ym1[0]) / (2 * eps)), rel=1e-6)
        assert complex(up[0]) == pytest.approx(
            complex((ypp1[0] - ypm1[0]) / (2 * eps)), rel=1e-6)


def test_initial_state_variants(free, eig_desk):
    (y, yp), (du, dup) = initial_state(free, "phi", 2.0)
    assert (y, yp, du, dup) == (1.0, -0.0, 0.0, 0.0)
    (y, yp), (du, dup) = initial_state(eig_desk, "phi", 2.0)
    bc = eig_desk.boundary
    assert y == pytest.approx(2.0 - bc.h2)
    assert yp == pytest.approx(bc.h3 - 2.0 * bc.h1)
    assert (du, dup) == (1.0, -bc.h1)
    (y, yp), _ = initial_state(eig_desk, "chi", 2.0)
    assert y == pytest.approx(-1.0 / bc.r1)
    assert yp == pytest.approx(bc.h1 / bc.r1)


def test_propagate_interval_rejects_straddle(generic):
    sp = SpectralPoint.from_lambda(1.0)
    d = generic.jumps[0].d
    piece = generic.pieces[0]
    with pytest.raises(DomainError):
        propagate_interval(piece, sp, StateVector(1.0, 0.0, d - 0.1),
                           d - 0.1, d + 0.1)
    assert piece.xr <= d + 1e-15


def test_propagate_interval_piece_and_empty_interval(generic, cubic):
    sp = SpectralPoint.from_lambda(7.3 + 0.2j)
    start = StateVector(1.0, -0.4, 0.3)
    for piece in (generic.pieces[0], cubic.pieces[0], cubic.pieces[1]):
        # a cell, or part of it, steps as the float or callable q on it does
        q = piece.qfun if piece.q_const is None else piece.q_const
        for x0, x1 in ((piece.xl, piece.xr), (piece.xr, piece.xl),
                       (piece.xl + 0.1, piece.xr - 0.2)):
            got = propagate_interval(piece, sp, start, x0, x1)
            ref = propagate_interval(q, sp, start, x0, x1)
            assert got == ref and got.x == x1
    # phi from 0 to the jump point on a cell is the dense solution there
    d = generic.jumps[0].d
    phi = fundamental_solution(generic, "phi", sp)
    end = propagate_interval(generic.pieces[0], sp, StateVector(*phi.state0, 0.0), 0.0, d)
    assert (end.y, end.yp) == pytest.approx(phi.eval(d, side="-"), rel=1e-13)
    # an empty interval returns the start state as complex data at x_to
    for q in (0.7, np.cos, generic.pieces[0]):
        out = propagate_interval(q, sp, start, 0.8, 0.8)
        assert out == StateVector(1.0 + 0.0j, -0.4 + 0.0j, 0.8)
        assert isinstance(out.y, complex)


# ----------------------------------------------------------------------
# bit-identity of the blocked step loop against a per-step reference
# ----------------------------------------------------------------------

def _ref_cs(w):
    z = np.sqrt(np.asarray(w, dtype=complex))
    with np.errstate(divide="ignore", invalid="ignore"):
        S = np.where(z == 0.0, 1.0, np.sin(z) / z)
    return np.cos(z), S


def _ref_cs_d(w):
    w = np.asarray(w, dtype=complex)
    C, S = _ref_cs(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        D = np.where(np.abs(w) < 1e-3,
                     -1.0 / 6.0 + w * (1.0 / 60.0 + w * (-1.0 / 1680.0 + w / 90720.0)),
                     (C - S) / (2.0 * w))
    return C, S, D


def _ref_step(h, lam, qb, a, y, yp):
    ql = qb - lam
    C, S = _ref_cs(ql * (-h * h) - a * a)
    hS, aS = h * S, a * S
    return (C + aS) * y + hS * yp, (ql * hS) * y + (C - aS) * yp


def _ref_rows(h, lam, qb, a):
    """t11, t21, hS, t22, d11, d21, d12, d22 of one step."""
    ql = qb - lam
    C, S, D = _ref_cs_d(ql * (-h * h) - a * a)
    h2 = h * h
    hS, aS, aD, halfS = h * S, a * S, a * D, 0.5 * S
    return (C + aS, ql * hS, hS, C - aS, h2 * (aD - halfS),
            (h2 * h) * (ql * D) - hS, (h2 * h) * D, -h2 * (aD + halfS))


def _ref_step_var(h, lam, qb, a, y, yp, u, up):
    t11, t21, hS, t22, d11, d21, d12, d22 = _ref_rows(h, lam, qb, a)
    return (t11 * y + hS * yp, t21 * y + t22 * yp,
            t11 * u + hS * up + d11 * y + d12 * yp,
            t21 * u + t22 * up + d21 * y + d22 * yp)


def _py_step(h, lam, qb, a, const, state):
    """One step of (y, y') at one non-real lambda on Python numbers: a step
    on a constant cell (a = 0) takes C and S from cmath, every other step
    the rows of :func:`_ref_rows` on one element; products and sums in the
    order of :func:`_ref_step`."""
    if const:
        ql = qb - lam
        z = cmath.sqrt(ql * (-h * h))
        hS = h * (cmath.sin(z) / z if z != 0 else 1.0)
        t11 = t22 = cmath.cos(z)
        t21 = ql * hS
    else:
        t11, t21, hS, t22 = (v.item() for v in _ref_rows(h, np.array([lam]), qb, a)[:4])
    y, yp = state
    return t11 * y + hS * yp, t21 * y + t22 * yp


def _py_jump(jump, state, inverse):
    """``apply_jump`` on (y, y') of Python numbers."""
    y, yp = state
    if inverse:
        y = y / jump.a
        return y, (yp - jump.c * y) / jump.b
    return jump.a * y, jump.b * yp + jump.c * y


def _ref_zeros(h, lam, qb, a, before, after):
    """Zeros of y on one step of real lambda: a sign change of y if the
    step turns (s y, a y + h y') through s < pi, else the multiples of pi
    that its angle passes.  The reference steps run in complex."""
    s = np.sqrt(np.maximum((qb - lam) * (-h * h) - a * a, 0.0))
    y0, yp0, y1, yp1 = (np.real(v) for v in before[:2] + after[:2])
    flip = (y0 != 0.0) & (np.sign(y0) != np.sign(y1))
    start = np.arctan2(s * y0, a * y0 + h * yp0)
    end = np.arctan2(s * y1, a * y1 + h * yp1)
    # each angle's multiple of pi from the sign of y, the end's lifted by
    # the whole turns that bring it nearest start + s
    turns = [np.where(y > 0.0, 0.0, np.where(y < 0.0, -1.0, np.floor(t / PI)))
             for t, y in ((start, y0), (end, y1))]
    lift = 2.0 * np.round((start + s - end) / (2.0 * PI))
    return np.where(s < PI, flip, turns[1] + lift - turns[0])


def _ref_walk(problem, lam, state, backward, density, python=False):
    """One step at a time, as scalars per step; returns the end state, the
    states at the step nodes of every cell, in propagation order, and for
    real lambda the zeros of y counted step by step (else 0).  ``python``
    walks (y, y') of one non-real lambda, a one-element array, on Python
    numbers (:func:`_py_step`, :func:`_py_jump`) and returns one-element
    arrays."""
    step = _ref_step if len(state) == 2 else _ref_step_var
    if python:
        lam, state = lam.item(), tuple(v.item() for v in state)
    pieces, jumps = problem.pieces, problem.jump_after_piece
    cells, zeros = {}, 0
    for i in (range(len(pieces) - 1, -1, -1) if backward else range(len(pieces))):
        piece = pieces[i]
        if backward and jumps[i] is not None:
            state = _py_jump(jumps[i], state, True) if python else sum(
                (apply_jump(jumps[i], state[k:k + 2], inverse=True)
                 for k in range(0, len(state), 2)), ())
        x0, x1 = (piece.xr, piece.xl) if backward else (piece.xl, piece.xr)
        if piece.q_const is not None:
            h, qbs, avals = x1 - x0, [piece.q_const], [0.0]
        else:
            n = max(32, int(math.ceil(abs(x1 - x0) * density)))
            h = (x1 - x0) / n
            xs = x0 + h * np.arange(n)
            q1 = piece.qfun(xs + (0.5 - math.sqrt(3.0) / 6.0) * h)
            q2 = piece.qfun(xs + (0.5 + math.sqrt(3.0) / 6.0) * h)
            qbs = (0.5 * (q1 + q2)).tolist()
            avals = (math.sqrt(3.0) / 12.0 * h * h * (q1 - q2)).tolist()
        cells[i] = [state]
        for qb, a in zip(qbs, avals):
            if python:
                state = _py_step(h, lam, qb, a, piece.q_const is not None, state)
            else:
                state = step(h, lam, qb, a, *state)
            if not np.iscomplexobj(lam):
                zeros = zeros + _ref_zeros(h, lam, qb, a, cells[i][-1], state)
            cells[i].append(state)
        if not backward and jumps[i] is not None:
            state = _py_jump(jumps[i], state, False) if python else sum(
                (apply_jump(jumps[i], state[k:k + 2]) for k in range(0, len(state), 2)), ())
    if python:
        state = tuple(np.array([v]) for v in state)
    return state, cells, zeros


@pytest.fixture(scope="module")
def mathieu():
    x = np.linspace(0.0, PI, 513)
    return validate(ProblemSpec(SampledGrid(x, 4.0 * np.cos(2.0 * x), order=3),
                                RobinBC(0.0, 0.0)))


@pytest.mark.parametrize("name", ["cubic", "mathieu", "four_jump", "one_jump", "eig_desk"])
@pytest.mark.parametrize("n", [1, 40, 5000])
def test_blocked_batch_bit_identical_to_step_loop(name, n, request):
    # n = 5000 exceeds the block bound, so each block holds a single step
    p = request.getfixturevalue(name)
    lam = np.linspace(-5.0, 900.0, n) + 1j * np.linspace(0.0, 2.0, n)
    y0, yp0 = 1.0 + 0.0 * lam, -0.4 + 0.0 * lam
    du0, dup0 = 0.3 + 0.0 * lam, -0.7 + 0.0 * lam
    for backward in (False, True):
        got = propagate_endpoints_batch(p, lam, (y0, yp0), backward=backward,
                                        cpm_density=96)
        ref, _, _ = _ref_walk(p, lam, (y0, yp0), backward, 96)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))
        got = propagate_endpoints_batch(p, lam, (y0, yp0, du0, dup0),
                                        backward=backward, cpm_density=96)
        ref, _, _ = _ref_walk(p, lam, (y0, yp0, du0, dup0), backward, 96)
        assert len(got) == 4
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))


@pytest.mark.parametrize("name", ["four_jump", "one_jump", "eig_desk", "cubic", "mathieu"])
def test_0d_lambda_bit_identical_to_step_loop(name, request):
    # a 0-d lambda walks as one element and returns 0-d rows; (y, y') of
    # one non-real lambda walks as the step loop on Python numbers, a
    # variational pair or a real lambda (57.1) as the step loop on numpy
    p = request.getfixturevalue(name)
    for lam in np.array([3.7 + 0.9j, -12.3 + 2.1j, 410.2 - 0.3j, 57.1]):
        one = np.array([lam])
        start = (1.0, -0.4, 0.3, -0.7)
        for backward in (False, True):
            for state in (start[:2], start):
                got = propagate_endpoints_batch(p, lam, state, backward=backward,
                                                cpm_density=96)
                walk = propagate_endpoints_batch(p, one, state, backward=backward,
                                                 cpm_density=96)
                ref, _, _ = _ref_walk(p, one, tuple(v + 0.0 * one for v in state),
                                      backward, 96,
                                      python=lam.imag != 0.0 and len(state) == 2)
                assert all(np.ndim(g) == 0 and np.array_equal(g, w[0])
                           for g, w in zip(got, walk))
                assert all(np.array_equal(w, r) for w, r in zip(walk, ref))


def test_0d_complex_lambda_equals_one_element(four_jump):
    # a 0-d lambda and a one-element array take the same walk
    rng = np.random.default_rng(20)
    z = rng.uniform(-20.0, 400.0, 200) + 1j * rng.uniform(-5.0, 5.0, 200)
    for derivative in (False, True):
        got = np.array([delta_batch(four_jump, v, derivative=derivative) for v in z])
        one = np.array([delta_batch(four_jump, np.array([v]), derivative=derivative)
                        for v in z])
        assert np.array_equal(got, one[..., 0])


@pytest.mark.parametrize("name", ["cubic", "mathieu", "four_jump", "one_jump", "eig_desk"])
@pytest.mark.parametrize("n", [1, 40, 5000])
def test_walk_zero_count_matches_step_loop(name, n, request):
    # the walk counts each block of steps as it leaves it; n = 5000 puts
    # one step in each block
    p = request.getfixturevalue(name)
    lam = np.linspace(-5.0, 900.0, n)
    start = (1.0 + 0.0 * lam, -0.4 + 0.0 * lam, 0.3 + 0.0 * lam, -0.7 + 0.0 * lam)
    for derivative in (False, True):
        state = start if derivative else start[:2]
        *got, zeros = propagate_endpoints_batch(p, lam, state, cpm_density=96,
                                                count_zeros=True)
        ref, _, ref_zeros = _ref_walk(p, lam, state, False, 96)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))
        assert np.array_equal(zeros, ref_zeros)
        assert n == 1 or ref_zeros[-1] >= 29      # rho = 30 at lambda = 900


@pytest.mark.parametrize("name", ["cubic", "mathieu", "four_jump", "one_jump", "eig_desk"])
def test_dense_nodes_bit_identical_to_step_loop(name, request):
    p = request.getfixturevalue(name)
    sp = SpectralPoint.from_lambda(37.3 + 0.4j)
    lam = np.array([sp.lam])
    for kind in ("phi", "psi"):
        (y0, yp0), _ = initial_state(p, kind, sp.lam)
        start = (np.array([complex(y0)]), np.array([complex(yp0)]))
        _, cells, _ = _ref_walk(p, lam, start, kind == "psi", 160)
        sol = fundamental_solution(p, kind, sp)
        for i, cell in cells.items():
            assert np.array_equal(sol._pieces[i].ys, np.concatenate([s[0] for s in cell]))
            assert np.array_equal(sol._pieces[i].yps, np.concatenate([s[1] for s in cell]))


@pytest.mark.parametrize("name", ["cubic", "mathieu", "four_jump", "eig_desk", "one_jump"])
def test_real_lambda_bit_identical_to_complex(name, request):
    # real lambda runs in float64 and must give the real parts of the
    # complex evaluation, also where w <= 0 (lambda < 0, lambda below q,
    # lambda = q on a constant cell)
    p = request.getfixturevalue(name)
    lam = np.concatenate([np.linspace(-60.0, 4.0, 129), [0.0, 0.3],
                          np.linspace(4.0, 1500.0, 300)])
    for left in ("spec", "dirichlet"):
        got = delta_batch(p, lam, left=left)
        ref = delta_batch(p, lam.astype(complex), left=left)
        assert got.dtype == np.float64 and np.array_equal(got, ref.real)
        got = delta_batch(p, lam, derivative=True, left=left)
        ref = delta_batch(p, lam.astype(complex), derivative=True, left=left)
        assert all(g.dtype == np.float64 and np.array_equal(g, r.real)
                   for g, r in zip(got, ref))
    # gamma: the Lagrange bracket of spectral_data, propagated in complex
    # with u started from the lambda-derivative of phi's data
    lams = eigenvalues(p, 60, verify=False).lambdas
    gamma, _ = _norming_data(p, lams, CPM_DENSITY)
    zl = lams.astype(complex)
    start, dstart = initial_state(p, "phi", zl)
    y, yp, u, up = propagate_endpoints_batch(p, zl, start + dstart)
    norm2 = p.w_end * (u * yp - y * up).real
    if p.variant == "eigenparameter":
        bc = p.boundary
        norm2 += (p.w_end / bc.r2) * (yp + bc.H1 * y).real ** 2
    assert gamma.dtype == np.float64 and np.array_equal(gamma, 1.0 / norm2)


@pytest.mark.parametrize("n", [25, 3000])
def test_stack_of_constant_cells_bit_identical_to_single_walks(n):
    # the full-spectral fit's constant-q problem (two constant cells) and a
    # copy with h moved walk as one stack: grouped cells at 25 lambda per
    # row, one cell per coefficient call at 3000
    _assert_stack_matches_single_walks(
        [validate(ProblemSpec(constant_potential(0.0), RobinBC(h, -0.4),
                              (JumpCondition(PI / 2, 2.0, 0.5, 0.35),)))
         for h in (0.7, 0.7 + 1e-3)], n)


def _assert_rows_walk_alone(got, problems, lam, du, backward, **kw):
    """Row r of the stacked end state ``got`` is problem r's own walk of phi."""
    for r, p in enumerate(problems):
        ref = propagate_endpoints_batch(p, lam[r], initial_state(p, "phi", lam[r])[0] + du,
                                        backward=backward, **kw)
        assert all(np.array_equal(g[r], f) for g, f in zip(got, ref))


def _assert_stack_matches_single_walks(problems, n, **kw):
    """Walks of the stacked problems on a 2-D lambda, real and complex,
    plain and variational, forward and backward, and the zero count,
    array_equal to each problem's own walks."""
    stack = _stack(problems)
    base = np.linspace(-5.0, 400.0, n) + 0.37 * np.arange(2)[:, None]
    for lam in (base, base + 0.5j):
        for backward in (False, True):
            for du in ((), (0.3, -0.7)):
                start = initial_state(stack, "phi", lam)[0] + du
                got = propagate_endpoints_batch(stack, lam, start, backward=backward, **kw)
                _assert_rows_walk_alone(got, problems, lam, du, backward, **kw)
    *_, zeros = propagate_endpoints_batch(stack, base, initial_state(stack, "phi", base)[0],
                                          count_zeros=True, **kw)
    for r, p in enumerate(problems):
        *_, ref = propagate_endpoints_batch(p, base[r], initial_state(p, "phi", base[r])[0],
                                            count_zeros=True, **kw)
        assert np.array_equal(zeros[r], ref)


@pytest.mark.parametrize("n", [25, 700])
def test_stack_of_stepped_cells_bit_identical_to_single_walks(n):
    # criterion 11's half-inverse truth and a copy with q1 moved walk as one
    # stack: each step's products go through one product array over the
    # (problems, lambda) rows, blocks of 81 steps at 25 lambda per row and
    # of 2 steps at 700
    _assert_stack_matches_single_walks([validate(ProblemSpec(
        PiecewisePolynomial(coefficients=((0.25, -0.1, 0.2, 0.0), (0.1 + dq, 0.3, -0.2, 0.08)),
                            breakpoints=(PI / 2,)),
        RobinBC(0.2, -0.4))) for dq in (0.0, 1e-3)], n, cpm_density=96)


def test_dense_evaluation_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call
    src = str(Path(jumpsl.__file__).resolve().parents[1])
    code = ("import sys, jumpsl\n"
            "p = jumpsl.validate(jumpsl.ProblemSpec(jumpsl.constant_potential(0.0), "
            "jumpsl.RobinBC(0.0, 0.0)))\n"
            "jumpsl.fundamental_solution(p, 'phi', jumpsl.SpectralPoint.from_lambda(2.0))"
            ".eval(0.5)\n"
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "False"


def test_constant_cell_groups_keep_memory_bounded(free, four_jump):
    # four_jump's five constant cells go through one coefficient call per
    # group of at most _BLOCK_ELEMS entries, so a walk of 20,000 lambda
    # (one cell per group) needs no more memory than the one-cell problem
    lam = np.linspace(-5.0, 900.0, 20_000)
    peaks = []
    for p in (free, four_jump):
        tracemalloc.start()
        delta_batch(p, lam, derivative=True)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


# ----------------------------------------------------------------------
# lambda-independent step data: kept per problem, shared across stack rows
# ----------------------------------------------------------------------

_HALF_STEPS = math.ceil(PI / 2 * 96)       # steps on each cell of half at density 96


def _half_jacobian_problems():
    """The shifted problems of a half-inverse Jacobian at criterion 11's
    truth (H and q1 unknown; q known on cell 0), built as
    ``inverse._jacobian`` builds them, and the truth's 40 roots."""
    truth = validate(ProblemSpec(PiecewisePolynomial(
        coefficients=((0.25, -0.1, 0.2, 0.0), (0.1, 0.3, -0.2, 0.08)), breakpoints=(PI / 2,)),
        RobinBC(0.2, -0.4)))
    roots = eigenvalues(truth, 40, cpm_density=96).lambdas
    fs = FitSpec(mode="half_inverse", template=truth, unknowns=("H", "q1"),
                 targets_lambda=tuple(roots), cpm_density=96)
    x = pack_parameters(fs)
    steps = inverse._FD_STEP * np.maximum(1.0, np.abs(x))
    return [unpack_parameters(fs, x + sign * e)
            for sign in (1.0, -1.0) for e in np.diag(steps)], roots


def _spy_coefs(monkeypatch):
    """The (lambda rows, steps) of every later ``_coefs`` call."""
    calls, coefs = [], propagation._coefs

    def spy(h, lam, qb, *args):
        calls.append((lam.shape[0], len(qb)))
        return coefs(h, lam, qb, *args)

    monkeypatch.setattr(propagation, "_coefs", spy)
    return calls


@pytest.mark.parametrize("backward", [False, True])
def test_half_inverse_stack_builds_known_cell_rows_once(backward, monkeypatch):
    # every shifted problem has cell 0's q, so on tiled lambda rows that
    # cell's step rows are built for one row and broadcast; cell 1's for all
    problems, roots = _half_jacobian_problems()
    stack, tiled = _stack(problems), np.tile(roots, (len(problems), 1))
    calls = _spy_coefs(monkeypatch)
    for lam in (tiled, tiled + 0.5j):
        for du in ((), (0.0, 0.0)):         # the plain start and the norm start
            calls.clear()
            got = propagate_endpoints_batch(stack, lam, initial_state(stack, "phi", lam)[0] + du,
                                            backward=backward, cpm_density=96)
            rows = [r for r, _ in calls]
            assert rows == sorted(rows, reverse=backward)       # cell 0 first forward
            assert sum(n for r, n in calls if r == 1) == _HALF_STEPS
            assert sum(n for r, n in calls if r == len(problems)) == _HALF_STEPS
            _assert_rows_walk_alone(got, problems, lam, du, backward, cpm_density=96)


def test_stack_on_unequal_lambda_rows_builds_every_row(monkeypatch):
    problems, roots = _half_jacobian_problems()
    stack, lam = _stack(problems), roots + 0.37 * np.arange(len(problems))[:, None]
    calls = _spy_coefs(monkeypatch)
    got = propagate_endpoints_batch(stack, lam, initial_state(stack, "phi", lam)[0],
                                    cpm_density=96)
    assert {r for r, _ in calls} == {len(problems)}
    assert sum(n for _, n in calls) == 2 * _HALF_STEPS
    # cell 0 keeps one q column all the same, cell 1 one per problem
    qcols = [cell[5][96][2].shape for cell in stack.layout[0][0]]
    assert qcols == [(_HALF_STEPS, 1), (_HALF_STEPS, len(problems))]
    _assert_rows_walk_alone(got, problems, lam, (), False, cpm_density=96)


def test_walks_sample_q_once_per_cell_and_direction(cubic, monkeypatch):
    p = validate(cubic.spec)                # a problem no walk has seen
    samples, call = [], PiecewisePolynomial.__call__
    monkeypatch.setattr(PiecewisePolynomial, "__call__",
                        lambda self, x: samples.append(np.shape(x)) or call(self, x))
    for backward in (False, True):
        for lam, state in ((np.linspace(-5.0, 900.0, 40), (1.0, -0.4)),
                           (np.array([37.3]), (1.0, -0.4, 0.3, -0.7)),
                           (np.array([37.3 + 0.4j]), (1.0, -0.4))):   # the Python walk
            propagate_endpoints_batch(p, lam, state, backward=backward, cpm_density=96)
    assert len(samples) == 4                # two stepped cells, two directions
    propagate_endpoints_batch(p, np.array([5.0]), (1.0, -0.4), cpm_density=160)
    assert len(samples) == 6


def test_step_memo_dies_with_its_problem(cubic):
    lam = np.linspace(1.0, 50.0, 5)
    p = validate(cubic.spec)
    stack = _stack([p, p])
    refs = []
    for walker in (p, stack):
        propagate_endpoints_batch(walker, lam if walker is p else np.tile(lam, (2, 1)),
                                  (1.0, -0.4), cpm_density=96)
        memo = next(cell[5] for cell in walker.layout[0][0] if cell[1].q_const is None)
        refs.append(weakref.ref(memo[96][2]))
    del p, stack, walker, memo
    gc.collect()
    assert [r() for r in refs] == [None, None]
