import json
import math

import numpy as np
import pytest

from jumpsl import (
    BoundaryConstraintError,
    ConfigParseError,
    DomainError,
    EigenparameterBC,
    JumpCondition,
    JumpOrderError,
    JumpSignError,
    PiecewisePolynomial,
    PotentialError,
    ProblemSpec,
    RobinBC,
    SampledGrid,
    constant_potential,
    eigenvalues,
    gauge_transform,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    validate,
)
from jumpsl import problem as problem_module

PI = math.pi


def test_weights_cumulative(four_jump):
    # w_k = 1/(a_1 b_1 ... a_k b_k)
    expect = [1.0]
    for j in four_jump.jumps:
        expect.append(expect[-1] / (j.a * j.b))
    assert np.allclose(four_jump.weights, expect, rtol=1e-15)
    # consecutive-segment relation: w_k * a_k b_k = w_{k-1}
    for k, j in enumerate(four_jump.jumps):
        assert four_jump.weights[k + 1] * j.a * j.b == pytest.approx(
            four_jump.weights[k], rel=1e-15)
    assert all(w > 0 for w in four_jump.weights)


def test_one_jump_weights(one_jump):
    assert one_jump.weights == (1.0, 1.0)  # a*b = 1
    assert one_jump.w_end == 1.0


def test_jump_order_errors():
    bad = (JumpCondition(2.0, 1.0, 1.0), JumpCondition(1.0, 1.0, 1.0))
    with pytest.raises(JumpOrderError):
        validate(ProblemSpec(constant_potential(0.0), RobinBC(0, 0), bad))
    with pytest.raises(JumpOrderError):
        validate(ProblemSpec(constant_potential(0.0), RobinBC(0, 0),
                             (JumpCondition(PI + 0.1, 1.0, 1.0),)))


def test_jump_sign_error():
    with pytest.raises(JumpSignError):
        validate(ProblemSpec(constant_potential(0.0), RobinBC(0, 0),
                             (JumpCondition(1.0, 1.0, -1.0),)))
    with pytest.raises(JumpSignError, match="non-finite jump"):
        validate(ProblemSpec(constant_potential(0.0), RobinBC(0, 0),
                             (JumpCondition(1.0, math.inf, 1.0),)))


def test_boundary_constraint_error():
    # H1*H2 - H3 = -1 < 0 must be rejected
    with pytest.raises(BoundaryConstraintError):
        validate(ProblemSpec(constant_potential(0.0),
                             EigenparameterBC(0, 0, 1, 0, 2, 1)))
    with pytest.raises(BoundaryConstraintError):
        validate(ProblemSpec(constant_potential(0.0),
                             EigenparameterBC(1, 1, 1, 1, 2, 1)))
    with pytest.raises(BoundaryConstraintError, match="unknown boundary condition"):
        validate(ProblemSpec(constant_potential(0.0), (0.0, 0.0)))


@pytest.mark.parametrize("field", ["h1", "h2", "h3", "H1", "H2", "H3"])
def test_eigenparameter_nonfinite_rejected(field):
    # a nan field makes r1 or r2 nan, which no "<= 0" test catches
    data = dict(h1=0.0, h2=0.0, h3=1.0, H1=1.0, H2=2.0, H3=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(BoundaryConstraintError):
            validate(ProblemSpec(constant_potential(0.0),
                                 EigenparameterBC(**{**data, field: bad})))


def test_eigenparameter_nan_in_config_rejected(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(
        '{"potential": {"type": "piecewise_polynomial", "coefficients": [[0.0]]},'
        ' "boundary": {"type": "eigenparameter", "h1": NaN, "h2": 0, "h3": 1,'
        ' "H1": 1, "H2": 2, "H3": 1}}')
    with pytest.raises(BoundaryConstraintError):
        load_problem(path)


def test_potential_error_nonfinite():
    with pytest.raises(PotentialError):
        PiecewisePolynomial(coefficients=((0.0, math.nan),))
    with pytest.raises(PotentialError):
        SampledGrid(np.linspace(0, PI, 5), [0, 1, math.inf, 1, 0])
    with pytest.raises(PotentialError, match="unknown potential type float"):
        validate(ProblemSpec(0.0, RobinBC(0, 0)))


@pytest.mark.parametrize("make, message", [
    (lambda: PiecewisePolynomial(coefficients=((),)), "degree"),
    (lambda: PiecewisePolynomial(coefficients=((1.0,) * 8,)), "degree"),
    (lambda: PiecewisePolynomial(coefficients=((1.0,), (2.0,)), breakpoints=(PI,)),
     r"lie in \(0, pi\)"),
    (lambda: PiecewisePolynomial(coefficients=((1.0,),) * 3, breakpoints=(2.0, 1.0)),
     "strictly increasing"),
    (lambda: SampledGrid([0.0, PI], [1.0, 2.0], order=2), "order"),
    (lambda: SampledGrid([0.0, 1.0, PI], [1.0, 2.0]), "matching"),
    (lambda: SampledGrid([0.0], [1.0]), "at least 2"),
    (lambda: SampledGrid([0.0, 2.0, 1.0, PI], [1.0] * 4), "strictly increasing"),
    (lambda: SampledGrid([0.1, PI], [1.0, 2.0]), "cover"),
    (lambda: SampledGrid([0.0, 3.0], [1.0, 2.0]), "cover"),
], ids=["degree_0", "degree_7", "breakpoint_range", "breakpoint_order", "grid_order",
        "grid_length", "grid_one_sample", "grid_monotone", "grid_left", "grid_right"])
def test_potential_shape_checks(make, message):
    with pytest.raises(PotentialError, match=message):
        make()


def test_piecewise_polynomial_breakpoints():
    pot = PiecewisePolynomial(coefficients=((1.0,), (2.0, 0.5)),
                              breakpoints=(PI / 2,))
    assert pot(0.3) == 1.0
    # local coordinate t = x - pi/2 on the second piece
    assert pot(PI / 2 + 0.25) == pytest.approx(2.0 + 0.5 * 0.25, rel=1e-15)
    with pytest.raises(PotentialError):
        PiecewisePolynomial(coefficients=((1.0,),), breakpoints=(PI / 2,))


def test_sampled_grid_interpolation():
    x = np.linspace(0, PI, 200)
    g = SampledGrid(x, np.sin(x), order=3)
    assert g(1.0) == pytest.approx(math.sin(1.0), abs=1e-6)


def test_sampled_grid_orders_0_and_1():
    x, v = [0.0, 1.0, 2.0, PI], [1.0, 3.0, -1.0, 2.0]
    step, line = SampledGrid(x, v, order=0), SampledGrid(x, v, order=1)
    # order 0 holds each sample up to the next abscissa, the last to pi
    assert [step(t) for t in (0.5, 1.0, 1.99, PI)] == [1.0, 3.0, 3.0, 2.0]
    assert np.array_equal(step(np.array([0.0, 2.5])), [1.0, -1.0])
    assert line(0.5) == 2.0 and line(1.5) == 1.0
    assert isinstance(step(0.5), float) and isinstance(line(0.5), float)
    # equal samples give q = 2 exactly at every Gauss node: n^2 + 2
    for order in (0, 1):
        p = validate(ProblemSpec(SampledGrid(x, [2.0] * 4, order=order), RobinBC(0.0, 0.0)))
        lams = eigenvalues(p, 6, cpm_density=32).lambdas
        assert np.max(np.abs(lams - (2.0 + np.arange(6) ** 2))) <= 1e-11


@pytest.mark.parametrize("order", [0, 1, 3])
def test_problem_from_dict_sampled_grid(order):
    x = np.linspace(0.0, PI, 9)
    p = validate(ProblemSpec(SampledGrid(x, np.cos(x), order=order), RobinBC(0.2, -0.1),
                             (JumpCondition(1.0, 1.2, 0.9, 0.1),)))
    back = problem_from_dict(json.loads(json.dumps(problem_to_dict(p))))
    assert isinstance(back.spec.potential, SampledGrid)
    assert back.spec.potential.order == order
    assert back.fingerprint() == p.fingerprint()
    t = np.linspace(0.0, PI, 31)
    assert np.array_equal(back.spec.potential(t), p.spec.potential(t))


def test_segment_and_weight_sides(one_jump):
    d = one_jump.jumps[0].d
    assert one_jump.segment_of(d, side="-") == 0
    assert one_jump.segment_of(d, side="+") == 1
    assert one_jump.weight_at(0.1) == 1.0
    with pytest.raises(DomainError):
        one_jump.segment_of(-0.5)


def test_piece_containing_straddle(generic):
    d = generic.jumps[0].d
    with pytest.raises(DomainError):
        generic.piece_containing(d - 0.1, d + 0.1)
    piece = generic.piece_containing(0.1, 0.2)
    assert piece.xl <= 0.1 and piece.xr >= 0.2


def test_gauge_transform_normalizes():
    p = validate(ProblemSpec(constant_potential(0.0), RobinBC(0, 0),
                             (JumpCondition(1.0, 4.0, 1.0, 6.0),)))
    g = gauge_transform(p)
    j = g.jumps[0]
    assert (j.a, j.b, j.c) == pytest.approx((2.0, 0.5, 3.0), rel=1e-15)
    assert g.weights == pytest.approx((1.0, 1.0))
    # idempotent
    g2 = gauge_transform(g)
    assert (g2.jumps[0].a, g2.jumps[0].b) == pytest.approx((2.0, 0.5))


def test_fingerprint_stability(generic, free):
    assert generic.fingerprint() == generic.fingerprint()
    assert generic.fingerprint() != free.fingerprint()


def test_fingerprint_is_encoded_once_on_first_use(monkeypatch):
    encoded, to_dict = [], problem_module.problem_to_dict
    monkeypatch.setattr(problem_module, "problem_to_dict",
                        lambda p: encoded.append(p) or to_dict(p))
    x = np.linspace(0.0, math.pi, 513)
    p = validate(ProblemSpec(SampledGrid(x, np.cos(2.0 * x), order=3), RobinBC(0.0, 0.0)))
    assert encoded == []
    first = p.fingerprint()
    assert p.fingerprint() == first and len(encoded) == 1
    monkeypatch.undo()
    assert validate(p.spec).fingerprint() == first


def test_config_roundtrip_robin(tmp_path, generic):
    path = tmp_path / "p.json"
    save_problem(generic, path)
    back = load_problem(path)
    assert back.fingerprint() == generic.fingerprint()
    assert back.jumps == generic.jumps
    assert back.boundary == generic.boundary


def test_config_roundtrip_eigenparameter(tmp_path, eig_desk):
    path = tmp_path / "p.json"
    save_problem(eig_desk, path)
    back = load_problem(path)
    assert back.variant == "eigenparameter"
    assert back.boundary == eig_desk.boundary


def test_save_problem_is_atomic(tmp_path, monkeypatch, generic, eig_desk):
    path = tmp_path / "p.json"
    save_problem(generic, path)
    before = path.read_bytes()
    good = problem_module.problem_to_dict(eig_desk)
    # serialisation fails part-way: the boundary is not JSON-serialisable
    monkeypatch.setattr(problem_module, "problem_to_dict",
                        lambda p: {**good, "boundary": object()})
    with pytest.raises(TypeError):
        save_problem(eig_desk, path)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["p.json"]


def test_atomic_write_removes_its_temp_file(tmp_path, generic):
    # os.replace cannot put a file over a directory: the write fails and
    # leaves no temporary file behind
    (tmp_path / "out").mkdir()
    with pytest.raises(IsADirectoryError):
        save_problem(generic, tmp_path / "out")
    assert [f.name for f in tmp_path.iterdir()] == ["out"]
    assert not any((tmp_path / "out").iterdir())


def test_config_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigParseError):
        load_problem(bad)
    with pytest.raises(ConfigParseError, match="unknown potential type 'mystery'"):
        problem_from_dict({"potential": {"type": "mystery"},
                           "boundary": {"type": "robin", "h": 0, "H": 0},
                           "jumps": []})
    with pytest.raises(ConfigParseError, match="unknown boundary type 'dirichlet'"):
        problem_from_dict({"potential": {"type": "piecewise_polynomial",
                                         "coefficients": [[0.0]]},
                           "boundary": {"type": "dirichlet", "h": 0},
                           "jumps": []})
    with pytest.raises(ConfigParseError):
        load_problem(tmp_path / "missing.json")


def test_to_dict_schema(generic):
    d = problem_to_dict(generic)
    assert d["boundary"]["type"] == "robin"
    assert d["potential"]["type"] == "piecewise_polynomial"
    assert d["jumps"][0]["d"] == pytest.approx(math.pi / 3)
    json.dumps(d)  # serializable


def test_r1_r2_properties():
    bc = EigenparameterBC(0.5, 1.0, 2.0, 1.0, 3.0, 1.0)
    assert bc.r1 == pytest.approx(2.0 - 0.5 * 1.0)
    assert bc.r2 == pytest.approx(1.0 * 3.0 - 1.0)
