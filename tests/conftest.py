import math
import sys

import pytest

from jumpsl import (
    EigenparameterBC,
    JumpCondition,
    PiecewisePolynomial,
    ProblemSpec,
    RobinBC,
    constant_potential,
    validate,
)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num in sorted(results):
            terminalreporter.write_line(results[num])


@pytest.fixture(scope="session")
def free():
    """q = 0, Neumann at both ends: lambda_n = n^2, phi = cos(rho x)."""
    return validate(ProblemSpec(constant_potential(0.0), RobinBC(0.0, 0.0)))


@pytest.fixture(scope="session")
def one_jump():
    """q = 0, Neumann, single jump at pi/2 with a=2, b=1/2:
    Delta(lambda) = (5/4) rho sin(rho pi), eigenvalues n^2."""
    return validate(ProblemSpec(
        constant_potential(0.0), RobinBC(0.0, 0.0),
        (JumpCondition(math.pi / 2, 2.0, 0.5, 0.0),)))


@pytest.fixture(scope="session")
def generic():
    """One jump with c != 0, constant potential, nontrivial Robin data."""
    return validate(ProblemSpec(
        constant_potential(1.0), RobinBC(1.0, -1.0),
        (JumpCondition(math.pi / 3, 2.0, 1.0, 1.0),)))


@pytest.fixture(scope="session")
def two_jump():
    return validate(ProblemSpec(
        constant_potential(0.5), RobinBC(0.2, -0.1),
        (JumpCondition(1.0, 1.2, 1.0, 0.3),
         JumpCondition(2.1, 0.9, 1.1, -0.2))))


@pytest.fixture(scope="session")
def three_jump():
    """Gentle three-jump problem used for the asymptotic decay checks."""
    return validate(ProblemSpec(
        constant_potential(0.4), RobinBC(0.3, -0.2),
        (JumpCondition(0.7, 1.2, 1.0, 0.3),
         JumpCondition(1.5, 1.1, 1.0, 0.3),
         JumpCondition(2.5, 0.9, 1.0, 0.3))))


@pytest.fixture(scope="session")
def four_jump():
    return validate(ProblemSpec(
        constant_potential(0.3), RobinBC(0.1, 0.2),
        (JumpCondition(0.6, 1.2, 1.0, 0.0),
         JumpCondition(1.3, 0.8, 1.1, 0.2),
         JumpCondition(1.9, 1.1, 0.95, 0.0),
         JumpCondition(2.6, 0.9, 1.05, -0.1))))


@pytest.fixture(scope="session")
def eig_desk():
    """Eigenparameter desk problem: q = 0, h = (0, 0, 1), H = (1, 2, 1),
    so r1 = r2 = 1."""
    return validate(ProblemSpec(
        constant_potential(0.0),
        EigenparameterBC(0.0, 0.0, 1.0, 1.0, 2.0, 1.0)))


@pytest.fixture(scope="session")
def cubic():
    """Criterion 11's full-mode truth: cubic q on two segments, jump at pi/3."""
    pot = PiecewisePolynomial(
        coefficients=((0.3, 0.2, -0.1, 0.05), (0.1, -0.2, 0.15, -0.04)),
        breakpoints=(math.pi / 3,))
    return validate(ProblemSpec(pot, RobinBC(0.4, -0.3),
                                (JumpCondition(math.pi / 3, 1.5, 1.0, 0.6),)))
