"""Helpers specific to eigenparameter-dependent boundary conditions.

The boundary condition at 0 reads lambda R1(y) = R1'(y) with
R1(y) = y'(0) + h1 y(0), R1'(y) = h2 y'(0) + h3 y(0), and at pi
lambda R2(y) = R2'(y) with R2(y) = y'(pi) + H1 y(pi),
R2'(y) = H2 y'(pi) + H3 y(pi).  The operator acts on vectors
(f, f1, f2) with f1 = R1(f), f2 = R2(f); the inner product carries the
boundary weights w(0)/r1 and w(pi)/r2, and the norming constants satisfy
sum_n gamma_n = 1/r1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MismatchError, VariantError
from .problem import ValidatedProblem
from .quadrature import weighted_abs_norm_sq
from .spectrum import SpectralData, _n_terms

__all__ = [
    "BoundaryFunctionals",
    "boundary_functionals",
    "VectorState",
    "vector_norm_sq",
    "gamma_sum_partial",
]


def _require_eigenparameter(problem):
    if problem.variant != "eigenparameter":
        raise VariantError("this operation requires eigenparameter-dependent "
                           "boundary conditions")


@dataclass(frozen=True)
class BoundaryFunctionals:
    """R1, R1', R2, R2' applied to one solution."""

    r1: complex
    r1_prime: complex
    r2: complex
    r2_prime: complex


def boundary_functionals(problem, sol) -> BoundaryFunctionals:
    """Evaluate the four boundary functionals on a piecewise solution."""
    _require_eigenparameter(problem)
    bc = problem.boundary
    y0, yp0 = sol.state0
    ypi, yppi = sol.state_pi
    return BoundaryFunctionals(
        r1=yp0 + bc.h1 * y0,
        r1_prime=bc.h2 * yp0 + bc.h3 * y0,
        r2=yppi + bc.H1 * ypi,
        r2_prime=bc.H2 * yppi + bc.H3 * ypi,
    )


@dataclass(frozen=True)
class VectorState:
    """Element (f, f1, f2) of the operator's vector space: the function
    together with its two boundary components."""

    sol: object
    f1: complex
    f2: complex

    @classmethod
    def from_solution(cls, problem, sol):
        bf = boundary_functionals(problem, sol)
        return cls(sol=sol, f1=bf.r1, f2=bf.r2)


def vector_norm_sq(problem, vs: VectorState, rtol=1e-9):
    """Squared norm: integral of |f|^2 w plus the weighted boundary terms."""
    _require_eigenparameter(problem)
    bc = problem.boundary
    total = weighted_abs_norm_sq(problem, vs.sol, rtol=rtol)
    total += (problem.weights[0] / bc.r1) * abs(vs.f1) ** 2
    total += (problem.w_end / bc.r2) * abs(vs.f2) ** 2
    return total


def gamma_sum_partial(sd: SpectralData, n_terms=None):
    """Partial sums of sum_n gamma_n, which converges to 1/r1."""
    if sd.variant != "eigenparameter":
        raise VariantError("gamma sums target 1/r1 only in the "
                           "eigenparameter variant")
    g = sd.gammas[:_n_terms(n_terms, len(sd))]
    if np.any(np.isnan(g)):
        raise MismatchError("records lack gamma values; run spectral_data first")
    return np.cumsum(g)
