"""Weighted quadrature of piecewise solutions: the reference weighted norm
that the tests hold ``spectral_data``'s norming constants to, and the
|y|^2 energy integrals at complex lambda.

Composite Gauss-Legendre panels per integration cell, never straddling a
jump or potential breakpoint; the panel count scales with |rho| so the
oscillation is always resolved.  Each integral is recomputed with doubled
panels until two consecutive levels agree to the requested tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _integrate_cell(func, xl, xr, panels):
    edges = np.linspace(xl, xr, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    x = (mid + half * _GL_NODES[None, :]).ravel()
    vals = np.asarray(func(x)).reshape(panels, -1)
    return np.sum(half[:, 0] * (vals @ _GL_WEIGHTS))


def integrate_solution(problem, sol, transform=None, rtol=1e-9, max_doublings=5):
    """Integral of transform(y) * w over [0, pi] for a PiecewiseSolution.

    ``transform`` defaults to y -> y**2; use ``np.abs(y)**2`` for energy
    integrals at complex lambda.
    """
    if transform is None:
        transform = lambda y: y * y
    freq = max(1.0, abs(sol.sp.rho))
    total = 0.0
    for piece, ps in zip(problem.pieces, sol._pieces):
        wseg = problem.weights[piece.segment]

        def func(x, _ps=ps):
            y, _ = _ps.eval(x, sol.sp.lam)
            return transform(y)

        panels = max(4, int(math.ceil(freq * piece.length / 2.5)))
        val = _integrate_cell(func, piece.xl, piece.xr, panels)
        for _ in range(max_doublings):
            panels *= 2
            val2 = _integrate_cell(func, piece.xl, piece.xr, panels)
            if abs(val2 - val) <= rtol * max(1.0, abs(val2)):
                val = val2
                break
            val = val2
        else:
            raise QuadratureError(
                f"quadrature on [{piece.xl}, {piece.xr}] did not converge to {rtol}"
            )
        total = total + wseg * val
    return total


def weighted_norm_sq(problem, sol, rtol=1e-9):
    """Real part of the weighted L2 norm of a solution at real lambda."""
    return float(np.real(integrate_solution(problem, sol, rtol=rtol)))


def weighted_abs_norm_sq(problem, sol, rtol=1e-9):
    """Weighted L2 norm of |y|^2 (energy integrals at complex lambda)."""
    return float(np.real(integrate_solution(
        problem, sol, transform=lambda y: np.abs(y) ** 2, rtol=rtol)))
