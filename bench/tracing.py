"""Traced runs: spans around calls into the library's public functions.

A :class:`Tracer` replaces each traced function in *every* ``jumpsl``
module namespace that binds it (``from .spectrum import delta_batch`` makes
a separate name in ``inverse``), so calls between modules are seen as well
as the benchmark's own.  Each span keeps its name, its parent span, start,
end and one piece of call information; spans stay in memory and the
per-layer metrics are derived from them when the traced job ends.  Calls
to the potential objects are only counted.  Nothing is installed outside
:meth:`Tracer.installed`, so untraced runs execute the library untouched.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, public function, span name)
TARGETS = (
    ("propagation", "propagate_endpoints_batch", "propagation.batch"),
    ("propagation", "fundamental_solution", "propagation.dense"),
    ("quadrature", "weighted_norm_sq", "quadrature"),
    ("quadrature", "weighted_abs_norm_sq", "quadrature"),
    ("asymptotics", "eigenvalue_guesses", "asymptotics.guesses"),
    ("spectrum", "eigenvalues", "spectrum.eigenvalues"),
    ("spectrum", "spectral_data", "spectrum.spectral_data"),
    ("spectrum", "delta_batch", "spectrum.delta_batch"),
    ("spectrum", "count_zeros_contour", "spectrum.contour"),
    ("weyl", "weyl_m", "weyl.m"),
    ("inverse", "residuals", "inverse.residual"),
    ("inverse", "fit", "inverse.fit"),
    ("problem", "validate", "problem.validate"),
    ("cli", "main", "cli"),
)


def _call_info(api):
    """Per span name: what to keep from (args, kwargs, result)."""
    flag = api.inverse.FLAG_RESIDUAL
    return {
        "propagation.batch": lambda a, k, r: int(np.size(k["lam"] if "lam" in k else a[1])),
        "inverse.residual": lambda a, k, r: bool(np.all(r == flag)),
        "inverse.fit": lambda a, k, r: int(r.nfev),
        "cli": lambda a, k, r: (k["argv"] if "argv" in k else a[0])[0],
    }


class Tracer:
    """Spans as [name, parent index or -1, start, end, info]."""

    def __init__(self, api):
        self.api = api
        self.spans = []
        self.q_evals = 0
        self._stack = []
        self._info = _call_info(api)

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, self._info.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def _count_q(self, call):
        @functools.wraps(call)
        def counted(potential, *args, **kwargs):
            self.q_evals += 1
            return call(potential, *args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "jumpsl" or n.startswith("jumpsl."))]
        undo = []
        try:
            for module, func, name in TARGETS:
                original = getattr(importlib.import_module(f"jumpsl.{module}"), func)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            for cls in (self.api.SampledGrid, self.api.PiecewisePolynomial):
                undo.append((cls, "__call__", cls.__call__))
                cls.__call__ = self._count_q(cls.__call__)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def layer_metrics(self, overhead_s):
        """The per-layer metrics of the traced job (0 for a layer not used)."""
        spans = self.spans
        dur = [s[3] - s[2] for s in spans]
        under_children = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[1] >= 0:
                under_children[s[1]] += dur[i]

        def ids(name, info=None):
            return [i for i, s in enumerate(spans)
                    if s[0] == name and (info is None or s[4] == info)]

        def busy(idx):
            return sum(dur[i] for i in idx)

        def self_time(idx):
            return sum(dur[i] - under_children[i] for i in idx)

        def pct(idx, q):
            return float(np.percentile([dur[i] for i in idx], q)) if idx else 0.0

        def under(i, name):
            p = spans[i][1]
            while p >= 0:
                if spans[p][0] == name:
                    return True
                p = spans[p][1]
            return False

        batch = ids("propagation.batch")
        evals = sum(spans[i][4] for i in batch)
        weyl = ids("weyl.m")
        residual = ids("inverse.residual")
        fits = ids("inverse.fit")
        nfev = sum(spans[i][4] for i in fits)
        cli = ids("cli")
        return {
            "propagation.batch_calls": len(batch),
            "propagation.batch_s": busy(batch),
            "propagation.lambda_evals": evals,
            "propagation.mean_batch": evals / len(batch) if batch else 0.0,
            "propagation.lambda_evals_per_s": evals / busy(batch) if batch else 0.0,
            "propagation.dense_calls": len(ids("propagation.dense")),
            "propagation.dense_s": busy(ids("propagation.dense")),
            "propagation.q_evals": self.q_evals,
            "quadrature.calls": len(ids("quadrature")),
            "quadrature.s": busy(ids("quadrature")),
            "asymptotics.guesses_calls": len(ids("asymptotics.guesses")),
            "asymptotics.guesses_s": busy(ids("asymptotics.guesses")),
            "spectrum.eigenvalues_calls": len(ids("spectrum.eigenvalues")),
            "spectrum.eigenvalues_s": busy(ids("spectrum.eigenvalues")),
            "spectrum.eigenvalues_self_s": self_time(ids("spectrum.eigenvalues")),
            "spectrum.delta_batch_calls": len(ids("spectrum.delta_batch")),
            "spectrum.contour_calls": len(ids("spectrum.contour")),
            "spectrum.contour_s": busy(ids("spectrum.contour")),
            "spectrum.contour_points": sum(spans[i][4] for i in batch
                                           if under(i, "spectrum.contour")),
            "spectrum.spectral_data_self_s": self_time(ids("spectrum.spectral_data")),
            "weyl.m_calls": len(weyl),
            "weyl.m_s": busy(weyl),
            "weyl.m_p50_us": 1e6 * pct(weyl, 50),
            "weyl.m_p99_us": 1e6 * pct(weyl, 99),
            "inverse.residual_calls": len(residual),
            "inverse.residual_s": busy(residual),
            "inverse.residual_p50_s": pct(residual, 50),
            "inverse.nfev": nfev,
            "inverse.jacobian_residuals": len(residual) - nfev,
            "inverse.flagged_residuals": len(ids("inverse.residual", info=True)),
            "problem.validate_calls": len(ids("problem.validate")),
            "problem.validate_s": busy(ids("problem.validate")),
            "cli.eigs_s": busy(ids("cli", info="eigs")),
            "cli.weyl_s": busy(ids("cli", info="weyl")),
            "cli.self_s": self_time(cli),
            "trace.overhead_s": overhead_s,
        }
