"""The benchmark's three workloads.

Each workload makes its inputs from a seed in ``setup`` and runs one fixed
job of public-API calls in ``job``.  The job checks every answer against an
independent reference and books each call and each check as one operation
in a :class:`Ledger`.  The library is reached only through the ``api``
module passed in (the ``jumpsl`` package), looked up at call time, so that
a traced run sees every call the job makes.

Why each workload exists, and its baseline, is in ``NOTES.md``.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager

import numpy as np
from scipy.special import mathieu_a, mathieu_cem

PI = math.pi


class Ledger:
    """Operations attempted and failed in one run, with each failure's reason."""

    def __init__(self, library_error):
        self.library_error = library_error
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def call(self, what, fn, *args, **kwargs):
        """One library call; a raised library error books a failure and gives None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except self.library_error as exc:
            self._fail(what, f"{type(exc).__name__}: {exc}")
            return None

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self._fail(what, detail)
        return ok

    def _fail(self, what, detail):
        self.failed += 1
        self.failures.append(f"{what}: {detail}")


class JobRecord:
    """Wall time, stage times and reference errors of one job."""

    def __init__(self, ledger):
        self.ledger = ledger
        self.total_s = None
        self.stages = {}
        self.errors = {}

    @contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - t0

    def error(self, name, value, tol):
        """Record a reference error (the max over the job) and check it against tol."""
        value = float(value)
        self.errors[name] = max(value, self.errors.get(name, 0.0))
        self.ledger.check(f"{name} <= {tol:g}", value <= tol, f"{value:.3e}")


def _rel_err(values, ref):
    ref = np.asarray(ref, dtype=float)
    return float(np.max(np.abs(np.asarray(values) - ref) / np.maximum(1.0, np.abs(ref))))


def _spectrum(api, rec, label, problem, count):
    """eigenvalues(verify=True) then spectral_data, with the sanity checks every
    spectrum must pass; returns the SpectralData with gammas, or None."""
    with rec.stage("spectrum_s"):
        sd = rec.ledger.call(f"eigenvalues({label})", api.eigenvalues, problem, count,
                             verify=True)
    if sd is None:
        rec.ledger.check(f"spectral_data({label})", False, "no eigenvalues")
        return None
    with rec.stage("spectral_data_s"):
        sd = rec.ledger.call(f"spectral_data({label})", api.spectral_data, problem, sd)
    if sd is None:
        return None
    lams, gammas = sd.lambdas, sd.gammas
    rec.ledger.check(f"{label}: {count} increasing eigenvalues",
                     len(sd) == count and bool(np.all(np.diff(lams) > 0.0)))
    rec.ledger.check(f"{label}: gamma_n finite and positive",
                     bool(np.all(np.isfinite(gammas) & (gammas > 0.0))))
    return sd


# ----------------------------------------------------------------------
# forward_const: piecewise-constant q, every cell one exact transfer step
# ----------------------------------------------------------------------

class ForwardConst:
    # The one-jump reference stops at 1000: at 1500 eigenvalues(verify=True)
    # raises ContourTooCloseError (see NOTES.md).
    COUNTS = {"one_jump": 1000, "four_jump": 400, "eig_desk": 400}
    WEYL_PER_PROBLEM = 1000
    CLI_COUNT = 200
    CLI_WEYL_POINTS = 1000
    EIG_TOL = 2e-15      # measured 6.2e-16
    GAMMA_TOL = 1e-13    # measured 3.5e-14
    CLI_TOL = 1e-13

    def setup(self, api, seed, workdir):
        problems = {
            # q = 0, Neumann, jump at pi/2 with a=2, b=1/2: lambda_n = n^2
            "one_jump": api.validate(api.ProblemSpec(
                api.constant_potential(0.0), api.RobinBC(0.0, 0.0),
                (api.JumpCondition(PI / 2, 2.0, 0.5, 0.0),))),
            "four_jump": api.validate(api.ProblemSpec(
                api.constant_potential(0.3), api.RobinBC(0.1, 0.2),
                (api.JumpCondition(0.6, 1.2, 1.0, 0.0),
                 api.JumpCondition(1.3, 0.8, 1.1, 0.2),
                 api.JumpCondition(1.9, 1.1, 0.95, 0.0),
                 api.JumpCondition(2.6, 0.9, 1.05, -0.1)))),
            "eig_desk": api.validate(api.ProblemSpec(
                api.constant_potential(0.0),
                api.EigenparameterBC(0.0, 0.0, 1.0, 1.0, 2.0, 1.0))),
        }
        config = os.path.join(workdir, "four_jump.json")
        api.save_problem(problems["four_jump"], config)
        rng = np.random.default_rng(seed)
        n = self.WEYL_PER_PROBLEM
        weyl_points = {}
        for label in problems:
            sign = rng.choice([-1.0, 1.0], n)
            weyl_points[label] = (rng.uniform(-20.0, 400.0, n)
                                  + 1j * sign * 10.0 ** rng.uniform(-1.0, 0.7, n))
        grid = (float(rng.uniform(-20.0, 0.0)), float(rng.uniform(200.0, 400.0)))
        return {"problems": problems, "config": config, "workdir": workdir,
                "weyl_points": weyl_points, "cli_grid": grid}

    def job(self, api, inputs, rec):
        problems = inputs["problems"]
        spectra = {label: _spectrum(api, rec, label, p, self.COUNTS[label])
                   for label, p in problems.items()}

        ref = spectra["one_jump"]
        if ref is None:
            rec.ledger.check("one_jump reference", False, "no spectrum")
        else:
            n = np.arange(len(ref))
            rec.error("eig_max_err", _rel_err(ref.lambdas, n * n), self.EIG_TOL)
            gamma = np.where(n % 2 == 0, 4.0, 16.0) / (5.0 * PI)
            gamma[0] = 2.0 / (5.0 * PI)
            rec.error("gamma_max_err", _rel_err(ref.gammas / gamma, 1.0), self.GAMMA_TOL)

        samples = []
        with rec.stage("weyl_s"):
            for label, points in inputs["weyl_points"].items():
                for lam in points:
                    s = rec.ledger.call(f"weyl_m({label})", api.weyl_m, problems[label], lam)
                    samples.append((label, lam, s))
        for label, lam, s in samples:
            if s is not None:
                rec.ledger.check(f"Im m * Im lambda > 0 ({label}, {lam:.6g})",
                                 s.m.imag * lam.imag > 0.0, f"m={s.m}")

        eigs_csv = os.path.join(inputs["workdir"], "eigs.csv")
        weyl_csv = os.path.join(inputs["workdir"], "weyl.csv")
        lo, hi = inputs["cli_grid"]
        with rec.stage("cli_s"):
            rc_eigs = rec.ledger.call("jumpsl eigs", api.cli.main, [
                "eigs", inputs["config"], "--count", str(self.CLI_COUNT), "-o", eigs_csv])
            rc_weyl = rec.ledger.call("jumpsl weyl", api.cli.main, [
                "weyl", inputs["config"], f"--grid={lo!r}:{hi!r}:{self.CLI_WEYL_POINTS}",
                "--imag", "0.5", "-o", weyl_csv])
        self._check_cli(rec, rc_eigs, eigs_csv, rc_weyl, weyl_csv, spectra["four_jump"])

    def _check_cli(self, rec, rc_eigs, eigs_csv, rc_weyl, weyl_csv, lib):
        ledger = rec.ledger
        if ledger.check("jumpsl eigs exit code", rc_eigs == 0, repr(rc_eigs)):
            cli_lams = _csv_columns(eigs_csv, ("lambda",))[0]
            ok = (lib is not None and len(cli_lams) == self.CLI_COUNT
                  and _rel_err(cli_lams, lib.lambdas[:self.CLI_COUNT]) <= self.CLI_TOL)
            ledger.check("jumpsl eigs CSV matches library eigenvalues", ok)
        if ledger.check("jumpsl weyl exit code", rc_weyl == 0, repr(rc_weyl)):
            im_lam, im_m = _csv_columns(weyl_csv, ("im_lambda", "im_m"))
            ledger.check("jumpsl weyl: row count", len(im_m) == self.CLI_WEYL_POINTS)
            ledger.check("jumpsl weyl: Im m * Im lambda > 0",
                         bool(np.all(im_lam * im_m > 0.0)))


def _csv_columns(path, names):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return [np.array([float(r[header.index(name)]) for r in rows]) for name in names]


# ----------------------------------------------------------------------
# forward_smooth: smooth q through the midpoint ladder and DOP853 dense path
# ----------------------------------------------------------------------

class ForwardSmooth:
    """Fixed problems: the seed does not enter this workload."""

    COUNT = 20
    MATHIEU_Q = 2.0      # q(x) = 2 * MATHIEU_Q * cos(2x)
    EIG_TOL = 2e-5       # measured 1.05e-5
    GAMMA_TOL = 5e-5     # measured 2.5e-5

    def __init__(self):
        n = np.arange(self.COUNT)
        # Neumann Mathieu eigenvalues are a_n(q); with phi(0) = 1 the norming
        # constant is gamma_n = 2 ce_n(0)^2 / pi (scipy: int_0^pi ce_n^2 = pi/2)
        self.ref_lambda = np.array([mathieu_a(k, self.MATHIEU_Q) for k in n])
        ce0 = np.array([mathieu_cem(k, self.MATHIEU_Q, 0.0)[0] for k in n])
        self.ref_gamma = 2.0 * ce0 ** 2 / PI

    def setup(self, api, seed, workdir):
        x = np.linspace(0.0, PI, 513)
        mathieu = api.validate(api.ProblemSpec(
            api.SampledGrid(x, 2.0 * self.MATHIEU_Q * np.cos(2.0 * x), order=3),
            api.RobinBC(0.0, 0.0)))
        return {"mathieu": mathieu, "cubic": _cubic_two_segment(api)}

    def job(self, api, inputs, rec):
        sd = _spectrum(api, rec, "mathieu", inputs["mathieu"], self.COUNT)
        if sd is None:
            rec.ledger.check("mathieu reference", False, "no spectrum")
        else:
            rec.error("eig_max_err", _rel_err(sd.lambdas, self.ref_lambda), self.EIG_TOL)
            rec.error("gamma_max_err", _rel_err(sd.gammas / self.ref_gamma, 1.0),
                      self.GAMMA_TOL)
        _spectrum(api, rec, "cubic", inputs["cubic"], self.COUNT)


def _cubic_two_segment(api):
    """The cubic two-segment problem of acceptance criterion 11, jump at pi/3."""
    pot = api.PiecewisePolynomial(
        coefficients=((0.3, 0.2, -0.1, 0.05), (0.1, -0.2, 0.15, -0.04)),
        breakpoints=(PI / 3,))
    return api.validate(api.ProblemSpec(pot, api.RobinBC(0.4, -0.3),
                                        (api.JumpCondition(PI / 3, 1.5, 1.0, 0.6),)))


# ----------------------------------------------------------------------
# inverse_fit: many small propagation batches inside least squares
# ----------------------------------------------------------------------

class InverseFit:
    # The half-inverse fit always starts from criterion 11's point: a seeded
    # start moved its residual count from 30 to 50 (see NOTES.md), a spread
    # no bound could absorb.  The seed moves the constant fit's start.
    HALF_OFFSET = np.random.default_rng(3).uniform(-0.05, 0.05, 5)
    HALF_TOL = 5e-12     # measured 8.3e-13
    CONST_TOL = 1e-13    # measured at most 1.6e-14 over seeds 1..40

    def setup(self, api, seed, workdir):
        pot = api.PiecewisePolynomial(
            coefficients=((0.25, -0.1, 0.2, 0.0), (0.1, 0.3, -0.2, 0.08)),
            breakpoints=(PI / 2,))
        half_truth = api.validate(api.ProblemSpec(pot, api.RobinBC(0.2, -0.4)))
        lams = api.eigenvalues(half_truth, 40, verify=False, cpm_density=96).lambdas
        half = api.FitSpec(mode="half_inverse", template=half_truth, unknowns=("H", "q1"),
                           targets_lambda=tuple(lams), tol=1e-12, cpm_density=96)

        const_truth = api.validate(api.ProblemSpec(
            api.constant_potential(0.0), api.RobinBC(0.7, -0.4),
            (api.JumpCondition(PI / 2, 2.0, 0.5, 0.35),)))
        sd = api.spectral_data(const_truth, api.eigenvalues(const_truth, 30, verify=False))
        const = api.FitSpec(mode="full_spectral", template=const_truth,
                            unknowns=("h", "H", "c0"), targets_lambda=tuple(sd.lambdas),
                            targets_gamma=tuple(sd.gammas), tol=1e-12)

        x_half = api.pack_parameters(half)
        x_const = api.pack_parameters(const)
        rng = np.random.default_rng(seed)
        return {"fits": (
            ("half_inverse", half, x_half, x_half + self.HALF_OFFSET, self.HALF_TOL),
            ("full_spectral", const, x_const,
             x_const + rng.uniform(-0.05, 0.05, x_const.size), self.CONST_TOL),
        )}

    def job(self, api, inputs, rec):
        for label, fs, truth, start, tol in inputs["fits"]:
            with rec.stage("fit_s"):
                res = rec.ledger.call(f"fit({label})", api.fit, fs, initial_guess=start)
            if res is None:
                continue
            if rec.ledger.check(f"fit({label}) converged", res.converged, res.message):
                rec.error("fit_param_err", np.max(np.abs(res.params - truth)), tol)


WORKLOADS = {
    "forward_const": ForwardConst,
    "forward_smooth": ForwardSmooth,
    "inverse_fit": InverseFit,
}
