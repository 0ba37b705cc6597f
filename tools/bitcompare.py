"""Record the library's numerical results and compare two records bit for bit.

    PYTHONPATH=src python tools/bitcompare.py dump OUT.npz
    python tools/bitcompare.py compare A.npz B.npz

``dump`` runs a fixed set of cases against the ``jumpsl`` found on
``PYTHONPATH`` and saves every result array under the case's name.  Run it
once in each of two checkouts (say a parent commit and its change), each
with its own ``src`` on ``PYTHONPATH``; ``compare`` then prints every case
that is not ``array_equal`` (NaN equal to NaN, dtypes and shapes equal)
and every case recorded in only one file, and exits with status 1 if there
is any.  A dump takes about fifteen seconds.

The cases: Delta and Delta' (real and complex lambda, as arrays and one 0-d
lambda at a time, both left data, two densities); ``propagate_interval``;
the oscillation index N; located roots, counts 1500 and 3000 included,
and ``spectrum._locate``'s roots and Delta' from cold and from shifted
predictions, with the barrier problems whose lowest pairs share a cell
and potentials with a large mean (q = 50, Mathieu + 60, q = 20) whose
roots lie above the locator's first grid top;
gamma and beta from ``eigenvalues``' own result, from a plain list of the
same roots and at the secondary spectrum's roots; dense solutions and their step nodes; Weyl samples from
scalar and array calls; contour counts; end states of one-lambda walks
(real and complex, plain and variational, forward and backward), a
variational walk that counts zeros, stacked stepped-cell walks on a 2-D
lambda (among them stacks whose rows share cell 0's q, on equal and on
unequal lambda rows) and variational walks on cubic whose steps' |w| lie
on both sides of 1e-3, where D's series ends; and the params,
residuals, nfev and Jacobians of the benchmark's two fits (seeds 1-3) and
of the three inverse round trips of acceptance criterion 11.  Text cases:
each problem's config (``problem_to_dict`` as JSON, and again after a
round trip through ``problem_from_dict``) and ``fingerprint()``, the
messages of malformed configs, and the exit status, stdout and stderr of
``jumpsl eigs``, ``spectral-data --json``, ``weyl`` and ``two-spectra`` on
each problem and of two ``jumpsl fit`` runs.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

PI = math.pi
ROOT = Path(__file__).resolve().parent.parent


def _problems(api):
    jump = api.JumpCondition
    robin = api.RobinBC
    x = np.linspace(0.0, PI, 513)
    cubic = api.PiecewisePolynomial(
        coefficients=((0.3, 0.2, -0.1, 0.05), (0.1, -0.2, 0.15, -0.04)),
        breakpoints=(PI / 3,))
    half = api.PiecewisePolynomial(
        coefficients=((0.25, -0.1, 0.2, 0.0), (0.1, 0.3, -0.2, 0.08)),
        breakpoints=(PI / 2,))
    specs = {
        "free": (api.constant_potential(0.0), robin(0.0, 0.0), ()),
        "one_jump": (api.constant_potential(0.0), robin(0.0, 0.0),
                     (jump(PI / 2, 2.0, 0.5, 0.0),)),
        "generic": (api.constant_potential(1.0), robin(1.0, -1.0),
                    (jump(PI / 3, 2.0, 1.0, 1.0),)),
        "four_jump": (api.constant_potential(0.3), robin(0.1, 0.2),
                      (jump(0.6, 1.2, 1.0, 0.0), jump(1.3, 0.8, 1.1, 0.2),
                       jump(1.9, 1.1, 0.95, 0.0), jump(2.6, 0.9, 1.05, -0.1))),
        "eig_desk": (api.constant_potential(0.0),
                     api.EigenparameterBC(0.0, 0.0, 1.0, 1.0, 2.0, 1.0), ()),
        "eig_jump": (api.constant_potential(0.7),
                     api.EigenparameterBC(0.5, 0.3, 1.2, 1.0, 2.0, 0.5),
                     (jump(1.1, 0.8, 1.3, -0.4),)),
        "cubic": (cubic, robin(0.4, -0.3), (jump(PI / 3, 1.5, 1.0, 0.6),)),
        "half": (half, robin(0.2, -0.4), ()),
        "mathieu": (api.SampledGrid(x, 4.0 * np.cos(2.0 * x), order=3), robin(0.0, 0.0), ()),
    }
    return {k: api.validate(api.ProblemSpec(*v)) for k, v in specs.items()}


def _record(api, out, key, fn):
    """out[key] = fn(), or the library error it raised, as text."""
    try:
        out[key] = np.asarray(fn())
    except api.JumpSLError as exc:
        out[key] = np.array(f"{type(exc).__name__}: {exc}")


def _forward_cases(api, out):
    from jumpsl import propagation, spectrum

    rng = np.random.default_rng(17)
    real = np.concatenate([np.linspace(-60.0, 5.0, 97), [0.0, 0.3],
                           np.linspace(5.0, 2500.0, 1500)])
    cplx = real[::7] + 1j * rng.uniform(-3.0, 3.0, real[::7].size)
    weyl_pts = rng.uniform(-20.0, 400.0, 150) + 1j * rng.choice([-1.0, 1.0], 150) \
        * 10.0 ** rng.uniform(-1.0, 0.7, 150)
    for name, p in _problems(api).items():
        for dens in (96, propagation.CPM_DENSITY):
            for left in ("spec", "dirichlet"):
                for kind, lam in (("real", real), ("complex", cplx)):
                    key = f"{name}/d{dens}/{left}/{kind}"
                    out[f"delta/{key}"] = api.delta_batch(p, lam, left=left, cpm_density=dens)
                    d, dd = api.delta_batch(p, lam, derivative=True, left=left,
                                            cpm_density=dens)
                    out[f"delta_d/{key}"], out[f"ddelta/{key}"] = d, dd
                # 0-d lambda, one call per point
                for kind, lam in (("real", real[::40]), ("complex", cplx[::6])):
                    key = f"{name}/d{dens}/{left}/{kind}"
                    out[f"delta_0d/{key}"] = np.array(
                        [api.delta_batch(p, z, derivative=True, left=left, cpm_density=dens)
                         for z in lam])
                index, delta = spectrum._sweep(p, real, left, dens)
                out[f"N/{name}/d{dens}/{left}"] = index
                out[f"N_delta/{name}/d{dens}/{left}"] = delta
        sd = api.spectral_data(p, api.eigenvalues(p, 40))
        out[f"roots/{name}"] = sd.lambdas
        out[f"gamma/{name}"], out[f"beta/{name}"] = sd.gammas, sd.betas
        # the same roots as a plain list, and the secondary spectrum, take their own walk
        walked = api.spectral_data(p, list(sd.lambdas))
        out[f"gamma_walked/{name}"], out[f"beta_walked/{name}"] = walked.gammas, walked.betas
        _record(api, out, f"gamma_beta_secondary/{name}", lambda: [
            (r.gamma, r.beta) for r in api.spectral_data(p, api.secondary_spectrum(p, 30))])
        _record(api, out, f"roots_dirichlet/{name}",
                lambda: api.eigenvalues(p, 30, left="dirichlet").lambdas)
        for kind in ("phi", "psi", "chi"):
            sol = api.fundamental_solution(p, kind, api.SpectralPoint.from_lambda(37.3 + 0.4j))
            out[f"dense_eval/{name}/{kind}"] = np.array(sol.eval(np.linspace(0.0, PI, 41)))
            for i, cell in enumerate(sol._pieces):
                out[f"dense_nodes/{name}/{kind}/{i}"] = np.array([cell.ys, cell.yps])
        samples = [api.weyl_m(p, z) for z in weyl_pts]
        ws = api.weyl_m(p, weyl_pts)
        for field in ("m", "delta", "theta0"):
            out[f"weyl_scalar/{name}/{field}"] = np.array([getattr(s, field) for s in samples])
            out[f"weyl_array/{name}/{field}"] = getattr(ws, field)
        for i, rect in enumerate(((-70.0, 50.5, -1.0, 1.0), (2.5, 310.3, -2.0, 3.0))):
            _record(api, out, f"contour/{name}/{i}", lambda: api.count_zeros_contour(p, rect))
    for kind, q in (("const", 0.7), ("callable", np.cos)):
        for lam in (23.1 + 0.7j, 5.3):
            start = propagation.StateVector(1.0, -0.4, 0.2)
            for x0, x1 in ((0.2, 2.9), (2.9, 0.2)):
                end = propagation.propagate_interval(
                    q, propagation.SpectralPoint.from_lambda(lam), start, x0, x1)
                out[f"interval/{kind}/{lam}/{x0}"] = np.array([end.y, end.yp])
    for name in ("one_jump", "four_jump", "eig_desk"):
        p = _problems(api)[name]
        for count in (1500, 3000):
            out[f"roots_large/{name}/{count}"] = api.eigenvalues(p, count).lambdas
            _locate_case(api, out, f"{name}/{count}", p, count, "spec", propagation.CPM_DENSITY)


def _walk_cases(api, out):
    """End states of one-lambda walks (the walks of scalar ``weyl_m``), a
    variational walk that counts zeros, and stacks of stepped-cell problems
    walked on a 2-D lambda, as the fit's Jacobian walks them."""
    from jumpsl import propagation

    walk = propagation.propagate_endpoints_batch
    start = (1.0, -0.4, 0.3, -0.7)
    for name, p in _problems(api).items():
        for kind, lam in (("real", np.array([37.3])), ("complex", np.array([37.3 + 0.4j]))):
            for var, state in (("plain", start[:2]), ("var", start)):
                for backward in (False, True):
                    out[f"walk1/{name}/{kind}/{var}/{backward:d}"] = np.array(
                        walk(p, lam, state, backward=backward))
        out[f"walk_var_zeros/{name}"] = np.array(
            walk(p, np.linspace(-5.0, 900.0, 40), start, count_zeros=True))
    jump = api.JumpCondition(PI / 3, 1.5, 1.0, 0.6)
    rows = [api.validate(api.ProblemSpec(api.PiecewisePolynomial(
        coefficients=((0.3 + dq, 0.2, -0.1, 0.05), (0.1, -0.2, 0.15, -0.04 + dq)),
        breakpoints=(PI / 3,)), api.RobinBC(0.4 + dh, -0.3), (jump,)))
        for dq, dh in ((0.0, 0.0), (1e-3, 0.0), (0.0, 1e-3))]
    stack = propagation._stack(rows)
    base = np.linspace(-5.0, 400.0, 25) + 0.37 * np.arange(3)[:, None]
    for kind, lam in (("real", base), ("complex", base + 0.5j)):
        for var, state in (("plain", start[:2]), ("var", start)):
            for backward in (False, True):
                out[f"walk_stack/{kind}/{var}/{backward:d}"] = np.array(
                    walk(stack, lam, state, backward=backward, cpm_density=96))
    # the half-inverse truth with q1 or H moved: one q on cell 0, walked on
    # equal lambda rows (cell 0's step rows built for one row) and on unequal ones
    half = propagation._stack([api.validate(api.ProblemSpec(api.PiecewisePolynomial(
        coefficients=((0.25, -0.1, 0.2, 0.0), (0.1 + dq, 0.3, -0.2, 0.08)),
        breakpoints=(PI / 2,)), api.RobinBC(0.2, -0.4 + dh)))
        for dq, dh in ((0.0, 0.0), (1e-3, 0.0), (0.0, 1e-3))])
    tiled = np.tile(np.linspace(-5.0, 400.0, 25), (3, 1))
    for rows, lam0 in (("equal", tiled), ("unequal", base)):
        for kind, lam in (("real", lam0), ("complex", lam0 + 0.5j)):
            for var, state in (("plain", start[:2]), ("var", start)):
                for backward in (False, True):
                    out[f"walk_stack_half/{rows}/{kind}/{var}/{backward:d}"] = np.array(
                        walk(half, lam, state, backward=backward, cpm_density=96))
    # cubic at density 96 has h^2 = 1.075e-4 and qbar in [-0.028, 0.457], so
    # |w| = 1e-3 at |lambda - qbar| = 9.302: each walk's steps lie on both
    # sides of the bound of D's series
    d = np.linspace(0.0, 0.45, 10)
    near = np.concatenate([9.302 + d, d - 9.302])
    for kind, lam in (("real", near), ("complex", near + 0.05j)):
        for backward in (False, True):
            out[f"walk_series/{kind}/{backward:d}"] = np.array(
                walk(_problems(api)["cubic"], lam, start, backward=backward, cpm_density=96))


def _locate_case(api, out, key, p, count, left, dens, predicted=None):
    """The first ``count`` roots and Delta' there from ``spectrum._locate``,
    or the library error it raised."""
    from jumpsl import spectrum

    try:
        roots, droots = spectrum._locate(p, count, left, dens, predicted)[:2]
        out[f"locate/{key}/roots"], out[f"locate/{key}/droots"] = roots[:count], droots[:count]
    except api.JumpSLError as exc:
        out[f"locate/{key}/roots"] = np.array(f"{type(exc).__name__}: {exc}")


def _shift_cells(lams, cells):
    """``lams`` moved by ``cells`` cells of the scan grid: steps of 0.05 in
    -sqrt(-lambda) below zero and of 0.02 in sqrt(lambda) above."""
    s = np.sign(lams) * np.sqrt(np.abs(lams))
    s = s + cells * np.where(s < 0.0, 0.05, 0.02)
    return s * np.abs(s)


def _locate_cases(api, out):
    """Located roots and Delta' from a cold start and, at density 96, from
    predictions 0, 1 or 10 cells off; the barrier problems, whose lowest
    pairs share a grid cell; and potentials with a large mean."""
    from jumpsl import propagation

    for name, p in _problems(api).items():
        for left in ("spec", "dirichlet"):
            for dens in (propagation.CPM_DENSITY, 96):
                _locate_case(api, out, f"{name}/d{dens}/{left}", p, 40, left, dens)
            cold = out.get(f"locate/{name}/d96/{left}/roots")
            for cells in (0, -1, 1, 10):
                _locate_case(api, out, f"{name}/d96/{left}/warm{cells:+d}", p, 40, left, 96,
                             _shift_cells(cold, cells))
    for q in (80.0, 120.0):
        p = api.validate(api.ProblemSpec(api.PiecewisePolynomial(
            ((0.0,), (q,), (0.0,)), (PI / 2 - 0.25, PI / 2 + 0.25)), api.RobinBC(0.0, 0.0)))
        _locate_case(api, out, f"barrier{q:g}", p, 8, "spec", propagation.CPM_DENSITY)
        _record(api, out, f"barrier_eigs/{q:g}", lambda: api.eigenvalues(p, 8).lambdas)
    # potentials with a large mean, whose roots lie above sqrt(lambda) = count + 2;
    # const20's third root from phi(0) = 0 lies just above it
    x = np.linspace(0.0, PI, 513)
    for name, q, count, lefts in (
            ("const50", api.constant_potential(50.0), 6, ("spec", "dirichlet")),
            ("mathieu60", api.SampledGrid(x, 60.0 + 4.0 * np.cos(2.0 * x), order=3), 8,
             ("spec",)),
            ("const20", api.constant_potential(20.0), 3, ("dirichlet",))):
        p = api.validate(api.ProblemSpec(q, api.RobinBC(0.0, 0.0)))
        for left in lefts:
            _locate_case(api, out, f"{name}/{left}", p, count, left, propagation.CPM_DENSITY)
            _record(api, out, f"raised_eigs/{name}/{left}",
                    lambda: api.eigenvalues(p, count, left=left).lambdas)


def _fit(api, out, key, fs, start):
    """A fit's params, residual and nfev, with every residual and Jacobian
    it evaluated on the way."""
    from jumpsl import inverse

    seen = {"res": [], "jac": []}
    residuals, jacobian = inverse.residuals, inverse._jacobian

    def res(*a, **k):
        seen["res"].append(residuals(*a, **k))
        return seen["res"][-1]

    def jac(*a, **k):
        seen["jac"].append(jacobian(*a, **k))
        return seen["jac"][-1]

    inverse.residuals, inverse._jacobian = res, jac
    try:
        r = api.fit(fs, initial_guess=start)
    finally:
        inverse.residuals, inverse._jacobian = residuals, jacobian
    out[f"fit/{key}/params"] = r.params
    out[f"fit/{key}/residual"] = r.residual
    out[f"fit/{key}/nfev"] = np.array(r.nfev)
    out[f"fit/{key}/all_residuals"] = np.array(seen["res"])
    out[f"fit/{key}/jacobians"] = np.array(seen["jac"])
    return r


def _fit_cases(api, out):
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    with tempfile.TemporaryDirectory() as work:
        for seed in (1, 2, 3):
            fits = workloads.InverseFit().setup(api, seed, work)["fits"]
            for label, fs, _, start, _ in fits:
                _fit(api, out, f"bench/{seed}/{label}", fs, start)

    # acceptance criterion 11: three round trips from one random stream
    jump = api.JumpCondition(PI / 3, 1.5, 1.0, 0.6)
    cubic = api.PiecewisePolynomial(
        coefficients=((0.3, 0.2, -0.1, 0.05), (0.1, -0.2, 0.15, -0.04)),
        breakpoints=(PI / 3,))
    truth = api.validate(api.ProblemSpec(cubic, api.RobinBC(0.4, -0.3), (jump,)))
    sd = api.spectral_data(truth, api.eigenvalues(truth, 30, verify=False, cpm_density=96))
    full = api.FitSpec(mode="full_spectral", template=truth,
                       unknowns=("h", "H", "c0", "q0", "q1"), targets_lambda=tuple(sd.lambdas),
                       targets_gamma=tuple(sd.gammas), tol=1e-12, cpm_density=96)
    truth2 = api.validate(api.ProblemSpec(
        api.PiecewisePolynomial(coefficients=((0.2, -0.3, 0.1, 0.05),)), api.RobinBC(0.3, -0.2)))
    two = api.FitSpec(
        mode="two_spectra", template=truth2, unknowns=("h", "H", "q0"),
        targets_lambda=tuple(api.eigenvalues(truth2, 30, verify=False, cpm_density=96).lambdas),
        targets_mu=tuple(api.eigenvalues(truth2, 30, verify=False, left="dirichlet",
                                         cpm_density=96).lambdas),
        tol=1e-12, cpm_density=96)
    truth3 = api.validate(api.ProblemSpec(
        api.PiecewisePolynomial(coefficients=((0.25, -0.1, 0.2, 0.0), (0.1, 0.3, -0.2, 0.08)),
                                breakpoints=(PI / 2,)), api.RobinBC(0.2, -0.4)))
    half = api.FitSpec(
        mode="half_inverse", template=truth3, unknowns=("H", "q1"),
        targets_lambda=tuple(api.eigenvalues(truth3, 40, verify=False, cpm_density=96).lambdas),
        tol=1e-12, cpm_density=96)
    rng = np.random.default_rng(3)
    for label, fs in (("full", full), ("two_spectra", two), ("half", half)):
        x = api.pack_parameters(fs)
        r = _fit(api, out, f"criterion11/{label}", fs, x + rng.uniform(-0.05, 0.05, x.size))
        print(f"criterion 11 {label}: error {np.max(np.abs(r.params - x)):.4e}")


def _cli(out, key, argv):
    """Exit status, stdout and stderr of ``jumpsl`` with ``argv``."""
    from jumpsl.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(argv)
    out[f"cli/{key}/status"] = np.array(status)
    out[f"cli/{key}/stdout"] = np.array(stdout.getvalue())
    out[f"cli/{key}/stderr"] = np.array(stderr.getvalue())


def _text_cases(api, out):
    """Configs, fingerprints and config errors as text, and the CLI's output."""
    problems = _problems(api)
    for name, p in problems.items():
        text = json.dumps(api.problem_to_dict(p))
        out[f"config/{name}"] = np.array(text)
        out[f"config_round/{name}"] = np.array(
            json.dumps(api.problem_to_dict(api.problem_from_dict(json.loads(text)))))
        out[f"fingerprint/{name}"] = np.array(p.fingerprint())
    good = api.problem_to_dict(problems["generic"])
    for label, key, value in (
            ("potential_type", "potential", {"type": "mystery"}),
            ("potential_type_list", "potential", {"type": []}),
            ("potential_no_type", "potential", {"coefficients": [[0.0]]}),
            ("potential_field", "potential", {"type": "sampled_grid", "knots": [0.0]}),
            ("boundary_type", "boundary", {"type": "dirichlet", "h": 0.0}),
            ("boundary_type_and_value", "boundary", {"type": "dirichlet", "h": "zz"}),
            ("boundary_value", "boundary", {"type": "robin", "h": "zz", "H": 0.0}),
            ("boundary_field", "boundary", {"type": "robin", "h": 0.0}),
            ("boundary_not_a_dict", "boundary", 5),
            ("jump_field", "jumps", [{"d": 1.0, "a": 1.0}])):
        _record(api, out, f"config_error/{label}",
                lambda: api.problem_from_dict({**good, key: value}).fingerprint())
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for name, p in problems.items():
            cfg = str(work / f"{name}.json")
            api.save_problem(p, cfg)
            _cli(out, f"eigs/{name}", ["eigs", cfg, "--count", "12"])
            _cli(out, f"spectral_data/{name}", ["spectral-data", cfg, "--count", "12", "--json"])
            _cli(out, f"weyl/{name}", ["weyl", cfg, "--grid=-5:60:9", "--imag", "0.5"])
            _cli(out, f"two_spectra/{name}", ["two-spectra", cfg, "--count", "20",
                                              "--lam=-1.5,2.5,7.3"])
        for name, count, mode, unknowns, moved in (
                ("generic", 10, "full_spectral", ["h", "H", "c0"],
                 {"boundary": {"type": "robin", "h": 1.1, "H": -0.9}}),
                ("half", 12, "half_inverse", ["H", "q1"],
                 {"boundary": {"type": "robin", "h": 0.2, "H": -0.3}})):
            p = problems[name]
            targets = work / f"{name}_targets.csv"
            api.export_csv(api.spectral_data(p, api.eigenvalues(p, count)), targets)
            start, fitspec = work / f"{name}_start.json", work / f"{name}_fit.json"
            start.write_text(json.dumps({**api.problem_to_dict(p), **moved}))
            fitspec.write_text(json.dumps({"mode": mode, "unknowns": unknowns,
                                           "targets_file": str(targets)}))
            _cli(out, f"fit/{name}", ["fit", str(start), str(fitspec)])


def dump(path):
    import jumpsl as api

    out = {}
    _text_cases(api, out)
    _forward_cases(api, out)
    _walk_cases(api, out)
    _locate_cases(api, out)
    _fit_cases(api, out)
    np.savez(path, **out)
    print(f"{len(out)} cases from {Path(api.__file__).parent} written to {path}")


def compare(path_a, path_b):
    a, b = np.load(path_a), np.load(path_b)
    only = sorted(set(a.files) ^ set(b.files))
    for key in only:
        print(f"only in {path_a if key in a.files else path_b}: {key}")
    shared = sorted(set(a.files) & set(b.files))
    differ = [k for k in shared if a[k].dtype != b[k].dtype
              or not np.array_equal(a[k], b[k], equal_nan=a[k].dtype.kind in "fc")]
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(shared) - len(differ)} of {len(shared)} shared cases array_equal, "
          f"{len(only)} in one file only")
    return 1 if differ or only else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
