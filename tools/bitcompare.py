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
predictions, with the barrier problems whose lowest pairs share a cell;
gamma and beta; dense solutions and their step nodes; Weyl samples from
scalar and array calls; contour counts; end states of one-lambda walks
(real and complex, plain and variational, forward and backward), a
variational walk that counts zeros and stacked stepped-cell walks on a
2-D lambda; and the params,
residuals, nfev and Jacobians of the benchmark's two fits (seeds 1-3) and
of the three inverse round trips of acceptance criterion 11.
"""

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
    predictions 0, 1 or 10 cells off; and the barrier problems, whose
    lowest pairs share a grid cell."""
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


def dump(path):
    import jumpsl as api

    out = {}
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
