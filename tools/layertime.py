"""Time library layers of two source trees in turn and append the rows to a JSON file.

    python tools/layertime.py PARENT_ROOT CHANGE_ROOT --json BENCH_N.json [--rounds 9]

Each root is a checkout whose ``src`` holds a ``jumpsl`` package.  The tool
starts one worker process per tree, each importing ``jumpsl`` from its own
``src``, and asks them in turn to time the same cases, the first side
alternating from round to round and case to case.  A round of a case is
one pass of timed calls; the first round warms up and is not kept.  Each
row gives both sides' per-call times in microseconds for every kept round,
their medians, the change/parent ratio of the medians and the rounds the
change won.  The rows are appended, with the machine and the two roots,
to the list ``layertime`` of the JSON file (created if missing).

The cases:
- ``weyl_m/<problem>``: scalar ``weyl_m`` over 200 points drawn as the
  forward_const workload draws its Weyl points (one_jump, four_jump,
  eig_desk);
- ``char_delta/<problem>``: ``char_delta`` at lambda = 37.3 + 0.4j
  (four_jump, and cubic with its stepped cells);
- ``delta_batch/cubic/<kind>/m<m>``: ``delta_batch`` on cubic at
  ``cpm_density=96`` for m = 1, 20, 400 and 2,131 points in [-5, 900]:
  real lambda plain and with the derivative, and complex lambda
  (imaginary part 0.5) plain.
- ``delta_batch/four_jump/real_d/m20``: ``delta_batch`` with the derivative
  on four_jump at 20 real points in [-5, 900], a walk of five constant
  cells whose exact steps come from one coefficient call;
- ``locate/half/cold``: a cold ``spectrum._locate`` of 40 roots at
  ``cpm_density=96`` on the half-inverse truth of acceptance criterion 11,
  as a fit's first residual makes it;
- ``locate/half/warm``: the same ``_locate`` from exact predictions, the
  roots of the cold one;
- ``jacobian/half``: one ``inverse._jacobian`` of the half-inverse fit
  (unknowns H and q1, the 40 roots as targets, ``cpm_density=96``) at the
  truth, the stacked walks of ten shifted problems;
- ``delta_batch/mathieu/real_d/m20`` and ``locate/mathieu/cold``: the
  forward_smooth workload's Mathieu problem (``SampledGrid`` on 513 nodes,
  q = 4 cos 2x) at the default density, ``delta_batch`` with the
  derivative at 20 real points in [-5, 900] and a cold ``_locate`` of its
  20 lowest roots, as ``eigenvalues`` makes it;
- ``spectra/mathieu``: ``eigenvalues`` and then ``spectral_data`` of the same
  problem, 20 roots, as the forward_smooth workload asks for its spectrum.

Every case but ``jacobian/half`` (whose shifted problems are new in each
call) walks one validated problem again and again.  Where a problem keeps
its stepped cells' q samples, only its first call takes them, so a cold
``_locate`` here is cold in its roots, not in its samples, while each
residual of a fit validates a new problem.

Each root is recorded as its commit (``git rev-parse --short HEAD``) and
whether its tracked files differ from it, or as its path where it is not
the top of a git work tree.

The workers run with glibc's mmap and trim thresholds fixed (32 and 64
MiB), so that large arrays come from the heap on both sides.  Left to
glibc, the threshold moves with each process's history of frees, and one
side may map every 200 KiB array of a case afresh while the other reuses
heap: ``delta_batch/cubic/real_d/m2131`` read 1.4x apart on two trees
that run the same code for it, and the same within 4% with the
thresholds fixed.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PI = math.pi
DELTA_COUNTS = (1, 20, 400, 2131)


def _cases(api, np):
    """name -> (calls per round, function making those calls)."""
    jump = api.JumpCondition
    x = np.linspace(0.0, PI, 513)
    problems = {
        "one_jump": api.validate(api.ProblemSpec(
            api.constant_potential(0.0), api.RobinBC(0.0, 0.0), (jump(PI / 2, 2.0, 0.5, 0.0),))),
        "four_jump": api.validate(api.ProblemSpec(
            api.constant_potential(0.3), api.RobinBC(0.1, 0.2),
            (jump(0.6, 1.2, 1.0, 0.0), jump(1.3, 0.8, 1.1, 0.2),
             jump(1.9, 1.1, 0.95, 0.0), jump(2.6, 0.9, 1.05, -0.1)))),
        "eig_desk": api.validate(api.ProblemSpec(
            api.constant_potential(0.0), api.EigenparameterBC(0.0, 0.0, 1.0, 1.0, 2.0, 1.0))),
        "cubic": api.validate(api.ProblemSpec(
            api.PiecewisePolynomial(coefficients=((0.3, 0.2, -0.1, 0.05),
                                                  (0.1, -0.2, 0.15, -0.04)),
                                    breakpoints=(PI / 3,)),
            api.RobinBC(0.4, -0.3), (jump(PI / 3, 1.5, 1.0, 0.6),))),
        "mathieu": api.validate(api.ProblemSpec(
            api.SampledGrid(x, 4.0 * np.cos(2.0 * x), order=3), api.RobinBC(0.0, 0.0))),
        "half": api.validate(api.ProblemSpec(
            api.PiecewisePolynomial(coefficients=((0.25, -0.1, 0.2, 0.0),
                                                  (0.1, 0.3, -0.2, 0.08)),
                                    breakpoints=(PI / 2,)),
            api.RobinBC(0.2, -0.4))),
    }
    rng = np.random.default_rng(22)
    n = 200
    points = rng.uniform(-20.0, 400.0, n) + 1j * rng.choice([-1.0, 1.0], n) \
        * 10.0 ** rng.uniform(-1.0, 0.7, n)
    cases = {}
    for name in ("one_jump", "four_jump", "eig_desk"):
        cases[f"weyl_m/{name}"] = (n, lambda p=problems[name]: [api.weyl_m(p, z) for z in points])
    for name in ("four_jump", "cubic"):
        cases[f"char_delta/{name}"] = (
            20, lambda p=problems[name]: [api.char_delta(p, 37.3 + 0.4j) for _ in range(20)])
    cubic = problems["cubic"]
    for m in DELTA_COUNTS:
        lam = np.linspace(-5.0, 900.0, m)
        reps = max(1, 400 // m)
        for kind, z, deriv in (("real", lam, False), ("real_d", lam, True),
                               ("complex", lam + 0.5j, False)):
            cases[f"delta_batch/cubic/{kind}/m{m}"] = (reps, lambda z=z, d=deriv, r=reps: [
                api.delta_batch(cubic, z, derivative=d, cpm_density=96) for _ in range(r)])
    for name in ("four_jump", "mathieu"):
        cases[f"delta_batch/{name}/real_d/m20"] = (20, lambda p=problems[name], z=np.linspace(
            -5.0, 900.0, 20): [api.delta_batch(p, z, derivative=True) for _ in range(20)])
    half = problems["half"]
    cases["locate/half/cold"] = (3, lambda: [
        api.spectrum._locate(half, 40, "spec", 96) for _ in range(3)])
    roots = api.spectrum._locate(half, 40, "spec", 96)[0][:40]
    cases["locate/half/warm"] = (3, lambda: [
        api.spectrum._locate(half, 40, "spec", 96, roots) for _ in range(3)])
    fs = api.FitSpec(mode="half_inverse", template=half, unknowns=("H", "q1"),
                     targets_lambda=tuple(roots), cpm_density=96)
    x, forward = api.pack_parameters(fs), {}
    api.inverse.residuals(fs, x, _forward=forward)
    cases["jacobian/half"] = (10, lambda: [
        api.inverse._jacobian(fs, x, forward["lams"], forward["mus"]) for _ in range(10)])
    cases["locate/mathieu/cold"] = (3, lambda: [
        api.spectrum._locate(problems["mathieu"], 20, "spec", api.propagation.CPM_DENSITY)
        for _ in range(3)])
    mathieu = problems["mathieu"]
    cases["spectra/mathieu"] = (3, lambda: [
        api.spectral_data(mathieu, api.eigenvalues(mathieu, 20)) for _ in range(3)])
    return cases


def worker(src):
    """Serve timing requests on stdin: one case name per line, answered
    with the per-call microseconds of one round."""
    sys.path.insert(0, src)
    import numpy as np

    import jumpsl as api

    if Path(api.__file__).resolve().parent != Path(src, "jumpsl").resolve():
        sys.exit(f"layertime: imported jumpsl from {api.__file__}, not {src}")
    cases = _cases(api, np)
    print(json.dumps(sorted(cases)), flush=True)
    for line in sys.stdin:
        calls, fn = cases[line.strip()]
        t = time.perf_counter()
        fn()
        print(json.dumps((time.perf_counter() - t) / calls * 1e6), flush=True)


def _describe(root):
    """{"commit", "dirty"} of a git work tree's top, else {"path"}."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() == root.resolve():
            return {"commit": git("rev-parse", "--short", "HEAD"),
                    "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        pass
    return {"path": str(root)}


def _ask(proc, case):
    proc.stdin.write(case + "\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--json", type=Path, required=True)
    ap.add_argument("--rounds", type=int, default=9)
    args = ap.parse_args(argv)
    sides = ("parent", "change")
    roots = {s: _describe(root) for s, root in zip(sides, (args.parent, args.change))}
    procs = {}
    try:
        for side, root in zip(sides, (args.parent, args.change)):
            procs[side] = subprocess.Popen(
                [sys.executable, __file__, "--worker", str(root.resolve() / "src")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH="", MALLOC_MMAP_THRESHOLD_=str(32 << 20),
                         MALLOC_TRIM_THRESHOLD_=str(64 << 20)))
        names = [json.loads(procs[s].stdout.readline()) for s in sides]
        if names[0] != names[1]:
            sys.exit("layertime: the two trees build different cases")
        rows = []
        for c, case in enumerate(names[0]):
            times = {s: [] for s in sides}
            for r in range(args.rounds + 1):
                for side in (sides if (r + c) % 2 == 0 else sides[::-1]):
                    us = _ask(procs[side], case)
                    if r:
                        times[side].append(us)
            med = {s: statistics.median(times[s]) for s in sides}
            rows.append({"case": case, "parent_us": times["parent"], "change_us": times["change"],
                         "median_parent_us": med["parent"], "median_change_us": med["change"],
                         "ratio": med["change"] / med["parent"],
                         "change_faster_rounds": sum(a < b for a, b in zip(times["change"],
                                                                          times["parent"]))})
            print(f"{case:32s} parent {med['parent']:10.2f} us  change {med['change']:10.2f} us"
                  f"  ratio {rows[-1]['ratio']:.3f}  change faster {rows[-1]['change_faster_rounds']}"
                  f"/{args.rounds}", flush=True)
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait(timeout=60)
    record = json.loads(args.json.read_text()) if args.json.exists() else {}
    record.setdefault("layertime", []).append({
        "command": "python tools/layertime.py PARENT CHANGE --json FILE --rounds "
                   f"{args.rounds}",
        "roots": roots,
        "machine": {"cpu": platform.processor() or platform.machine(), "nproc": os.cpu_count(),
                    "python": platform.python_version()},
        "rounds": args.rounds, "rows": rows})
    args.json.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--worker":
        worker(sys.argv[2])
    else:
        main()
