"""jumpsl benchmark: one workload as a closed loop in this process.

    python3 bench/run.py --workload forward_const --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The library is imported from the
checkout's ``src/``; without it the script exits non-zero and prints no
result.  Set-up comes first: the library's import in a fresh interpreter,
then the workload's validation, config save and target generation, done
SETUP_REPEATS times with the median reported as ``setup_s``.  The
workload's job then runs again and again, each start waiting for the last
job to end, while one more job still fits in ``--seconds``.  Every answer
is checked against an independent reference.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, and with ``--trace 1`` its
per-layer metrics, taken from one more job (and its set-up) run with the
wrappers of ``tracing.py`` installed.  Lines before it give the
provenance, each job, the stage times and the reference errors.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "JUMPSL_THREADS")
# reference errors at or below this read as 17 correct digits
ERR_FLOOR = 1e-17
IMPORT_PROBE = ("import time; t = time.perf_counter(); import jumpsl, jumpsl.cli; "
                "print(time.perf_counter() - t)")


def import_library():
    src = ROOT / "src"
    if not (src / "jumpsl" / "__init__.py").is_file():
        sys.exit(f"bench: no jumpsl package under {src}")
    sys.path.insert(0, str(src))
    import jumpsl
    import jumpsl.cli  # noqa: F401  (the CLI is driven in-process)

    if Path(jumpsl.__file__).resolve().parent != src / "jumpsl":
        sys.exit(f"bench: imported jumpsl from {jumpsl.__file__}, not {src}")
    return jumpsl


def import_seconds():
    """Time to import the library in a fresh interpreter, as a CLI call pays it."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def provenance(api, seed):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "jumpsl": api.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "seed": seed,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_jobs(workload, api, inputs, seconds, ledger):
    """Closed loop: start another job while one more still fits in ``seconds``."""
    records = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        rec = workloads.JobRecord(ledger)
        t0 = time.perf_counter()
        workload.job(api, inputs, rec)
        rec.total_s = time.perf_counter() - t0
        records.append(rec)
        longest = max(longest, rec.total_s)
        print(f"job {len(records)}: total_s = {rec.total_s:.4f} s  "
              + "  ".join(f"{k} = {v:.4f} s" for k, v in sorted(rec.stages.items())))
        if time.perf_counter() - start + longest > seconds:
            return records


def end_to_end(setup_s, records):
    errors = {}
    for rec in records:
        for name, value in rec.errors.items():
            errors[name] = max(value, errors.get(name, 0.0))
    for name in sorted(records[0].stages):
        median = statistics.median(r.stages.get(name, 0.0) for r in records)
        print(f"{name} = {median!r} s (median of {len(records)} jobs)")
    for name, value in sorted(errors.items()):
        print(f"{name} = {value!r}")
    return {
        "setup_s": setup_s,
        "total_s": statistics.median(r.total_s for r in records),
        "ref_digits": -math.log10(max(*errors.values(), ERR_FLOOR)) if errors else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(args, api, workdir):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    workload = workloads.WORKLOADS[args.workload]()
    print("provenance " + json.dumps(provenance(api, args.seed)))

    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = import_seconds()
        t0 = time.perf_counter()
        inputs = workload.setup(api, args.seed, str(workdir))
        setups.append((import_s, time.perf_counter() - t0))
        print(f"set-up: import {import_s:.4f} s, workload {setups[-1][1]:.4f} s")
    setup_s = statistics.median(i + w for i, w in setups)

    ledger = workloads.Ledger(api.JumpSLError)
    records = run_jobs(workload, api, inputs, args.seconds, ledger)
    if args.trace:
        tracer = tracing.Tracer(api)
        with tracer.installed():
            inputs = workload.setup(api, args.seed, str(workdir))
            rec = workloads.JobRecord(ledger)
            t0 = time.perf_counter()
            workload.job(api, inputs, rec)
            traced_s = time.perf_counter() - t0
        untraced_s = statistics.median(r.total_s for r in records)
        print(f"traced job: total_s = {traced_s:.4f} s, {len(tracer.spans)} spans")
        values = tracer.layer_metrics(overhead_s=traced_s - untraced_s)
    else:
        values = end_to_end(setup_s, records)

    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {names}")
    for f in ledger.failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"ops_failed_ratio = {ledger.failed / max(ledger.attempted, 1)!r} "
          f"({ledger.failed} of {ledger.attempted})")
    metrics = {}
    for m in declared:
        value = values[m["name"]]
        value = int(value) if m["unit"] == "count" else float(value)
        print(f"{m['name']} = {value!r} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # on SIGTERM, still run the clean-up below and stop the import probe
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    api = import_library()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    tempfile.tempdir = str(workdir)  # keep every temporary file inside the checkout
    try:
        result = run(args, api, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
