"""Self-test of the benchmark: two traced runs of one seed must report
identical counts.

    python3 bench/selftest.py [--workload inverse_fit ...] [--seed 1]

Runs ``run.py --trace 1`` twice per workload (all three by default) and
compares every per-layer metric whose unit is ``count``, among them
``propagation.q_evals``, ``propagation.batch_calls``,
``inverse.residual_calls`` and ``inverse.nfev``.  Each run must also be
correct.  Exits 1 on any difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def traced_counts(workload, seed):
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}
    return result["correct"], counts


def main(argv=None):
    ap = argparse.ArgumentParser(description="two traced runs of one seed give identical counts")
    ap.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    ok = True
    for workload in args.workload:
        (correct_a, a), (correct_b, b) = (traced_counts(workload, args.seed) for _ in range(2))
        diff = sorted(k for k in a if a[k] != b.get(k))
        good = correct_a and correct_b and not diff and a.keys() == b.keys()
        ok &= good
        print(f"{workload}: {'ok' if good else 'FAIL'}; "
              + ", ".join(f"{k}={a[k]}" + ("" if k not in diff else f"/{b.get(k)}")
                          for k in sorted(a)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
