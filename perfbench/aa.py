"""A/A runs: the same code, run repeatedly, to measure run-to-run spread.

Usage (from the repository root)::

    python3 perfbench/aa.py --runs 10 [--sets 2] [--workload NAME ...] [--seconds 10]

Runs ``run.py`` once per (set, run, workload), one process at a time, each
run with its own seed (set ``k`` run ``i`` uses seed ``1000 k + i + 1``;
the README's held-out seed lies outside these ranges).
For every end-to-end metric it prints the median, the quartiles of
:func:`statistics.quantiles` and the spread ``(Q3 - Q1) / median``
against the metric's bound in ``BENCHMARK.json``; with ``--sets 2`` it
also prints how far the second set's median moved from the first's, in
the direction that counts as worse.  The failed share of operations must
be identical across sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}\n{done.stderr}")
    return json.loads(lines[-1])


def spread(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workloads or [w["name"] for w in config["workloads"]]
    metrics = {m["name"]: m for m in config["end_to_end"]}

    ok = True
    for workload in workloads:
        sets = []
        for k in range(args.sets):
            results = [run_once(workload, 1000 * k + i + 1, args.seconds, 0) for i in range(args.runs)]
            sets.append(results)
            if not all(r["correct"] for r in results):
                print(f"{workload}: a run failed its output checks")
                ok = False
        shares = {
            round(sum(r["failed"] for r in s) / sum(r["attempted"] for r in s), 12) for s in sets
        }
        print(f"\n{workload}: {args.sets} x {args.runs} runs of {args.seconds:g} s, failed share {sorted(shares)}")
        print(f"  {'metric':<16} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}  drift")
        for name, spec in metrics.items():
            medians = []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s]
                median, q1, q3, width = spread(values)
                medians.append(median)
                flag = "" if width < spec["bound"] / 3 else "  WIDE"
                ok = ok and width < spec["bound"]
                print(f"  {name:<16} {median:12.4f} {q1:12.4f} {q3:12.4f} {width:8.2%} {spec['bound']:6.2f}{flag}")
            if len(medians) > 1:
                worse = medians[1] / medians[0] - 1.0
                if spec["better"] == "higher":
                    worse = -worse
                print(f"  {'':<16} second set worse by {worse:+.2%}")
                ok = ok and worse <= spec["bound"]
        ok = ok and len(shares) == 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
