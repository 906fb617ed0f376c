"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-vectorized --seed 2014 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures rounds untraced for half the time, then as many
rounds again with spans around the program's layers (``layers.py``) and
``repro.obs`` phase profiling on; it prints the per-layer table, writes
the spans to ``.perfbench_out/`` and reports the per-layer metrics.  The
last line of standard output is always one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

from calibration import REFERENCE_SECONDS, calibrate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUTPUT_DIR = ROOT / ".perfbench_out"
#: Fresh-process set-ups per run; ``setup_s`` reports their median.
SETUP_PASSES = 9
DEFAULT_SEED = 2014


def load_config() -> dict:
    """``BENCHMARK.json``: the workload names, run length and metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(config: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(config["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import the program, set the workload up once, print the seconds and exit",
    )
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


@dataclass
class Round:
    """One timed round; ``calibration`` is the mean kernel time around it."""

    index: int
    inputs: Any
    outcome: Any
    wall: float
    calibration: float
    problems: list


def measure_setup(args) -> list:
    """Scaled set-up seconds of :data:`SETUP_PASSES` fresh processes, one at
    a time, each scaled by the calibrations just before and after it.

    Each pass is what a user pays before the first answer: interpreter
    imports of the program plus the workload's set-up.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    passes = []
    before = calibrate()
    for _ in range(SETUP_PASSES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up pass failed:\n{done.stderr}")
        after = calibrate()
        seconds = float(done.stdout.strip().splitlines()[-1])
        passes.append(seconds * REFERENCE_SECONDS / ((before + after) / 2.0))
        before = after
    return passes


def run_rounds(workload, first: int, *, seconds: float = None, count: int = None, tracer=None):
    """Run whole rounds from index ``first``: for ``seconds``, or ``count`` of them.

    Input generation, per-round preparation, the output checks and the
    calibration are outside each round's timer.  Every output but the
    first round's is dropped once checked, so memory does not grow with
    the number of rounds.
    """
    rounds = []
    began = time.perf_counter()
    index = first
    before = calibrate()
    while True:
        if count is not None and len(rounds) >= count:
            break
        if seconds is not None and rounds and time.perf_counter() - began >= seconds:
            break
        inputs = workload.inputs(index)
        workload.before_round()
        start = time.perf_counter()
        outcome = workload.execute(inputs, tracer, index)
        wall = time.perf_counter() - start
        problems = [f"round {index}: {p}" for p in workload.check(inputs, outcome)]
        if rounds:
            inputs = outcome.output = None
        after = calibrate()
        rounds.append(Round(index, inputs, outcome, wall, (before + after) / 2.0, problems))
        before = after
        index += 1
    return rounds


def host_speed(rounds) -> float:
    """Median host speed over ``rounds``: 1.0 is the reference host."""
    return REFERENCE_SECONDS / statistics.median(r.calibration for r in rounds)


def scaled(seconds: float, r: Round) -> float:
    """``seconds`` measured in round ``r``, at the reference host speed."""
    return seconds * REFERENCE_SECONDS / r.calibration


def scaled_samples(rounds) -> list:
    """Every request's ``(class, latency)``, at the reference host speed."""
    return [(klass, scaled(latency, r)) for r in rounds for klass, latency in r.outcome.samples]


def end_to_end(workload, rounds, setup_s: float) -> dict:
    """The untraced metrics of a run, at the reference host speed.

    Each round's wall time is scaled by the host speed measured around it
    (``calibration.py``).  A round's rate is its operations over its scaled
    time; its answer time is :meth:`Workload.answer_seconds` (the round's
    time, or on the advisor the class-balanced request latency), scaled.
    The run reports the median of each over its rounds.
    """
    rates = [r.outcome.ops / scaled(r.wall, r) for r in rounds]
    answers = [scaled(workload.answer_seconds(r.outcome, r.wall), r) for r in rounds]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
        "ops_per_s": {"value": statistics.median(rates), "unit": "ops/s"},
        "answer_p50_ms": {"value": statistics.median(answers) * 1e3, "unit": "ms"},
    }


def check_rounds(workload, rounds) -> list:
    """Every round's check results, plus the deep check of the first round."""
    problems = [p for r in rounds for p in r.problems]
    first = rounds[0]
    problems.extend(f"round {first.index}: {p}" for p in workload.deep_check(first.inputs, first.outcome))
    return problems


def traced_region(workload, untraced, seed: int) -> tuple:
    """Run as many rounds as ``untraced`` holds, traced; return
    ``(traced rounds, per-layer metrics, problems)``."""
    import repro.obs as obs
    from layers import Tracer, layer_metrics
    from workloads import class_percentiles

    phases_family = obs.catalog.family("repro_engine_phase_seconds_total")

    def phase_totals() -> dict:
        totals: dict = {}
        for key, value in phases_family.values().items():
            phase = dict(zip(phases_family.labelnames, key))["phase"]
            totals[phase] = totals.get(phase, 0.0) + value
        return totals

    tracer = Tracer()
    obs.configure(metrics=True)
    before = phase_totals()
    tracer.install()
    try:
        traced = run_rounds(workload, untraced[-1].index + 1, count=len(untraced), tracer=tracer)
    finally:
        tracer.uninstall()
        obs.configure(metrics=False)
    after = phase_totals()
    phases = {phase: after[phase] - before.get(phase, 0.0) for phase in after}

    problems = []
    # Timers never change values: replay the first traced round untraced.
    first = traced[0]
    workload.before_round()
    replay = workload.execute(first.inputs, None, first.index)
    if workload.fingerprint(replay) != workload.fingerprint(first.outcome):
        problems.append(f"round {first.index}: traced output differs from the untraced replay")

    metrics = layer_metrics(tracer, phases, workload.root)
    metrics.update(class_percentiles(scaled_samples(untraced)))
    # Both regions at the reference host speed, so a slower stretch of the
    # host does not read as tracing cost.
    metrics["trace.overhead_ratio"] = sum(scaled(r.wall, r) for r in traced) / sum(
        scaled(r.wall, r) for r in untraced
    )

    OUTPUT_DIR.mkdir(exist_ok=True)
    spans_path = OUTPUT_DIR / f"spans-{workload.name}-seed{seed}.npz"
    tracer.write(spans_path)
    print(f"spans: {tracer.span_count} written to {spans_path.relative_to(ROOT)}")
    return traced, metrics, problems


def print_layer_table(metrics: dict) -> None:
    print(f"{'layer metric':<28} {'value':>14}  unit")
    for name, metric in metrics.items():
        value, unit = metric["value"], metric["unit"]
        text = f"{value:14d}" if unit == "count" else f"{value:14.6f}"
        print(f"{name:<28} {text}  {unit}")


def main(argv=None) -> int:
    config = load_config()
    args = parse_args(config, argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import repro  # noqa: F401  (the program: part of set-up time)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        workload.setup()
        print(time.perf_counter() - PROCESS_START)
        workload.close()
        return 0

    passes = [] if args.trace else measure_setup(args)
    workload.setup()
    try:
        run_rounds(workload, 0, count=1)  # warm-up, not measured
        seconds = args.seconds if not args.trace else args.seconds / 2.0
        rounds = run_rounds(workload, 1, seconds=seconds)
        problems = check_rounds(workload, rounds)
        if args.trace:
            traced, layer_values, traced_problems = traced_region(workload, rounds, args.seed)
            problems.extend(traced_problems)
            problems.extend(p for r in traced for p in r.problems)
            rounds = rounds + traced
            metrics = {m["name"]: {"value": layer_values[m["name"]], "unit": m["unit"]} for m in config["per_layer"]}
            print_layer_table(metrics)
        else:
            metrics = end_to_end(workload, rounds, statistics.median(passes))
            if rounds[0].outcome.samples:
                from workloads import class_percentiles

                classes = class_percentiles(scaled_samples(rounds))
                print("advisor classes (scaled ms): " + json.dumps({k: round(v, 4) for k, v in classes.items()}))
        threads = threading.active_count()
    finally:
        workload.close()

    attempted = sum(r.outcome.ops for r in rounds)
    failed = sum(r.outcome.failed for r in rounds)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    facts = machine_facts()
    facts["python_threads"] = threads
    print("machine: " + json.dumps(facts, sort_keys=True))
    rates = sorted(r.outcome.ops / r.wall for r in rounds)
    print(
        f"run: workload={args.workload} seed={args.seed} rounds={len(rounds)} "
        f"unscaled_rate_min/median/max={rates[0]:.1f}/{statistics.median(rates):.1f}/{rates[-1]:.1f} "
        f"host_speed={host_speed(rounds):.3f} "
        f"setup_passes_s={[round(p, 4) for p in passes]} checks_failed={len(problems)} "
        f"tie_band_redraws={workload.redrawn}"
    )
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
