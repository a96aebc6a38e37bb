"""The repository benchmark: one command, three workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tpcb-table1 --seed 42 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
loaded.  ``--trace 1`` is a separate run that patches each layer's public
entry points (in this process only, see ``spans.py``) and reports the
per-layer split.  Either way every unit's simulated outcome is checked;
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where the traced run writes its spans, relative to the working directory.
SPANS_DIR = Path(".bench_build") / "perfbench"

#: Units a rebuilding workload runs at least, so set-up has a median.
MIN_UNITS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "txn_per_host_s": "txn/s",
    "events_per_host_s": "event/s",
    "op_host_p50_us": "us",
    "op_host_p95_us": "us",
    "peak_rss_mb": "MB",
    "sim_flash_writes_per_txn": "write/txn",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _load_workloads():
    """Import the program from ``src/`` beside this directory."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def _run_units(workload, seconds: float, minimum: int, recorder=None) -> list:
    """Run units until ``seconds`` of wall time have passed (and ``minimum``)."""
    units = []
    deadline = time.perf_counter() + seconds
    while len(units) < minimum or time.perf_counter() < deadline:
        if recorder is None:
            units.append(workload.run_unit())
            continue
        recorder.begin_unit()
        units.append(workload.run_unit(recorder.measure))
        recorder.end_unit()
    return units


def _failures(workload, units: list) -> list:
    failures = [f for unit in units for f in unit.failures]
    if any(u.fingerprint != units[0].fingerprint for u in units):
        failures.append("units of the same seed produced different outcomes")
    return failures + workload.final_checks(units)


def end_to_end(workload, units: list) -> dict:
    setups = [u.setup_s for u in units if u.setup_s is not None]
    setups += workload.setup_times
    op_times = [t for u in units for t in u.op_times_s]
    # Rates are totals over the run: contention on a shared host comes in
    # bursts of seconds, which a mean over every unit smooths best.
    measured_s = sum(u.measured_s for u in units)
    return {
        "setup_s": statistics.median(setups),
        "txn_per_host_s": sum(u.txns for u in units) / measured_s,
        "events_per_host_s": sum(u.flash_ops for u in units) / measured_s,
        "op_host_p50_us": float(np.percentile(op_times, 50)) * 1e6,
        # p95, not p99: on a 2-core shared host, Python GC pauses and
        # host-speed swings move p99 by ~28% between runs (see README.md).
        "op_host_p95_us": float(np.percentile(op_times, 95)) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_flash_writes_per_txn": sum(u.flash_writes for u in units)
        / sum(u.txns for u in units),
    }


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if os.environ.get("REPRO_SANITIZE"):
        print(
            "perfbench: REPRO_SANITIZE is set; sanitizer cost must not enter "
            "a measurement. Unset it and run again.",
            file=sys.stderr,
        )
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    workloads = _load_workloads()
    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.prepare()

    if args.trace:
        import spans

        reference = workload.run_unit()
        recorder = spans.Recorder()
        recorder.install()
        traced = _run_units(workload, args.seconds, 1, recorder)
        metrics = spans.per_layer(recorder, traced, reference)
        units = [reference] + traced
        extra_failures = spans.check(recorder)
        path = recorder.write(SPANS_DIR, args.workload, args.seed)
        print(f"spans: {recorder.count} written to {path}")
        unit_names = spans.PER_LAYER_UNITS
    else:
        minimum = MIN_UNITS if workload.rebuilds_per_unit else 1
        units = _run_units(workload, args.seconds, minimum)
        metrics = end_to_end(workload, units)
        extra_failures = []
        unit_names = END_TO_END_UNITS

    failures = _failures(workload, units) + extra_failures
    attempted = sum(len(u.op_times_s) for u in units)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(units)} unit(s), {attempted} op(s)"
    )
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    for name, value in units[-1].sim.items():
        print(f"  sim.{name:<30} {value:>16.10g} (simulated)")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit_names[name]}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": attempted if failures else 0,
                "metrics": {
                    name: {"value": value, "unit": unit_names[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
