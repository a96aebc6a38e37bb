"""Where the host time goes: cProfile self-time by package, in two runs.

Profiles two runs and sums each function's *self* time (cProfile
``tottime``) into the ``repro.<package>`` that defines it:

* :func:`repro.bench.table1.run` (the three Table-1 configurations, no
  WAL).  The load phase (``TpcbWorkload.build``: formatting and filling
  the tables) and the measured phase (the timed TPC-B transactions) are
  profiled separately, because they stress different code: the load is
  bulk inserts, the measured phase small in-place updates.
* A replicated :class:`~repro.service.service.ShardedService` (TPC-B
  shards with a WAL, group commit and a synchronous standby each, on
  deterministic scheduling), the only run of the WAL, service and
  replication code.  The build phase (constructing the fleet, which
  loads every shard and standby through the WAL) and the run phase
  (``ShardedService.run``) are profiled separately.

Built-in functions (``int.from_bytes``, ``zlib.crc32``, ``dict.get``, ...)
have no package of their own; their self-time is charged to the package
of the ``repro`` function that called them, so a package's share is what
its code costs, C helpers included.  Time outside ``repro`` (numpy's
Python layer, the standard library) is reported as ``(other)``.

Usage::

    PYTHONPATH=src python benchmarks/layer_profile.py           # full size
    PYTHONPATH=src python benchmarks/layer_profile.py --fast    # ~4x smaller

The host clock is read only here, under ``benchmarks/`` (reprolint R1
keeps it out of ``src/repro``).  cProfile roughly doubles the run time,
so the absolute seconds are inflated; the shares are what to compare.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

from repro.bench import table1
from repro.service import ServiceConfig
from repro.service.service import ShardedService
from repro.workloads.tpcb import TpcbWorkload

OTHER = "(other)"
TABLE1_PHASES = ("load", "measured")
SERVICE_PHASES = ("build", "run")
#: Functions listed per phase, by self-time.
TOP = 10


def module_of(filename: str) -> str | None:
    """Dotted ``repro`` module of a source file, or None outside ``repro``."""
    parts = Path(filename).with_suffix("").parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return ".".join(parts[i:])
    return None


def package_of(filename: str) -> str | None:
    """``repro.<package>`` of a source file, or None outside ``repro``."""
    module = module_of(filename)
    if module is None:
        return None
    return ".".join(module.split(".")[:2])


def _is_builtin(key: tuple) -> bool:
    filename, _line, _name = key
    return filename == "~"


def self_time_by_package(stats: pstats.Stats) -> dict[str, float]:
    """Sum ``tottime`` per package; builtins go to their calling package."""
    totals: dict[str, float] = {}
    raw = stats.stats  # type: ignore[attr-defined]
    for key, (_cc, _nc, tottime, _ct, callers) in raw.items():
        if not _is_builtin(key):
            pkg = package_of(key[0]) or OTHER
            totals[pkg] = totals.get(pkg, 0.0) + tottime
            continue
        # Split a builtin's self-time over its callers in proportion to
        # the time each caller spent in it.
        spent = sum(entry[2] for entry in callers.values())
        for caller, entry in callers.items():
            share = tottime * (entry[2] / spent) if spent else 0.0
            pkg = OTHER if _is_builtin(caller) else package_of(caller[0]) or OTHER
            totals[pkg] = totals.get(pkg, 0.0) + share
        if not callers:
            totals[OTHER] = totals.get(OTHER, 0.0) + tottime
    return totals


def profile_table1(settings: table1.Table1Settings) -> tuple[dict, dict]:
    """Run Table 1 once; returns per-phase profiles and wall seconds."""
    profilers = {phase: cProfile.Profile() for phase in TABLE1_PHASES}
    wall = {phase: 0.0 for phase in TABLE1_PHASES}
    original_build = TpcbWorkload.build

    def build(self: TpcbWorkload, db: object, rng: object) -> None:
        profilers["measured"].disable()
        start = time.perf_counter()
        profilers["load"].enable()
        try:
            original_build(self, db, rng)
        finally:
            profilers["load"].disable()
            wall["load"] += time.perf_counter() - start
            profilers["measured"].enable()

    TpcbWorkload.build = build  # type: ignore[method-assign]
    try:
        start = time.perf_counter()
        profilers["measured"].enable()
        table1.run(settings)
        profilers["measured"].disable()
        wall["measured"] = time.perf_counter() - start - wall["load"]
    finally:
        TpcbWorkload.build = original_build  # type: ignore[method-assign]
    stats = {phase: pstats.Stats(p) for phase, p in profilers.items()}
    return stats, wall


def profile_service(config: ServiceConfig) -> tuple[dict, dict]:
    """Build and run one service; returns per-phase profiles and wall seconds."""
    profilers = {phase: cProfile.Profile() for phase in SERVICE_PHASES}
    wall = {}
    start = time.perf_counter()
    profilers["build"].enable()
    service = ShardedService(config)
    profilers["build"].disable()
    built = time.perf_counter()
    profilers["run"].enable()
    service.run()
    profilers["run"].disable()
    wall["build"] = built - start
    wall["run"] = time.perf_counter() - built
    stats = {phase: pstats.Stats(p) for phase, p in profilers.items()}
    return stats, wall


def service_config(fast: bool) -> ServiceConfig:
    """The perfbench service-repl fleet; 2 shards and 8 sessions x 50
    transactions under ``--fast`` instead of 4 shards, 16 x 200."""
    return ServiceConfig(
        shards=2 if fast else 4,
        sessions=8 if fast else 16,
        txns_per_session=50 if fast else 200,
        admission_policy="wait",
        group_commit_size=4,
        think_time_us=100.0,
        scheduling="deterministic",
        replication=True,
        seed=42,
    )


def summarize(stats: dict, wall: dict, phases: tuple) -> dict:
    """Per-phase ``{package: {"self_s", "share"}}`` plus wall seconds."""
    out: dict = {"wall_s": {p: round(wall[p], 3) for p in phases}, "phases": {}}
    for phase in phases:
        totals = self_time_by_package(stats[phase])
        whole = sum(totals.values()) or 1.0
        out["phases"][phase] = {
            pkg: {"self_s": round(t, 3), "share": round(t / whole, 4)}
            for pkg, t in sorted(totals.items(), key=lambda kv: -kv[1])
        }
    return out


def render(summary: dict, top: dict, phases: tuple) -> str:
    """A Markdown table per phase, then the top functions per phase."""
    lines = []
    for phase in phases:
        rows = summary["phases"][phase]
        lines.append(
            f"### {phase} phase ({summary['wall_s'][phase]:.2f} s wall, profiled)"
        )
        lines.append("")
        lines.append("| Package | Self-time (s) | Share |")
        lines.append("|---|---:|---:|")
        for pkg, row in rows.items():
            lines.append(f"| `{pkg}` | {row['self_s']:.3f} | {row['share']:.1%} |")
        lines.append("")
        lines.append("Top functions by self-time:")
        lines.append("")
        for name, tottime, calls in top[phase]:
            lines.append(f"- `{name}`: {tottime:.3f} s, {calls} calls")
        lines.append("")
    return "\n".join(lines)


def top_functions(stats: pstats.Stats, n: int) -> list:
    """The ``n`` functions with the most self-time: (name, seconds, calls)."""
    raw = stats.stats  # type: ignore[attr-defined]
    ranked = sorted(raw.items(), key=lambda kv: -kv[1][2])[:n]
    out = []
    for (filename, _line, name), (_cc, calls, tottime, _ct, _callers) in ranked:
        if filename == "~":
            label = name
        else:
            module = module_of(filename)
            label = f"{module or Path(filename).name}:{name}"
        out.append((label, tottime, calls))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast", action="store_true",
        help="Table 1 at 3000 accounts and 0.5 simulated seconds per "
        "configuration; the service at 2 shards and 8 sessions x 50 txns",
    )
    args = parser.parse_args(argv)

    if args.fast:
        settings = table1.Table1Settings(
            duration_s=0.5, accounts_per_branch=3000, history_pages=100
        )
    else:
        settings = table1.Table1Settings()
    config = service_config(args.fast)
    runs = (
        ("Table 1 (TPC-B, no WAL)", TABLE1_PHASES, lambda: profile_table1(settings)),
        (
            f"Replicated service ({config.shards} shards, {config.sessions} "
            f"sessions x {config.txns_per_session} txns, WAL, sync standby)",
            SERVICE_PHASES,
            lambda: profile_service(config),
        ),
    )
    for title, phases, run in runs:
        stats, wall = run()
        summary = summarize(stats, wall, phases)
        top = {phase: top_functions(stats[phase], TOP) for phase in phases}
        print(f"## {title}\n")
        print(render(summary, top, phases))
    return 0


if __name__ == "__main__":
    sys.exit(main())
