"""The benchmark's three workloads: set-up, one measured unit, checks.

A workload is measured in *units*.  A unit is a fixed amount of
deterministic work whose outcome is checked, and whose host time is
split into set-up (build stacks, load data) and the measured phase:

* ``tpcb-table1``: one Table-1 sweep, i.e. three
  :func:`repro.bench.harness.run_experiment` calls ([0x0] traditional
  MLC, [2x4] pSLC, [2x4] odd-MLC), each of which builds and loads its
  own stack.  An op is one ``Workload.transaction`` call.
* ``service-repl``: one :class:`repro.service.service.ShardedService`
  built and run to completion.  An op is one primary
  ``Shard.execute_batch`` call (a commit group plus its standby ship).
* ``trace-replay``: one :func:`repro.workloads.trace.replay_on_ipa` call
  over a trace recorded in set-up (three times; the recordings must
  agree).  The op is the replay itself.

Every clock read here is the host clock; simulated time is read only
from the program's own results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.bench.harness import ExperimentConfig, ExperimentResult, run_experiment
from repro.bench.table1 import Table1Settings
from repro.bench.table1 import run as table1_run
from repro.flash.modes import FlashMode
from repro.service import ServiceConfig
from repro.service.service import ShardedService
from repro.service.shard import device_chips
from repro.workloads import trace as trace_module
from repro.workloads.tpcb import TpcbWorkload

PINNED_PATH = Path(__file__).with_name("pinned.json")
#: The seed whose outcomes ``pinned.json`` records.
PINNED_SEED = 42

#: Simulated seconds per Table-1 configuration.  Long enough that GC
#: runs in all three configurations (about 20 erases on [0x0]).
TABLE1_DURATION_S = 2.0
#: Transactions behind the replayed trace (~11k events at 12k accounts).
TRACE_TXNS = 6000
#: Transactions each service session issues per unit.
SERVICE_TXNS_PER_SESSION = 200


def load_pinned() -> dict:
    with open(PINNED_PATH) as fh:
        return json.load(fh)


def fingerprint(value) -> str:
    """SHA-256 of a JSON rendering (floats keep every digit via repr)."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def flash_ops(stats) -> int:
    """Flash operations in a :class:`repro.flash.stats.FlashStats`."""
    return (
        stats.page_reads
        + stats.page_programs
        + stats.page_reprograms
        + stats.block_erases
    )


def flash_writes(stats) -> int:
    return stats.page_programs + stats.page_reprograms


@dataclass
class Unit:
    """Host-time and simulated outcome of one unit of work."""

    setup_s: Optional[float]
    measured_s: float
    op_times_s: list
    txns: int
    flash_ops: int
    flash_writes: int
    #: Digest of every simulated outcome; equal units agree on it.
    fingerprint: str
    #: Simulated metrics (a pure function of the seed).
    sim: dict = field(default_factory=dict)
    #: Program counters read after the unit (for the traced run).
    counters: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


class TimedWorkload:
    """Wraps the workload instance handed to ``ExperimentConfig``.

    Times each ``transaction`` call and notes when ``build`` (the load)
    ends, which is where :func:`run_experiment` starts its measured
    phase.  Everything else is delegated to the wrapped workload.
    """

    def __init__(self, inner, op_times: list, on_built: Callable) -> None:
        self._inner = inner
        self._op_times = op_times
        self._on_built = on_built

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def build(self, db, rng) -> None:
        self._inner.build(db, rng)
        self._on_built(db)

    def transaction(self, db, rng):
        start = time.perf_counter()
        out = self._inner.transaction(db, rng)
        self._op_times.append(time.perf_counter() - start)
        return out


# ---------------------------------------------------------------------- #
# tpcb-table1
# ---------------------------------------------------------------------- #


def _table1_configs(settings: Table1Settings, workload_for: Callable) -> list:
    """The three configurations of :func:`repro.bench.table1.run`."""
    common = dict(
        duration_s=settings.duration_s,
        buffer_pages=settings.buffer_pages,
        seed=settings.seed,
    )
    return [
        ExperimentConfig(
            workload=workload_for(), architecture="traditional",
            mode=FlashMode.MLC, label="[0x0]", **common,
        ),
        ExperimentConfig(
            workload=workload_for(), architecture="ipa-native",
            mode=FlashMode.PSLC, scheme=settings.scheme,
            label="[2x4] pSLC", **common,
        ),
        ExperimentConfig(
            workload=workload_for(), architecture="ipa-native",
            mode=FlashMode.ODD_MLC, scheme=settings.scheme,
            label="[2x4] odd-MLC", **common,
        ),
    ]


def table1_fingerprints(results: dict) -> dict:
    return {
        label: fingerprint(dataclasses.asdict(result))
        for label, result in results.items()
    }


class TpcbTable1:
    name = "tpcb-table1"
    #: Every unit builds and loads its stacks; their set-up is timed there.
    rebuilds_per_unit = True
    setup_times = ()

    def __init__(self, seed: int) -> None:
        self.settings = Table1Settings(duration_s=TABLE1_DURATION_S, seed=seed)

    def prepare(self) -> None:
        """Nothing up front: every run_experiment builds its own stack."""

    def _tpcb(self) -> TpcbWorkload:
        s = self.settings
        return TpcbWorkload(
            scale=1,
            accounts_per_branch=s.accounts_per_branch,
            history_pages=s.history_pages,
        )

    def run_unit(self, on_measured: Optional[Callable] = None) -> Unit:
        """One Table-1 sweep.  ``on_measured(flag)`` brackets measured phases."""
        op_times: list = []
        results: dict[str, ExperimentResult] = {}
        setup_s = measured_s = 0.0
        ops = writes = 0
        for config in _table1_configs(self.settings, self._tpcb):
            built = {}

            def on_built(db, built=built) -> None:
                built["t"] = time.perf_counter()
                built["chip"] = db.manager.device.chip
                built["before"] = db.manager.device.chip.stats.snapshot()
                if on_measured is not None:
                    on_measured(True)

            config.workload = TimedWorkload(config.workload, op_times, on_built)
            start = time.perf_counter()
            try:
                result = run_experiment(config)
            finally:
                if on_measured is not None:
                    on_measured(False)
            end = time.perf_counter()
            setup_s += built["t"] - start
            measured_s += end - built["t"]
            flash = built["chip"].stats.diff(built["before"])
            ops += flash_ops(flash)
            writes += flash_writes(flash)
            results[config.label] = result
        self._last_fingerprints = table1_fingerprints(results)
        unit = Unit(
            setup_s=setup_s,
            measured_s=measured_s,
            op_times_s=op_times,
            txns=sum(r.transactions for r in results.values()),
            flash_ops=ops,
            flash_writes=writes,
            fingerprint=fingerprint(self._last_fingerprints),
        )
        base, pslc, odd = (
            results["[0x0]"], results["[2x4] pSLC"], results["[2x4] odd-MLC"]
        )
        every = list(results.values())
        host_writes = sum(r.host_writes for r in every)
        unit.sim = {
            "tps": sum(r.transactions for r in every)
            / sum(r.elapsed_s for r in every),
            "ipa_tps_gain": pslc.tps / base.tps,
            "txn_p99_us": max(r.latency_p99_us for r in every),
            "gc_migrations_per_write": sum(r.gc_page_migrations for r in every)
            / host_writes,
            "erases_per_write": sum(r.gc_erases for r in every) / host_writes,
        }
        for ipa in (pslc, odd):
            if not ipa.tps > base.tps:
                unit.failures.append(
                    f"{ipa.config_label} TPS {ipa.tps:.1f} not above [0x0] "
                    f"{base.tps:.1f}"
                )
            if not ipa.migrations_per_host_write < base.migrations_per_host_write:
                unit.failures.append(
                    f"{ipa.config_label} migrations/write not below [0x0]"
                )
        for r in every:
            if r.gc_erases == 0:
                unit.failures.append(f"{r.config_label}: GC never ran")
        return unit

    def final_checks(self, units: list) -> list:
        """The sweeps equal :func:`repro.bench.table1.run` at the same settings."""
        failures = []
        reference = table1_fingerprints(table1_run(self.settings))
        if reference != self._last_fingerprints:
            failures.append("sweep differs from repro.bench.table1.run()")
        if self.settings.seed == PINNED_SEED:
            if reference != load_pinned()["tpcb-table1"]:
                failures.append("Table-1 counters differ from pinned.json")
        return failures


# ---------------------------------------------------------------------- #
# service-repl
# ---------------------------------------------------------------------- #


def service_config(seed: int) -> ServiceConfig:
    return ServiceConfig(
        shards=4,
        sessions=16,
        txns_per_session=SERVICE_TXNS_PER_SESSION,
        admission_policy="wait",
        group_commit_size=4,
        think_time_us=100.0,
        scheduling="deterministic",
        replication=True,
        seed=seed,
    )


def _service_chips(service: ShardedService) -> list:
    stacks = list(service.shards)
    stacks += [shard.replica.standby for shard in service.shards]
    chips = []
    for shard in stacks:
        chips += device_chips(shard.manager.device.chip)
        chips += device_chips(shard.manager.wal.chip)
    return chips


class ServiceRepl:
    name = "service-repl"
    rebuilds_per_unit = True
    setup_times = ()

    def __init__(self, seed: int) -> None:
        self.config = service_config(seed)

    def prepare(self) -> None:
        """Nothing up front: every unit builds its own fleet."""

    def run_unit(self, on_measured: Optional[Callable] = None) -> Unit:
        config = self.config
        start = time.perf_counter()
        service = ShardedService(config)
        built = time.perf_counter()
        op_times: list = []
        for shard in service.shards:
            shard.execute_batch = _timed(shard.execute_batch, op_times)
        chips = _service_chips(service)
        before = [chip.stats.snapshot() for chip in chips]
        if on_measured is not None:
            on_measured(True)
        try:
            result = service.run()
        finally:
            if on_measured is not None:
                on_measured(False)
        end = time.perf_counter()
        diffs = [chip.stats.diff(b) for chip, b in zip(chips, before)]
        reports = result.shard_reports
        unit = Unit(
            setup_s=built - start,
            measured_s=end - built,
            op_times_s=op_times,
            txns=result.txns_completed,
            flash_ops=sum(flash_ops(d) for d in diffs),
            flash_writes=sum(flash_writes(d) for d in diffs),
            fingerprint=fingerprint(
                {
                    "digests": result.digests(),
                    "dispatch": [r.dispatch_log for r in reports],
                    "latencies": [s.latencies_us for s in service.shards],
                }
            ),
        )
        groups = sum(r.group_commits for r in reports)
        acked = sum(r.repl_groups_acked for r in reports)
        unit.sim = {
            "tps": result.tps,
            "txn_p99_us": max(r.p99_us for r in reports),
        }
        unit.counters = {
            "service.mean_group_size": result.txns_completed / groups,
            "service.admission_waits": sum(r.admission_waits for r in reports),
            "service.sim_admission_wait_us": sum(
                r.admission_wait_us for r in reports
            ),
            "service.repl.sim_lag_us": sum(r.repl_lag_us for r in reports)
            / acked,
        }
        want = config.txns_per_session
        for session in service.sessions:
            if session.completed != want or session.shed:
                unit.failures.append(
                    f"session {session.tenant}: {session.completed}/{want} "
                    f"committed, {session.shed} shed"
                )
        for report in reports:
            if report.standby_digest != report.media_digest:
                unit.failures.append(
                    f"shard {report.index}: standby digest != primary digest"
                )
            if report.repl_groups_acked != report.group_commits:
                unit.failures.append(
                    f"shard {report.index}: {report.repl_groups_acked} of "
                    f"{report.group_commits} groups acknowledged"
                )
        self._last_digests = result.digests()
        return unit

    def final_checks(self, units: list) -> list:
        if self.config.seed != PINNED_SEED:
            return []
        if self._last_digests != load_pinned()["service-repl"]:
            return ["per-shard media digests differ from pinned.json"]
        return []


def _timed(method: Callable, op_times: list) -> Callable:
    def timed(*args, **kwargs):
        start = time.perf_counter()
        out = method(*args, **kwargs)
        op_times.append(time.perf_counter() - start)
        return out

    return timed


# ---------------------------------------------------------------------- #
# trace-replay
# ---------------------------------------------------------------------- #


def replay_counters(result) -> dict:
    return {
        "device": dataclasses.asdict(result.device_stats),
        "flash": dataclasses.asdict(result.flash_stats),
        "recorded_misses": result.recorded_misses,
        "replayed_reads": result.replayed_reads,
        "skipped_misses": result.skipped_misses,
        "preseeded_pages": result.preseeded_pages,
    }


class TraceReplay:
    name = "trace-replay"
    rebuilds_per_unit = False
    #: Times the trace is recorded (set-up) per run; all must agree.
    SETUPS = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.settings = Table1Settings(seed=seed)
        self.setup_times: list = []
        self.failures: list = []

    def record(self):
        s = self.settings
        workload = TpcbWorkload(
            scale=1,
            accounts_per_branch=s.accounts_per_branch,
            history_pages=s.history_pages,
        )
        return trace_module.record_trace(
            workload,
            transactions=TRACE_TXNS,
            buffer_pages=s.buffer_pages,
            seed=self.seed,
        )

    def prepare(self) -> None:
        traces = []
        for _ in range(self.SETUPS):
            start = time.perf_counter()
            traces.append(self.record())
            self.setup_times.append(time.perf_counter() - start)
        self.trace = traces[0]
        if any(t.events != self.trace.events for t in traces[1:]):
            self.failures.append("recording the same seed twice differed")
        self.misses = sum(e.kind == "miss" for e in self.trace.events)

    def run_unit(self, on_measured: Optional[Callable] = None) -> Unit:
        scheme = self.settings.scheme
        if on_measured is not None:
            on_measured(True)
        start = time.perf_counter()
        try:
            # Called through the module so the traced run's patch applies.
            result = trace_module.replay_on_ipa(self.trace, scheme, FlashMode.PSLC)
        finally:
            end = time.perf_counter()
            if on_measured is not None:
                on_measured(False)
        counters = replay_counters(result)
        device, flash = result.device_stats, result.flash_stats
        host_writes = device.host_writes + device.host_delta_writes
        unit = Unit(
            setup_s=None,
            measured_s=end - start,
            op_times_s=[end - start],
            txns=TRACE_TXNS,
            flash_ops=flash_ops(flash),
            flash_writes=flash_writes(flash),
            fingerprint=fingerprint(counters),
            sim={
                "gc_migrations_per_write": device.gc_page_migrations
                / host_writes,
                "erases_per_write": device.gc_erases / host_writes,
            },
        )
        if result.recorded_misses != result.replayed_reads + result.skipped_misses:
            unit.failures.append("recorded_misses != replayed + skipped")
        if result.skipped_misses:
            unit.failures.append(f"{result.skipped_misses} misses skipped")
        if result.recorded_misses != self.misses:
            unit.failures.append("replay saw a different number of misses")
        self._last_counters = counters
        return unit

    def final_checks(self, units: list) -> list:
        failures = list(self.failures)
        if self.seed == PINNED_SEED:
            if self._last_counters != load_pinned()["trace-replay"]:
                failures.append("replay counters differ from pinned.json")
        return failures


WORKLOADS = {w.name: w for w in (TpcbTable1, ServiceRepl, TraceReplay)}
