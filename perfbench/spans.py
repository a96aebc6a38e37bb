"""Span recorder for the traced run (``--trace 1``); loaded by no other run.

:meth:`Recorder.install` replaces the public entry points of each
``repro`` layer, in this process only, with wrappers that record one span
per call: name, host start and end, parent span and request id.  Nothing
inside ``src/repro`` is edited and no host clock is read there.

Spans are kept in memory as flat arrays and written out at the end.  A
span's *self time* is its duration minus the time covered by its child
spans, so the layers' self times sum to the root spans' total.  A
request is the outermost op span (a TPC-B transaction, a commit group, a
trace replay); every span under it carries its id.

While patching, the recorder also notes the first time it sees each
stack object (chip, FTL, storage manager, WAL) inside a measured phase
and snapshots its counters, so the per-layer counters cover exactly the
measured phases.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = (
    "workloads",
    "service",
    "service.repl",
    "engine",
    "engine.wal",
    "storage",
    "core",
    "ftl",
    "flash",
)

#: Module -> layer.  A module not listed belongs to its top package.
_MODULE_LAYER = {
    "repro.engine.wal": "engine.wal",
    "repro.service.replication": "service.repl",
}

_FLASH_OPS = (
    "read_page", "read_page_with_oob", "program_page", "reprogram_page",
    "partial_program", "erase_block", "execute_batch",
)
_FTL_OPS = (
    "read_page", "write_page", "write_delta", "read_many", "write_many", "trim",
)

#: (module, class, methods).  ``None`` patches every public method the
#: class itself defines; subclasses' overrides of the listed methods are
#: patched too.  Only stacks that some workload builds are listed.
TARGETS = (
    ("repro.workloads.tpcb", "TpcbWorkload", ("transaction",)),
    ("repro.service.service", "ShardedService", ("run",)),
    ("repro.service.shard", "Shard",
     ("execute_batch", "execute_tenant_group", "media_digest")),
    ("repro.service.admission", "AdmissionController",
     ("offer", "admit", "take", "has_room")),
    ("repro.service.replication", "ShardReplica", ("ship",)),
    ("repro.service.replication", "ReplicationLink", ("ship",)),
    ("repro.engine.database", "Table", None),
    ("repro.engine.database", "Database", None),
    ("repro.engine.transaction", "Transaction", ("commit",)),
    ("repro.engine.wal", "WriteAheadLog",
     ("log_update", "log_format", "commit", "begin_group", "end_group",
      "flush_group")),
    ("repro.storage.manager", "StorageManager", None),
    ("repro.storage.manager", "WritePolicy", ("flush",)),
    ("repro.storage.heap", "HeapFile", None),
    ("repro.core.tracker", "ChangeTracker", None),
    ("repro.core.delta", "DeltaRecord", ("encode", "decode")),
    ("repro.ftl.page_mapping", "PageMappingFtl", _FTL_OPS),
    ("repro.ftl.noftl", "NoFtlDevice", _FTL_OPS),
    ("repro.ftl.noftl", "Region", _FTL_OPS),
    ("repro.flash.chip", "FlashChip", _FLASH_OPS),
)

#: Module-level functions, patched wherever a ``repro`` module binds them.
FUNCTIONS = (
    ("repro.core.delta", "decode_delta_area"),
    ("repro.core.reconstruct", "reconstruct"),
    ("repro.core.reconstruct", "count_records"),
    ("repro.workloads.trace", "replay_on_ipa"),
)

#: Spans that open a request when no request is open.
REQUEST_SPANS = ("TpcbWorkload.transaction", "Shard.execute_batch",
                 "replay_on_ipa")

#: Objects whose counters are snapshotted on first sight, by class name.
_SOURCES = {
    "FlashChip": "chip",
    "PageMappingFtl": "ftl",
    "NoFtlDevice": "ftl",
    "StorageManager": "storage",
    "WriteAheadLog": "wal",
}

PER_LAYER_UNITS = {
    **{f"{layer}.calls": "call/unit" for layer in LAYERS},
    **{f"{layer}.self_s": "s/unit" for layer in LAYERS},
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "storage.buffer_hit_ratio": "ratio",
    "storage.dirty_evictions": "count",
    "storage.ipa_flush_ratio": "ratio",
    "engine.wal.commits": "count",
    "engine.wal.group_flushes": "count",
    "engine.wal.bytes_flushed": "bytes",
    "ftl.host_reads": "count",
    "ftl.host_delta_writes": "count",
    "ftl.delta_accept_ratio": "ratio",
    "ftl.gc_migrations": "count",
    "ftl.gc_erases": "count",
    "flash.page_reads": "count",
    "flash.page_programs": "count",
    "flash.page_reprograms": "count",
    "flash.block_erases": "count",
    "flash.sim_busy_us": "us",
    "service.mean_group_size": "txn/group",
    "service.admission_waits": "count",
    "service.sim_admission_wait_us": "us",
    "service.repl.sim_lag_us": "us/group",
    "sim.tps": "txn/s",
    "sim.ipa_tps_gain": "ratio",
    "sim.txn_p99_us": "us",
    "sim.gc_migrations_per_write": "ratio",
    "sim.erases_per_write": "ratio",
    "trace.units": "count",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
}


def layer_of(module: str) -> str:
    if module in _MODULE_LAYER:
        return _MODULE_LAYER[module]
    return module.split(".")[1]


def _subclasses(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


class Recorder:
    """Spans in flat arrays, plus the counters of objects seen while measuring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.on = False
        self._stack: list[int] = []
        self._request = -1
        self._request_ids: set[int] = set()
        self._seen: dict[int, tuple] = {}
        self.delta_calls = 0
        self.delta_accepted = 0
        self.measured_s = 0.0
        self._measure_start = 0.0
        self.last_counters: dict = {}

    @property
    def count(self) -> int:
        return len(self.end)

    # ------------------------------------------------------------------ #
    # Measured phases
    # ------------------------------------------------------------------ #

    def measure(self, on: bool) -> None:
        """Open or close a measured phase (the benchmark calls this)."""
        now = time.perf_counter()
        if on and not self.on:
            self._measure_start = now
        elif self.on and not on:
            self.measured_s += now - self._measure_start
        self.on = on

    def begin_unit(self) -> None:
        self._seen.clear()
        self.delta_calls = self.delta_accepted = 0

    def end_unit(self) -> None:
        """Read the unit's counters and drop the objects it saw."""
        self.last_counters = self.unit_counters()
        self._seen.clear()

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
            if name in REQUEST_SPANS:
                self._request_ids.add(self._ids[name])
        return self._ids[name]

    def install(self) -> None:
        """Patch every target, in this process only; call once."""
        for module_name, class_name, methods in TARGETS:
            base = getattr(importlib.import_module(module_name), class_name)
            for cls in _subclasses(base):
                if not cls.__module__.startswith("repro."):
                    continue
                layer = layer_of(cls.__module__)
                if layer not in LAYERS:
                    continue  # e.g. the IPL baseline, which no workload runs
                wanted = methods
                if wanted is None:
                    wanted = [n for n in vars(cls) if not n.startswith("_")]
                for method in wanted:
                    self._patch_method(cls, method, layer)
        for module_name, func_name in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, func_name)
            wrapped = self.wrap(original, func_name, layer_of(module_name))
            for name, mod in list(sys.modules.items()):
                if name.startswith("repro") and getattr(mod, func_name, None) is original:
                    setattr(mod, func_name, wrapped)

    def _patch_method(self, cls, method: str, layer: str) -> None:
        raw = vars(cls).get(method)
        if raw is None or getattr(raw, "_perfbench_span", False):
            return
        kind = None
        if isinstance(raw, (staticmethod, classmethod)):
            kind, raw = type(raw), raw.__func__
        if not inspect.isfunction(raw) or inspect.isgeneratorfunction(raw):
            return
        if hasattr(raw, "__wrapped__"):
            return  # a context manager: its body runs after the call returns
        source = _SOURCES.get(cls.__name__)
        counts_deltas = method == "write_delta" and source == "ftl"
        wrapped = self.wrap(
            raw, f"{cls.__name__}.{method}", layer, source, counts_deltas
        )
        setattr(cls, method, kind(wrapped) if kind else wrapped)

    def wrap(self, fn, name: str, layer: str, source=None, counts_deltas=False):
        """Return ``fn`` wrapped in a span named ``name`` of ``layer``."""
        nid = self.name_id(name, layer)
        opens_request = nid in self._request_ids
        rec = self
        stack = self._stack
        clock = time.perf_counter
        span_name, parent, request = self.span_name, self.parent, self.request
        start, end = self.start, self.end
        seen = self._seen

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            if source is not None and id(args[0]) not in seen:
                seen[id(args[0])] = (source, args[0], _snapshot(source, args[0]))
            i = len(end)
            outer = rec._request
            if opens_request and outer < 0:
                rec._request = i
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(rec._request)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                rec._request = outer
            if counts_deltas:
                rec.delta_calls += 1
                rec.delta_accepted += bool(out)
            return out

        span._perfbench_span = True
        return span

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def layer_totals(self) -> tuple:
        """(calls, self seconds) per layer, and the root spans' total."""
        a = self.arrays()
        n = len(a["end"])
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=duration[has_parent], minlength=n
        )
        own = duration - child
        layer = np.asarray(self.name_layer, dtype=np.int64)[a["name"]]
        calls = np.bincount(layer, minlength=len(LAYERS))
        self_s = np.bincount(layer, weights=own, minlength=len(LAYERS))
        return calls, self_s, float(duration[~has_parent].sum())

    def unit_counters(self) -> dict:
        """Counters of every object seen since :meth:`begin_unit`."""
        totals: dict[str, float] = {}
        clocks: dict[int, tuple] = {}
        for source, obj, before in self._seen.values():
            for key, value in _delta(source, obj, before).items():
                totals[key] = totals.get(key, 0) + value
            if source == "chip":
                clocks.setdefault(id(obj.clock), (obj.clock, before[1]))
        totals["flash.sim_busy_us"] = sum(
            us - earlier.get(cat, 0.0)
            for clock, earlier in clocks.values()
            for cat, us in clock.breakdown_us.items()
            if cat != "host"
        )
        fetches = totals.pop("storage.fetches", 0)
        flushes = totals.pop("storage.flushes", 0)
        out = {
            "storage.buffer_hit_ratio": (
                totals.pop("storage.hits", 0) / fetches if fetches else 0.0
            ),
            "storage.ipa_flush_ratio": (
                totals.pop("storage.ipa_flushes", 0) / flushes if flushes else 0.0
            ),
            "ftl.delta_accept_ratio": (
                self.delta_accepted / self.delta_calls if self.delta_calls else 0.0
            ),
        }
        totals.pop("storage.hits", None)
        totals.pop("storage.ipa_flushes", None)
        out.update(totals)
        return out

    def write(self, directory: Path, workload: str, seed: int) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"spans-{workload}-seed{seed}.npz"
        np.savez(
            path,
            names=np.array(self.names),
            name_layer=np.array([LAYERS[i] for i in self.name_layer]),
            **self.arrays(),
        )
        return path


def _snapshot(source: str, obj):
    if source == "chip":
        return obj.stats.snapshot(), dict(obj.clock.breakdown_us)
    if source == "ftl":
        return obj.stats.snapshot()
    if source == "storage":
        return _storage_counts(obj)
    return dataclasses.replace(obj.stats)


def _storage_counts(manager) -> dict:
    pool = manager.pool.stats
    stats = manager.stats
    return {
        "storage.fetches": pool.fetches,
        "storage.hits": pool.hits,
        "storage.dirty_evictions": pool.dirty_evictions,
        "storage.ipa_flushes": stats.ipa_flushes,
        "storage.flushes": stats.ipa_flushes + stats.oop_flushes,
    }


def _delta(source: str, obj, before) -> dict:
    if source == "chip":
        d = obj.stats.diff(before[0])
        return {
            "flash.page_reads": d.page_reads,
            "flash.page_programs": d.page_programs,
            "flash.page_reprograms": d.page_reprograms,
            "flash.block_erases": d.block_erases,
        }
    if source == "ftl":
        d = obj.stats.diff(before)
        return {
            "ftl.host_reads": d.host_reads,
            "ftl.host_delta_writes": d.host_delta_writes,
            "ftl.gc_migrations": d.gc_page_migrations,
            "ftl.gc_erases": d.gc_erases,
        }
    if source == "storage":
        now = _storage_counts(obj)
        return {key: now[key] - before[key] for key in now}
    s = obj.stats
    return {
        "engine.wal.commits": s.commits - before.commits,
        "engine.wal.group_flushes": s.group_flushes - before.group_flushes,
        "engine.wal.bytes_flushed": s.bytes_flushed - before.bytes_flushed,
    }


def check(recorder: Recorder) -> list:
    """The layers' self times must add up to the root spans' total."""
    _, self_s, root_s = recorder.layer_totals()
    if abs(float(self_s.sum()) - root_s) > 1e-9 * max(root_s, 1.0):
        return [f"layer self times sum to {self_s.sum()} s, roots to {root_s} s"]
    return []


def per_layer(recorder: Recorder, traced: list, reference) -> dict:
    """Per-layer metrics of a traced run.

    ``reference`` is an untraced unit run first; ``traced`` are the units
    run with the recorder installed.  Calls and self time are per traced
    unit.  Counters are those of the last traced unit (every unit of a
    seed does the same work), or from the unit's own results where the
    program reports them.
    """
    calls, self_s, root_s = recorder.layer_totals()
    n = len(traced)
    total_self = float(self_s.sum())
    metrics: dict[str, float] = {}
    for i, layer in enumerate(LAYERS):
        metrics[f"{layer}.calls"] = int(calls[i]) / n
        metrics[f"{layer}.self_s"] = float(self_s[i]) / n
        metrics[f"{layer}.self_share"] = (
            float(self_s[i]) / total_self if total_self else 0.0
        )
    counters = dict(recorder.last_counters)
    counters.update(traced[-1].counters)
    sim = traced[-1].sim
    for name, unit in PER_LAYER_UNITS.items():
        if name in metrics:
            continue
        if name.startswith("sim."):
            metrics[name] = float(sim.get(name[4:], 0.0))
        elif name.startswith("trace."):
            continue
        else:
            metrics[name] = counters.get(name, 0)
    traced_s = [u.measured_s for u in traced]
    metrics["trace.units"] = n
    metrics["trace.overhead_ratio"] = (
        float(np.median(traced_s)) / reference.measured_s
    )
    metrics["trace.coverage_ratio"] = root_s / recorder.measured_s
    return metrics
