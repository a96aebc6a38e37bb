"""Regenerate ``pinned.json``: the simulated outcomes for the pinned seed.

Run from the repository root, only when a change is meant to alter
simulated results::

    python3 perfbench/pin.py

The values come from the program's own entry points, not from the
benchmark's wrapped runs: :func:`repro.bench.table1.run`,
:func:`repro.service.run_service` and
:func:`repro.workloads.trace.replay_on_ipa`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.bench.table1 import run as table1_run  # noqa: E402
from repro.flash.modes import FlashMode  # noqa: E402
from repro.service import run_service  # noqa: E402
from repro.workloads.trace import replay_on_ipa  # noqa: E402

import workloads as w  # noqa: E402


def main() -> None:
    seed = w.PINNED_SEED
    table1 = w.TpcbTable1(seed)
    trace = w.TraceReplay(seed)
    pinned = {
        "seed": seed,
        "tpcb-table1": w.table1_fingerprints(table1_run(table1.settings)),
        "service-repl": run_service(w.service_config(seed)).digests(),
        "trace-replay": w.replay_counters(
            replay_on_ipa(trace.record(), trace.settings.scheme, FlashMode.PSLC)
        ),
    }
    with open(w.PINNED_PATH, "w") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {w.PINNED_PATH}")


if __name__ == "__main__":
    main()
