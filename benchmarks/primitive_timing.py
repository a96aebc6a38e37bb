"""Standalone per-primitive wall-clock timing of the NAND chip model.

Times each chip primitive (program / read / reprogram / partial_program /
erase) in a tight loop and prints a JSON object of best-of-N microseconds
per operation.  Uses only the chip's public API, so the same script runs
unchanged against any revision — this is how the before/after numbers in
``BENCH_simulator_speed.json`` and ``docs/performance.md`` are produced:

    PYTHONPATH=src python benchmarks/primitive_timing.py          # current
    git stash push -- src                                         # pre-PR
    PYTHONPATH=src python benchmarks/primitive_timing.py
    git stash pop

Unlike the pytest-benchmark suite (which exercises mixed cycles and the
FTL), each loop here hits exactly one primitive, so a regression is
attributable to one code path.
"""

from __future__ import annotations

import json
import time

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry

GEO = FlashGeometry(page_size=4096, oob_size=128, pages_per_block=64, blocks=64)
PAYLOAD = bytes(range(256)) * 16
REPS = 5


def best_of(reps, make_run):
    """Best (minimum) per-op microseconds over ``reps`` fresh runs.

    ``make_run`` returns ``(fn, n_ops)`` with all setup done; only ``fn``
    is timed.  Min-of-N discards scheduler noise, matching the
    interleaved-min methodology of the observability A/B benchmark.
    """
    best = float("inf")
    for _ in range(reps):
        fn, n_ops = make_run()
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / n_ops * 1e6)
    return best


def time_program():
    def make_run():
        chip = FlashChip(GEO)
        n = GEO.total_pages

        def run():
            program = chip.program_page
            for ppn in range(n):
                program(ppn, PAYLOAD)

        return run, n

    return best_of(REPS, make_run)


def time_read():
    chip = FlashChip(GEO)
    n = GEO.total_pages
    for ppn in range(n):
        chip.program_page(ppn, PAYLOAD)

    def make_run():
        def run():
            read = chip.read_page
            for ppn in range(n):
                read(ppn)

        return run, n

    return best_of(REPS, make_run)


def time_reprogram():
    # Reprogramming the identical image is always legal (no bit rises),
    # so every loop iteration takes the full legality-check + program path.
    def make_run():
        chip = FlashChip(GEO)
        n = GEO.total_pages
        for ppn in range(n):
            chip.program_page(ppn, PAYLOAD)

        def run():
            reprogram = chip.reprogram_page
            for ppn in range(n):
                reprogram(ppn, PAYLOAD)

        return run, n

    return best_of(REPS, make_run)


def time_partial_program():
    # 8-byte appends at advancing offsets across many pages: the
    # write_delta inner loop.  Pages are pre-programmed short so every
    # append lands on erased bytes.
    appends_per_page = 64
    def make_run():
        chip = FlashChip(GEO)
        n_pages = GEO.total_pages
        for ppn in range(n_pages):
            chip.program_page(ppn, b"base")
        n = n_pages * appends_per_page

        def run():
            partial = chip.partial_program
            for ppn in range(n_pages):
                for i in range(appends_per_page):
                    partial(ppn, 64 + i * 8, b"\x00" * 8)

        return run, n

    return best_of(REPS, make_run)


def time_erase():
    # Erase cost is per-cell reset work and does not depend on content,
    # so erasing already-erased blocks times the same code path without
    # interleaving (untimed) programs.
    chip = FlashChip(GEO)
    rounds = 4

    def make_run():
        n = GEO.blocks * rounds

        def run():
            erase = chip.erase_block
            for _ in range(rounds):
                for block in range(GEO.blocks):
                    erase(block)

        return run, n

    return best_of(REPS, make_run)


def main():
    per_op = {
        "program_page": round(time_program(), 3),
        "read_page": round(time_read(), 3),
        "reprogram_page": round(time_reprogram(), 3),
        "partial_program_8B": round(time_partial_program(), 3),
        "erase_block": round(time_erase(), 3),
    }
    results = {
        "geometry": "4096B page / 128B oob / 64 pages x 64 blocks (SLC)",
        "unit": "us_per_op_best_of_%d" % REPS,
        **per_op,
    }
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()
