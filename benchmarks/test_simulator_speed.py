"""Simulator wall-clock throughput: how fast the NAND model itself runs.

Unlike the experiment benches (which run once and measure *simulated*
quantities), these measure real Python time of the hot primitives, so
users know what workload sizes are practical and regressions in the
simulator's own performance are caught.
"""

import numpy as np
import pytest

from repro.core.config import SCHEME_2X4
from repro.core.delta import DeltaRecord
from repro.core.reconstruct import reconstruct
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.page_mapping import PageMappingFtl
from repro.storage.manager import compose_append_image

GEO = FlashGeometry(page_size=4096, oob_size=128, pages_per_block=64,
                    blocks=64)


@pytest.fixture
def chip():
    return FlashChip(GEO)


def test_program_read_cycle(benchmark, chip):
    payload = bytes(range(256)) * 16
    state = {"ppn": 0}

    def cycle():
        ppn = state["ppn"]
        chip.program_page(ppn, payload)
        chip.read_page(ppn)
        state["ppn"] += 1
        if state["ppn"] % GEO.pages_per_block == 0 and state["ppn"] >= GEO.total_pages:
            state["ppn"] = 0
            for block in range(GEO.blocks):
                chip.erase_block(block)

    benchmark(cycle)


def test_partial_program_throughput(benchmark, chip):
    chip.program_page(0, b"base")
    state = {"offset": 64}

    def append():
        if state["offset"] + 8 >= GEO.page_size:
            chip.erase_block(0)
            chip.program_page(0, b"base")
            state["offset"] = 64
        chip.partial_program(0, state["offset"], b"\x00" * 8)
        state["offset"] += 8

    benchmark(append)


def test_reprogram_throughput(benchmark, chip):
    # Reprogramming an identical image is always legal (no bit rises), so
    # every round pays the full legality-check + reprogram pulse path.
    payload = bytes(range(256)) * 16
    chip.program_page(0, payload)

    benchmark(lambda: chip.reprogram_page(0, payload))


def test_erase_block_throughput(benchmark, chip):
    # Erase cost does not depend on page content (every cell is reset
    # either way), so re-erasing one block times the same code path as an
    # erase after programming, without untimed setup between rounds.
    benchmark(lambda: chip.erase_block(0))


def test_ftl_overwrite_with_gc(benchmark):
    ftl = PageMappingFtl(FlashChip(GEO), over_provisioning=0.2)
    payload = b"\xab" * 512
    rng = np.random.default_rng(1)
    lbas = rng.integers(0, ftl.logical_pages, size=1 << 16)
    state = {"i": 0}

    def overwrite():
        ftl.write_page(int(lbas[state["i"] & 0xFFFF]), payload)
        state["i"] += 1

    benchmark(overwrite)


def test_disabled_observability_overhead():
    """Observability off must cost <= 5% on the hot write path.

    A/B-times the same overwrite loop on two identical FTL stacks: one
    untouched (the shared NULL_TRACER class default) and one with a
    real Tracer attached but *disabled*.  Both must take the
    one-attribute-test fast path; interleaved min-of-N wall times keep
    scheduler noise out of the ratio.
    """
    import time

    from repro.obs.trace import Tracer

    def build():
        ftl = PageMappingFtl(FlashChip(GEO), over_provisioning=0.2)
        rng = np.random.default_rng(1)
        lbas = rng.integers(0, ftl.logical_pages, size=4096)
        return ftl, lbas

    payload = b"\xab" * 512

    def timed_pass(ftl, lbas):
        start = time.perf_counter()
        for lba in lbas:
            ftl.write_page(int(lba), payload)
        return time.perf_counter() - start

    ftl_null, lbas = build()
    ftl_off, _ = build()
    tracer = Tracer(clock=ftl_off.chip.clock)
    tracer.enabled = False  # instance override: attached but disabled
    ftl_off.tracer = tracer
    ftl_off._blocks.tracer = tracer
    ftl_off.chip.tracer = tracer

    # Warm-up (bytecode caches, allocator), then interleaved A/B rounds —
    # alternating keeps clock-frequency drift out of the comparison.
    timed_pass(ftl_null, lbas)
    timed_pass(ftl_off, lbas)
    base_times, off_times = [], []
    for _ in range(5):
        base_times.append(timed_pass(ftl_null, lbas))
        off_times.append(timed_pass(ftl_off, lbas))
    ratio = min(off_times) / min(base_times)
    print(f"\ndisabled-observability overhead: {100 * (ratio - 1):+.1f}%")
    assert ratio <= 1.05, f"disabled tracer costs {100 * (ratio - 1):.1f}% > 5%"


def test_reconstruct_throughput(benchmark):
    image = bytearray(b"\x00" * 4096)
    footer = 4096 - 8
    delta_start = footer - SCHEME_2X4.delta_area_size
    for i in range(delta_start, footer):
        image[i] = 0xFF
    records = [
        DeltaRecord(pairs=[(100 + i, i)], meta_header=b"h" * 24,
                    meta_footer=b"f" * 8)
        for i in range(2)
    ]
    composed = compose_append_image(bytes(image), records, SCHEME_2X4, 0)

    benchmark(lambda: reconstruct(composed, SCHEME_2X4))
