"""Conventional FTL: mapping, out-of-place writes, GC behaviour."""

import pytest

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.modes import FlashMode
from repro.ftl.interface import FlashBackend
from repro.ftl.page_mapping import PageMappingFtl

GEO = FlashGeometry(page_size=256, oob_size=64, pages_per_block=8, blocks=16)


def make_ftl(mode=FlashMode.SLC, op=0.25, **kwargs):
    chip = FlashChip(GEO, mode=mode)
    return PageMappingFtl(chip, over_provisioning=op, **kwargs)


class TestBasics:
    def test_satisfies_backend_protocol(self):
        assert isinstance(make_ftl(), FlashBackend)

    def test_write_then_read(self):
        ftl = make_ftl()
        ftl.write_page(0, b"hello")
        assert ftl.read_page(0)[:5] == b"hello"

    def test_read_unwritten_raises(self):
        ftl = make_ftl()
        with pytest.raises(KeyError):
            ftl.read_page(0)
        # A failed read after a good one leaves the good one charged and
        # charges nothing itself.
        ftl.write_page(1, b"x")
        ftl.read_page(1)
        reads_before = ftl.chip.stats.page_reads
        with pytest.raises(KeyError, match="unwritten lba 99"):
            ftl.read_page(99)
        assert ftl.stats.host_reads == 1
        assert ftl.chip.stats.page_reads == reads_before

    def test_overwrite_returns_latest(self):
        ftl = make_ftl()
        for i in range(10):
            ftl.write_page(3, bytes([i]) * 16)
        assert ftl.read_page(3)[:16] == bytes([9]) * 16

    def test_logical_smaller_than_physical(self):
        ftl = make_ftl(op=0.25)
        assert ftl.logical_pages == int(GEO.total_pages * 0.75)

    def test_lba_out_of_range_rejected(self):
        ftl = make_ftl()
        with pytest.raises(KeyError):
            ftl.write_page(ftl.logical_pages, b"x")

    def test_write_delta_unsupported(self):
        ftl = make_ftl()
        ftl.write_page(0, b"x")
        assert ftl.write_delta(0, 10, b"d") is False


class TestInvalidation:
    def test_overwrite_invalidates_old_page(self):
        ftl = make_ftl()
        ftl.write_page(0, b"v1")
        assert ftl.stats.page_invalidations == 0
        ftl.write_page(0, b"v2")
        assert ftl.stats.page_invalidations == 1
        assert ftl.stats.out_of_place_writes == 2

    def test_first_write_does_not_invalidate(self):
        ftl = make_ftl()
        for lba in range(8):
            ftl.write_page(lba, b"x")
        assert ftl.stats.page_invalidations == 0

    def test_trim_invalidates(self):
        ftl = make_ftl()
        ftl.write_page(0, b"x")
        ftl.trim(0)
        assert ftl.stats.page_invalidations == 1
        assert ftl.stats.trims == 1
        with pytest.raises(KeyError):
            ftl.read_page(0)

    def test_trim_unwritten_is_noop(self):
        ftl = make_ftl()
        ftl.trim(0)
        assert ftl.stats.trims == 0


class TestGarbageCollection:
    def test_gc_triggered_by_overwrites(self):
        ftl = make_ftl()
        # Fill logical space once, then overwrite heavily: GC must run.
        for lba in range(ftl.logical_pages):
            ftl.write_page(lba, b"base")
        for round_ in range(6):
            for lba in range(ftl.logical_pages):
                ftl.write_page(lba, bytes([round_]) * 8)
        assert ftl.stats.gc_erases > 0
        # All data still correct after GC moved things around.
        for lba in range(ftl.logical_pages):
            assert ftl.read_page(lba)[:8] == bytes([5]) * 8

    def test_sequential_overwrite_causes_few_migrations(self):
        # Overwriting LBAs in write order leaves victims fully invalid:
        # greedy GC should find near-empty victims.
        ftl = make_ftl()
        for lba in range(ftl.logical_pages):
            ftl.write_page(lba, b"a")
        for lba in range(ftl.logical_pages):
            ftl.write_page(lba, b"b")
        assert ftl.stats.gc_page_migrations <= ftl.stats.gc_erases * 2

    def test_gc_preserves_all_mappings(self):
        ftl = make_ftl()
        content = {}
        for round_ in range(5):
            for lba in range(0, ftl.logical_pages, 1):
                payload = bytes([round_, lba % 256]) * 4
                ftl.write_page(lba, payload)
                content[lba] = payload
        for lba, payload in content.items():
            assert ftl.read_page(lba)[: len(payload)] == payload

    def test_hot_cold_skew_still_works(self):
        ftl = make_ftl()
        for lba in range(ftl.logical_pages):
            ftl.write_page(lba, b"cold")
        hot = list(range(4))
        for i in range(300):
            ftl.write_page(hot[i % 4], bytes([i % 256]))
        for lba in range(4, ftl.logical_pages):
            assert ftl.read_page(lba)[:4] == b"cold"

    def test_device_full_when_op_zero_rejected(self):
        chip = FlashChip(GEO)
        with pytest.raises(ValueError):
            PageMappingFtl(chip, over_provisioning=0.0)


class TestStatsAccounting:
    def test_host_counters(self):
        ftl = make_ftl()
        ftl.write_page(0, b"x" * 256)
        ftl.read_page(0)
        assert ftl.stats.host_writes == 1
        assert ftl.stats.host_reads == 1
        assert ftl.stats.host_bytes_written == 256
        assert ftl.stats.host_bytes_read == 256

    def test_gc_counters_zero_without_pressure(self):
        ftl = make_ftl()
        ftl.write_page(0, b"x")
        assert ftl.stats.gc_erases == 0
        assert ftl.stats.gc_page_migrations == 0

    def test_ratios(self):
        ftl = make_ftl()
        for lba in range(ftl.logical_pages):
            ftl.write_page(lba, b"x")
        for _ in range(4):
            for lba in range(ftl.logical_pages):
                ftl.write_page(lba, b"y")
        s = ftl.stats
        assert s.migrations_per_host_write == s.gc_page_migrations / s.host_writes
        assert s.erases_per_host_write == s.gc_erases / s.host_writes


class TestPslcMode:
    def test_pslc_halves_logical_capacity(self):
        slc = make_ftl(mode=FlashMode.SLC)
        pslc = make_ftl(mode=FlashMode.PSLC)
        assert pslc.logical_pages == slc.logical_pages // 2

    def test_pslc_workload_round_trip(self):
        ftl = make_ftl(mode=FlashMode.PSLC)
        for round_ in range(4):
            for lba in range(ftl.logical_pages):
                ftl.write_page(lba, bytes([round_]))
        for lba in range(ftl.logical_pages):
            assert ftl.read_page(lba)[:1] == bytes([3])
