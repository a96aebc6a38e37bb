"""The simulated NAND chip: the hardware the whole reproduction runs on.

:class:`FlashChip` exposes the operation set of the OpenSSD firmware
environment the paper programs against:

* ``read_page`` / ``program_page`` / ``erase_block`` — the classic trio;
* ``reprogram_page`` — whole-page overwrite without erase, legal only for
  charge-increasing transitions (Demo-Scenario 2: the DBMS ships the full
  page image ``body + delta area`` over a block-device interface and the
  device programs it in place);
* ``partial_program`` — program a byte range of an already-programmed
  page, the physical half of the ``write_delta`` command (Demo-Scenario 3:
  only the delta bytes cross the bus).

Every operation advances the shared :class:`~repro.flash.latency.SimClock`
and updates :class:`~repro.flash.stats.FlashStats`; programs and
reprograms trigger the mode's program-interference model against
neighbouring wordlines.
"""

from __future__ import annotations

from repro.flash.block import EraseBlock
from repro.flash.cellmodel import ERASED_BYTE
from repro.flash.ecc import DEFAULT_ECC, EccConfig
from repro.flash.errors import (
    BadBlockError,
    EccUncorrectableError,
    IllegalAddressError,
    ModeViolationError,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.interference import DisturbModel, victim_table
from repro.flash.latency import DEFAULT_LATENCY, LatencyModel, SimClock
from repro.flash.modes import FlashMode, ModeRules, rules_for
from repro.flash.page import PageState, PhysicalPage
from repro.flash.sanitize import NULL_SANITIZER, sanitizer_from_env
from repro.flash.stats import FlashStats
from repro.obs.ledger import NULL_LEDGER
from repro.obs.trace import NULL_TRACER


class FlashChip:
    """A single simulated NAND chip.

    Args:
        geometry: Physical dimensions (see :mod:`repro.flash.geometry`).
        mode: Operating mode — SLC / MLC / pSLC / odd-MLC (Section 3).
        latency: Per-operation latency table; shares ``clock``.
        clock: Simulated clock; a fresh one is created if omitted.
        ecc: ECC correction capability per codeword.
        seed: Seed for the deterministic disturb model.
        endurance_limit: Optional block P/E limit (``None`` = unlimited).
    """

    #: Observability: replaced per-instance by ``repro.obs.attach_tracer``.
    tracer = NULL_TRACER

    #: Fault injection: replaced per-instance by
    #: ``repro.fault.FaultInjector.attach``.  When set, every mutating
    #: operation (program / reprogram / partial_program / erase) reports to
    #: the injector *after* validation but *before* the cells change, so a
    #: simulated power loss persists exactly the prefix of bytes the
    #: injector allows and nothing else (latency/stats are not charged for
    #: the interrupted operation — the machine is off).
    fault_injector = None

    #: Physics sanitizer: the shared disabled singleton unless the
    #: REPRO_SANITIZE=1 environment flag was set at construction.  Disabled
    #: cost per mutating operation: one attribute load + one bool test
    #: (guarded by ``benchmarks/test_sanitize_overhead.py``).
    sanitizer = NULL_SANITIZER

    #: Write-attribution ledger: replaced per-instance by
    #: ``repro.obs.ledger.attach_ledger``.  Charged from the exact sites
    #: that increment :class:`FlashStats` (``_charge_program`` /
    #: ``erase_block``) so per-cause counts cannot drift from the
    #: physical totals.  Same disabled cost contract as the sanitizer.
    ledger = NULL_LEDGER

    def __init__(
        self,
        geometry: FlashGeometry,
        mode: FlashMode = FlashMode.SLC,
        latency: LatencyModel = DEFAULT_LATENCY,
        clock: SimClock | None = None,
        ecc: EccConfig = DEFAULT_ECC,
        seed: int = 0xF1A5,
        endurance_limit: int | None = None,
    ) -> None:
        self.geometry = geometry
        self.mode = mode
        self.rules: ModeRules = rules_for(mode)
        self.latency = latency
        self.clock = clock if clock is not None else SimClock()
        self.ecc = ecc
        self.stats = FlashStats()
        self.sanitizer = sanitizer_from_env()
        self._disturb = DisturbModel(self.rules, ecc, geometry.page_size, seed=seed)
        self.blocks = [
            EraseBlock(
                geometry.pages_per_block,
                geometry.page_size,
                geometry.oob_size,
                ecc,
                endurance_limit=endurance_limit,
            )
            for _ in range(geometry.blocks)
        ]
        # Hot-path precomputation: everything below depends only on
        # geometry, mode and the (frozen) latency table, so it is resolved
        # once here instead of per operation (victim sets used to be
        # rebuilt on every program, mode predicates re-evaluated per call,
        # and usable-page scans run on every capacity query).
        ppb = geometry.pages_per_block
        self._ppb = ppb
        self._total_pages = geometry.total_pages
        self._page_size = geometry.page_size
        self._victims = victim_table(ppb, self.rules)
        self._usable_mask = tuple(self.rules.page_usable(p) for p in range(ppb))
        self._appendable_mask = tuple(
            self.rules.page_appendable(p) for p in range(ppb)
        )
        self._lsb_mask = tuple(self.rules.page_is_lsb(p) for p in range(ppb))
        self._usable_offsets = tuple(p for p in range(ppb) if self._usable_mask[p])
        self._usable_capacity = len(self._usable_offsets) * geometry.blocks
        self._pad_tail = bytes([ERASED_BYTE]) * geometry.page_size
        self._rate_reprogram = self.rules.disturb_rate_reprogram
        self._rate_program = self.rules.disturb_rate_program
        self._read_us = latency.read_us
        self._program_lsb_us = latency.program_lsb_us
        self._program_msb_us = latency.program_msb_us
        self._reprogram_us = latency.reprogram_us
        self._bus_us_per_byte = latency.bus_us_per_byte

    # ------------------------------------------------------------------ #
    # Addressing helpers
    # ------------------------------------------------------------------ #

    def page_at(self, ppn: int) -> PhysicalPage:
        """The :class:`PhysicalPage` object behind a physical page number."""
        block, page = self._split(ppn)
        return self.blocks[block].pages[page]

    def _split(self, ppn: int) -> tuple[int, int]:
        """Bounds-checked (block, page-in-block) split, geometry precached."""
        if 0 <= ppn < self._total_pages:
            return divmod(ppn, self._ppb)
        raise IllegalAddressError(
            f"ppn {ppn} out of range [0, {self._total_pages})"
        )

    def page_state(self, ppn: int) -> PageState:
        """Programming state of a page without charging read latency."""
        return self.page_at(ppn).state

    def usable_pages_in_block(self) -> list[int]:
        """Page-in-block indexes usable under the current mode.

        pSLC mode halves this list (LSB pages only); all other modes use
        every page.  The set is fixed at construction; callers get a fresh
        list they may reorder freely.
        """
        return list(self._usable_offsets)

    @property
    def usable_capacity_pages(self) -> int:
        """Total pages available to store data in the current mode."""
        return self._usable_capacity

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #

    def read_page(self, ppn: int, check_ecc: bool = True) -> bytes:
        """Read a page's data area (charges read + bus latency)."""
        data, _oob, corrected = self._read(ppn, check_ecc)
        return data

    def read_page_with_oob(
        self, ppn: int, check_ecc: bool = True
    ) -> tuple[bytes, bytes]:
        """Read a page's data and OOB areas."""
        data, oob, _corrected = self._read(ppn, check_ecc)
        return data, oob

    def _read(self, ppn: int, check_ecc: bool) -> tuple[bytes, bytes, int]:
        block_idx, page_idx = self._split(ppn)
        page = self.blocks[block_idx].pages[page_idx]
        try:
            data, oob, corrected = page.read(check_ecc=check_ecc)
        except EccUncorrectableError:
            # The sense operation happened; charge it and count the event.
            self.clock.advance(self._read_us, "read")
            self.stats.page_reads += 1
            self.stats.ecc_uncorrectable_events += 1
            raise
        nbytes = len(data) + len(oob)
        self.clock.advance_pair(
            self._read_us, "read", nbytes * self._bus_us_per_byte, "bus"
        )
        stats = self.stats
        stats.page_reads += 1
        stats.bytes_read += nbytes
        stats.ecc_corrected_bits += corrected
        return data, oob, corrected

    def program_page(self, ppn: int, data: bytes, oob: bytes | None = None) -> None:
        """First-time program of an erased page.

        Raises:
            ModeViolationError: if the page is unusable in this mode
                (MSB page in pSLC mode).
            WriteToProgrammedPageError: if the page is already programmed.
            BadBlockError: if the containing block was retired.
        """
        block_idx, page_idx = self._split(ppn)
        block = self.blocks[block_idx]
        if block.is_bad:
            raise BadBlockError(f"block {block_idx} is retired")
        if not self._usable_mask[page_idx]:
            raise ModeViolationError(
                f"page {page_idx} in block {block_idx} is not usable in "
                f"{self.mode.value} mode"
            )
        if len(data) != self._page_size:
            data = self._pad(data)
        sz = self.sanitizer
        if sz.enabled:
            violation = sz.program_violation(
                block.pages[page_idx], data, oob, reprogram=False
            )
        fi = self.fault_injector
        if fi is not None:
            fi.on_program(block.pages[page_idx], data, oob, reprogram=False)
        block.pages[page_idx].program(data, oob)
        if sz.enabled:
            sz.check_accepted(violation)
            sz.check_programmed_image(block.pages[page_idx], data, oob)
        nbytes = len(data) + (len(oob) if oob else 0)
        self._charge_program(block_idx, page_idx, nbytes, reprogram=False)

    def reprogram_page(self, ppn: int, data: bytes, oob: bytes | None = None) -> None:
        """Overwrite a programmed page in place (no erase).

        The page model enforces the charge-only-increases rule; the chip
        additionally enforces the mode's appendability rule (odd-MLC: LSB
        pages only) and injects program interference into neighbours.

        Raises:
            ModeViolationError: if the mode forbids reprogramming this page.
            IllegalProgramError: if any bit would have to go 0 -> 1.
        """
        block_idx, page_idx = self._split(ppn)
        block = self.blocks[block_idx]
        if block.is_bad:
            raise BadBlockError(f"block {block_idx} is retired")
        if not self._appendable_mask[page_idx]:
            raise ModeViolationError(
                f"page {page_idx} may not be reprogrammed in "
                f"{self.mode.value} mode"
            )
        if len(data) != self._page_size:
            data = self._pad(data)
        sz = self.sanitizer
        if sz.enabled:
            violation = sz.program_violation(
                block.pages[page_idx], data, oob, reprogram=True
            )
        fi = self.fault_injector
        if fi is not None:
            fi.on_program(block.pages[page_idx], data, oob, reprogram=True)
        block.pages[page_idx].reprogram(data, oob)
        if sz.enabled:
            sz.check_accepted(violation)
            sz.check_programmed_image(block.pages[page_idx], data, oob)
        nbytes = len(data) + (len(oob) if oob else 0)
        self._charge_program(block_idx, page_idx, nbytes, reprogram=True)

    def partial_program(
        self,
        ppn: int,
        offset: int,
        payload: bytes,
        oob_offset: int | None = None,
        oob_payload: bytes | None = None,
    ) -> None:
        """Program a byte range of a page — the device half of write_delta.

        Range-local fast path: validates and writes only
        ``[offset, offset+len(payload))`` (plus the OOB range, if any)
        instead of reconstructing and re-validating the full page image.
        The data range must currently be erased (all 0xFF) so the
        transition is guaranteed legal; the OOB range follows the ordinary
        charge-only-increases rule.  Only ``len(payload)`` data bytes are
        charged as bus transfer.

        Raises:
            IllegalProgramError: if the target range is not erased (or the
                OOB range would set a cleared bit).
        """
        block_idx, page_idx = self._split(ppn)
        block = self.blocks[block_idx]
        page = block.pages[page_idx]
        if offset < 0 or offset + len(payload) > page.page_size:
            raise ValueError(
                f"range [{offset}, {offset + len(payload)}) exceeds page size "
                f"{page.page_size}"
            )
        page.check_append_target(offset, len(payload))
        if oob_payload is not None:
            if oob_offset is None:
                raise ValueError("oob_payload requires oob_offset")
            if oob_offset < 0 or oob_offset + len(oob_payload) > page.oob_size:
                raise ValueError("OOB range out of bounds")
        if block.is_bad:
            raise BadBlockError(f"block {block_idx} is retired")
        if not self._appendable_mask[page_idx]:
            raise ModeViolationError(
                f"page {page_idx} may not be reprogrammed in "
                f"{self.mode.value} mode"
            )
        sz = self.sanitizer
        if sz.enabled:
            violation = sz.partial_violation(
                page, offset, payload, oob_offset, oob_payload
            )
        fi = self.fault_injector
        if fi is not None:
            fi.on_partial(page, offset, payload, oob_offset, oob_payload)
        page.append_range(offset, payload, oob_offset, oob_payload)
        if sz.enabled:
            sz.check_accepted(violation)
        # Latency/stats: a reprogram pulse train, but only the payload
        # crosses the bus (the whole point of write_delta).
        transferred = len(payload) + (len(oob_payload) if oob_payload else 0)
        self._charge_program(
            block_idx, page_idx, transferred, reprogram=True, partial=True
        )

    def erase_block(self, block_idx: int) -> None:
        """Erase one block (all pages, data and OOB)."""
        self.geometry.check_block(block_idx)
        fi = self.fault_injector
        if fi is not None:
            fi.on_erase(self.blocks[block_idx])
        self.blocks[block_idx].erase()
        sz = self.sanitizer
        if sz.enabled:
            sz.check_erased_block(self.blocks[block_idx])
        self.clock.advance(self.latency.erase_us, "erase")
        self.stats.block_erases += 1
        lg = self.ledger
        if lg.enabled:
            lg.on_erase()
            if sz.enabled:
                # Erases are rare and already pay a full block audit, so
                # this is where the per-cause ledger is re-checked against
                # the physical counters under REPRO_SANITIZE=1.
                sz.check_ledger(lg)
        tr = self.tracer
        if tr.enabled:
            tr.record("chip_erase", dur_us=self.latency.erase_us, block=block_idx)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _pad(self, data: bytes) -> bytes:
        """Right-pad short images with erased bytes to full page size."""
        size = self.geometry.page_size
        n = len(data)
        if n == size:
            return bytes(data)
        if n > size:
            raise ValueError(f"data of {n} B exceeds page size {size}")
        return bytes(data) + self._pad_tail[n:]

    def _charge_program(
        self,
        block_idx: int,
        page_idx: int,
        nbytes: int,
        reprogram: bool,
        partial: bool = False,
    ) -> None:
        """Latency, stats, tracing and interference of one program pulse.

        Shared by ``program_page``, ``reprogram_page`` and
        ``partial_program`` (which charges only the transferred bytes) so
        the three accounting paths cannot drift.  The write ledger is
        charged here — the single site that increments the program
        counters — so per-cause attribution stays conservation-exact.
        """
        if reprogram:
            op_us = self._reprogram_us
            self.stats.page_reprograms += 1
        elif self._lsb_mask[page_idx]:
            op_us = self._program_lsb_us
            self.stats.page_programs += 1
        else:
            op_us = self._program_msb_us
            self.stats.page_programs += 1
        self.clock.advance_pair(
            op_us, "program", nbytes * self._bus_us_per_byte, "bus"
        )
        self.stats.bytes_programmed += nbytes
        lg = self.ledger
        if lg.enabled:
            lg.on_program(nbytes, reprogram, partial)
        tr = self.tracer
        if tr.enabled and getattr(tr, "trace_chip_ops", False):
            tr.record(
                "chip_reprogram" if reprogram else "chip_program",
                dur_us=op_us,
                block=block_idx,
                page=page_idx,
            )
        self._apply_interference(block_idx, page_idx, reprogram)

    def _apply_interference(
        self, block_idx: int, page_idx: int, reprogram: bool
    ) -> None:
        rate = self._rate_reprogram if reprogram else self._rate_program
        if rate == 0.0:
            # Exact short-circuit: a zero rate draws all-zero counts and
            # (verified) consumes no RNG state, so skipping the draws is
            # byte-identical for every subsequent seeded outcome.
            return
        pages = self.blocks[block_idx].pages
        programmed = PageState.PROGRAMMED
        victims = [
            p for v in self._victims[page_idx]
            if (p := pages[v]).state is programmed
        ]
        if not victims:
            return
        # One vectorized draw, row-per-victim: stream-identical to the
        # per-victim draws it replaces (same order, same bit stream).
        # Open-coded version of DisturbModel.draw(): this is the single
        # hottest call site, and the draw itself is the irreducible cost —
        # everything around it must stay call-free.
        dm = self._disturb
        counts = dm._binomial(
            dm._bits_per_codeword,
            dm._rate_reprogram if reprogram else dm._rate_program,
            size=(len(victims), dm._n_codewords),
        )
        rows = counts.tolist()
        total = 0
        for row in rows:
            total += sum(row)
        if not total:
            return
        dm.total_injected_bits += total
        for i, victim in enumerate(victims):
            t = sum(rows[i])
            if t:
                victim.add_disturb(counts[i])
                self.stats.disturb_bit_flips += t
