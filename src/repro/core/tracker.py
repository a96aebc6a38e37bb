"""Byte-granular change tracking in the buffer pool (paper Section 3).

    "When a transaction updates the content of the page, the buffer
    manager checks if it conforms to the IPA N x M scheme.  Thus, the
    total number of delta-records (including the existing) cannot exceed
    N, while the number of changed bytes per delta-record should not
    exceed M. [...] The violation of one of the above conditions means
    that upon eviction the page cannot be written out using IPA [...]
    In this case, the out-of-place flag is set, and further updates are
    not tracked until eviction."

The tracker attaches to a frame's page as a write hook.  Each *update
operation* (bracketed by :meth:`begin_op`/:meth:`end_op`) becomes one
candidate delta-record; header/footer bytes are not counted against M
because they travel wholesale in the record's delta_metadata.

Representation.  A hooked write ``(offset, old, new)`` is reduced once to
the integer ``x = int.from_bytes(old) ^ int.from_bytes(new)``
(little-endian, so byte ``i`` of the span is bits ``8i..8i+7``); its
non-zero bytes are exactly the changed bytes.  The span is split at the
header and footer boundaries and each part is OR-ed into a per-residency
mask (header, body, footer), so a mask's non-zero bytes are the distinct
bytes changed by any write since the last flush.  Inside an operation
the tracker keeps the op's ``(offset, x, new)`` parts, body and
metadata apart: the union of the body parts is the op's size, and the
WAL redo pair area :attr:`last_op_redo` is encoded from the parts only
when read (each part's old bytes are ``new ^ x``, the before-image).
The per-op ``offset -> value`` dict that becomes a delta-record is built
only while the page is still IPA-eligible; a span with more than M
changed bytes flags the page out-of-place without building it.
"""

from __future__ import annotations

from operator import itemgetter

from repro.core.config import IpaScheme
from repro.core.delta import PAIR, DeltaRecord

#: One region's part of a hooked write: (offset, old ^ new, new bytes).
_Part = tuple[int, int, bytes]

_pack_pair = PAIR.pack


def _offset_pairs() -> bytes:
    """The pair of every 16-bit page offset, with value 0 (192 KB)."""
    pairs = bytearray(PAIR.size << 16)
    pairs[0::3] = bytes(range(256)) * 256
    pairs[1::3] = b"".join(bytes([high]) * 256 for high in range(256))
    return bytes(pairs)


#: A run of consecutive changed bytes copies its offsets as one slice of
#: this table, then sets every third byte to the new values.
_OFFSET_PAIRS = _offset_pairs()

_part_offset = itemgetter(0)


def _nonzero_bytes(x: int) -> int:
    """Number of non-zero bytes of ``x``."""
    length = (x.bit_length() + 7) >> 3
    return length - x.to_bytes(length, "little").count(0)


def _nonzero_offsets(x: int, base: int) -> set[int]:
    """``base + i`` for every non-zero byte ``i`` of ``x``."""
    raw = x.to_bytes((x.bit_length() + 7) >> 3, "little")
    return {base + i for i, b in enumerate(raw) if b}


def _changed_bytes(x: int, limit: int) -> list[int]:
    """Indices of the non-zero bytes of ``x``, ascending; at most ``limit``."""
    out: list[int] = []
    i = 0
    while x and len(out) < limit:
        skip = ((x & -x).bit_length() - 1) >> 3
        i += skip
        out.append(i)
        x >>= (skip + 1) << 3
        i += 1
    return out


def _op_size(parts: list[_Part]) -> int:
    """Distinct bytes changed by an operation's body parts."""
    if len(parts) == 1:
        return _nonzero_bytes(parts[0][1])
    # Disjoint parts (a record and its slot) add up; only overlapping
    # ones (a byte rewritten within the op) are merged first.
    return sum(_nonzero_bytes(part[1]) for part in _disjoint(parts))


def _ascending(parts: list[_Part]) -> bool:
    """Are ``parts`` disjoint and in ascending offset order?"""
    reach = 0
    for offset, _, new in parts:
        if offset < reach:
            return False
        reach = offset + len(new)
    return True


def _disjoint(parts: list[_Part]) -> list[_Part]:
    """``parts`` in ascending offset order, overlapping ones merged.

    Parts are given in write order, so a merged byte takes the value of
    the last part that covers it; its ``x`` is the union of the parts'.
    Within one op a covered byte's last written value is its current
    value, which is the value of its last change.
    """
    if _ascending(parts):
        return parts
    ordered = sorted(parts, key=_part_offset)
    if _ascending(ordered):
        return ordered
    # A byte rewritten within the op: merge each cluster of overlapping
    # parts, applying its members in write order.
    clusters: list[list[int]] = []
    reach = 0
    for i in sorted(range(len(parts)), key=lambda k: parts[k][0]):
        offset, _, new = parts[i]
        if clusters and offset < reach:
            clusters[-1].append(i)
        else:
            clusters.append([i])
        reach = max(reach, offset + len(new))
    merged: list[_Part] = []
    for cluster in clusters:
        if len(cluster) == 1:
            merged.append(parts[cluster[0]])
            continue
        lo = parts[cluster[0]][0]
        buf = bytearray(max(parts[j][0] + len(parts[j][2]) for j in cluster) - lo)
        union = 0
        for j in sorted(cluster):
            at, x, new = parts[j]
            buf[at - lo : at - lo + len(new)] = new
            union |= x << ((at - lo) << 3)
        merged.append((lo, union, bytes(buf)))
    return merged


def _redo_pairs(parts: list[_Part]) -> bytes:
    """Encode the changed bytes of disjoint, ascending ``parts`` as
    ``offset u16 LE | value u8`` pairs, one run of changed bytes at a
    time: a lone byte is packed, a longer run copies its offsets from
    the table and sets their values by slice assignment."""
    out = bytearray()
    for offset, x, new in parts:
        at = 0
        for run in x.to_bytes((x.bit_length() + 7) >> 3, "little").split(b"\x00"):
            n = len(run)
            if n == 1:
                out += _pack_pair(offset + at, new[at])
            elif n:
                start = 3 * (offset + at)
                pairs = bytearray(_OFFSET_PAIRS[start : start + 3 * n])
                pairs[2::3] = new[at : at + n]
                out += pairs
            at += n + 1
    return bytes(out)


class ChangeTracker:
    """Tracks one buffer-resident page's updates against an N x M scheme.

    Args:
        scheme: The page's IPA configuration.
        existing_records: Delta-records already present on the Flash copy
            of the page (they count against N).
        header_end: First byte after the page header.
        body_end: First byte after the body (start of the delta area).
    """

    def __init__(
        self,
        scheme: IpaScheme,
        existing_records: int,
        header_end: int,
        body_end: int,
    ) -> None:
        self.scheme = scheme
        self.existing_records = existing_records
        self._header_end = header_end
        self._body_end = body_end
        self._m_bytes = scheme.m_bytes
        self.records: list[dict[int, int]] = []
        self.out_of_place = not scheme.enabled
        self.meta_changed = False
        self._open: dict[int, int] | None = None
        #: Changed-byte count of every bracketed op, conformant or not —
        #: the raw material of trace capture (E6) and the N x M ablation.
        self.op_sizes: list[int] = []
        # Per-residency change masks, based at 0 (header), ``header_end``
        # (body) and ``body_end`` (footer).
        self._body_mask = 0
        self._header_mask = 0
        self._footer_mask = 0
        # The open operation's body and header/footer parts; None
        # outside a bracket.  The last closed operation's parts back
        # ``last_op_redo``.
        self._op_body: list[_Part] | None = None
        self._op_meta: list[_Part] = []
        self._last_body: list[_Part] = []
        self._last_meta: list[_Part] = []

    # ------------------------------------------------------------------ #
    # Operation bracketing
    # ------------------------------------------------------------------ #

    def begin_op(self) -> None:
        """Start one update operation (one candidate delta-record)."""
        if self._op_body is not None:
            raise RuntimeError("nested update operations are not supported")
        self._op_body = []
        self._op_meta = []
        if not self.out_of_place:
            self._open = {}

    def end_op(self) -> None:
        """Close the operation; promote its changes to a delta-record."""
        body = self._op_body
        if body is not None:
            self._op_body = None
            size = _op_size(body)
            if size:
                self.op_sizes.append(size)
            self._last_body = body
            self._last_meta = self._op_meta
        if self._open is None:
            return
        changes, self._open = self._open, None
        if self.out_of_place or not changes:
            return
        if self.existing_records + len(self.records) + 1 > self.scheme.n_records:
            self.mark_out_of_place()
            return
        self.records.append(changes)

    def mark_out_of_place(self) -> None:
        """Give up on IPA for this residency; stop tracking."""
        self.out_of_place = True
        self.records.clear()
        self._open = None

    # ------------------------------------------------------------------ #
    # Write observation (SlottedPage hook)
    # ------------------------------------------------------------------ #

    def on_write(self, offset: int, old: bytes, new: bytes) -> None:
        """Observe one page mutation; classify its changed bytes."""
        x = int.from_bytes(old, "little") ^ int.from_bytes(new, "little")
        if not x:
            return
        if not isinstance(new, bytes):
            new = bytes(new)  # an op's parts must not alias a page buffer
        end = offset + len(new)
        if end <= self._header_end:
            # Header field (LSN, slot count, free pointer): metadata only.
            self._note_meta(offset, x, new)
            return
        if offset < self._header_end or end > self._body_end:
            offset, x, new = self._split_meta(offset, x, new)
            if not x:
                return
        self._body_mask |= x << ((offset - self._header_end) << 3)
        if self._op_body is not None:
            self._op_body.append((offset, x, new))
        if self.out_of_place:
            return
        op = self._open
        if op is None:
            # A body change outside any bracketed operation (bulk load,
            # page reorganisation): not representable as a delta-record.
            self.mark_out_of_place()
            return
        changed = _changed_bytes(x, self._m_bytes + 1)
        if len(changed) > self._m_bytes:
            self.mark_out_of_place()
            return
        for i in changed:
            op[offset + i] = new[i]
        if len(op) > self._m_bytes:
            self.mark_out_of_place()

    def _note_meta(self, offset: int, x: int, new: bytes) -> None:
        """Record a header or footer part: shipped via delta_metadata,
        free of charge."""
        if offset < self._header_end:
            self._header_mask |= x << (offset << 3)
        else:
            self._footer_mask |= x << ((offset - self._body_end) << 3)
        self.meta_changed = True
        if self._op_body is not None:
            self._op_meta.append((offset, x, new))

    def _split_meta(self, offset: int, x: int, new: bytes) -> _Part:
        """Note the header/footer parts of a span; return its body part."""
        end = offset + len(new)
        lo = max(offset, self._header_end)
        hi = min(end, self._body_end)
        if offset < lo:
            head = x & ((1 << ((lo - offset) << 3)) - 1)
            if head:
                self._note_meta(offset, head, new[: lo - offset])
        if end > self._body_end:
            at = max(offset, self._body_end)
            tail = x >> ((at - offset) << 3)
            if tail:
                self._note_meta(at, tail, new[at - offset :])
        if lo >= hi:
            return lo, 0, b""
        body = (x >> ((lo - offset) << 3)) & ((1 << ((hi - lo) << 3)) - 1)
        return lo, body, new[lo - offset : hi - offset]

    # ------------------------------------------------------------------ #
    # Change queries
    # ------------------------------------------------------------------ #

    @property
    def net_changed_offsets(self) -> set[int]:
        """Distinct body bytes changed this residency (E7 analysis)."""
        return _nonzero_offsets(self._body_mask, self._header_end)

    @property
    def net_changed_count(self) -> int:
        """``len(net_changed_offsets)``, without building the set."""
        return _nonzero_bytes(self._body_mask)

    @property
    def meta_changed_offsets(self) -> set[int]:
        """Distinct header/footer bytes changed (IPL logs these too)."""
        return _nonzero_offsets(self._header_mask, 0) | _nonzero_offsets(
            self._footer_mask, self._body_end
        )

    @property
    def meta_changed_count(self) -> int:
        """``len(meta_changed_offsets)``, without building the set."""
        return _nonzero_bytes(self._header_mask) + _nonzero_bytes(
            self._footer_mask
        )

    @property
    def last_op_redo(self) -> bytes:
        """The WAL redo pair area of the last closed op: every changed
        byte, header/footer included, as ``offset u16 LE | value u8``
        in ascending offset order (a byte changed twice appears once,
        with its last value)."""
        # Header parts first: an op's body parts lie between its header
        # and footer parts, so this order is often ascending already.
        parts = self._last_meta + self._last_body
        if len(parts) > 1:
            parts = _disjoint(parts)
        return _redo_pairs(parts)

    # ------------------------------------------------------------------ #
    # Eviction-side queries
    # ------------------------------------------------------------------ #

    @property
    def ipa_eligible(self) -> bool:
        """Can this page be evicted via in-place appends right now?"""
        if self.out_of_place or not self.scheme.enabled:
            return False
        pending = len(self.records) if self.records else (
            1 if self.meta_changed else 0
        )
        return self.existing_records + pending <= self.scheme.n_records

    @property
    def dirty(self) -> bool:
        """Any tracked change at all (body or metadata)?"""
        return bool(self.records or self.meta_changed or self._body_mask)

    def build_delta_records(
        self, meta_header: bytes, meta_footer: bytes
    ) -> list[DeltaRecord]:
        """Materialize the pending delta-records for eviction.

        Every record carries the *final* metadata snapshot — records are
        applied in order on fetch, so the last overlay wins and equals the
        page state at eviction.

        A metadata-only change (LSN bump without body bytes) produces one
        pair-less record.
        """
        if self.out_of_place:
            raise RuntimeError("page is flagged out-of-place")
        groups = self.records if self.records else ([{}] if self.meta_changed else [])
        return [
            DeltaRecord(
                pairs=sorted(group.items()),
                meta_header=meta_header,
                meta_footer=meta_footer,
            )
            for group in groups
        ]

    def reset_after_flush(self, new_existing_records: int) -> None:
        """Re-arm the tracker after the page reached Flash."""
        self.existing_records = new_existing_records
        self.records = []
        self.out_of_place = not self.scheme.enabled
        self.meta_changed = False
        self._open = None
        self._op_body = None
        self._body_mask = 0
        self._header_mask = 0
        self._footer_mask = 0
        self.op_sizes = []
