"""Delta-record wire format (paper Figure 3).

One record is::

    +---------+-----------------------+-----------------------------+
    | control | M x (offset16, val8)  | delta_metadata              |
    | 1 byte  | 3M bytes              | header copy + footer copy   |
    +---------+-----------------------+-----------------------------+

* ``control``: ``0x40 | pair_count``.  The erased state is 0xFF, and any
  value with bit 7 cleared is reachable from 0xFF by clearing bits only,
  so the control byte can be appended to an erased slot without violating
  the Flash programming rule.  ``0xFF`` therefore means "slot empty".
* pairs: little-endian 16-bit *page-absolute* offset plus the new byte
  value.  Unused pair slots stay erased (``FF FF FF``).
* ``delta_metadata``: the modified page header and footer in full —
  page metadata (LSN, slot count, checksum ...) changes on every update,
  so the paper ships it wholesale instead of as pairs.

Applying the records of a page in append order, then overlaying the last
record's metadata, reconstructs the up-to-date page (Section 3, "Page
operations").
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.config import (
    PAGE_FOOTER_SIZE,
    PAGE_HEADER_SIZE,
    PAIR_SIZE,
    IpaScheme,
)

#: Control-byte tag: high bits 01, low nibble = pair count.
CONTROL_TAG = 0x40
_ERASED = 0xFF

#: One ``(offset, value)`` pair as stored: page offset u16 LE, new byte
#: value u8.  Delta-records and WAL redo records share this layout.
PAIR = struct.Struct("<HB")


def encode_pairs(pairs: Iterable[tuple[int, int]]) -> bytes:
    """``pairs`` packed back to back, in the order given."""
    pack = PAIR.pack
    return b"".join([pack(offset, value) for offset, value in pairs])


class DeltaFormatError(ValueError):
    """A delta-record buffer does not parse under the given scheme."""


@dataclass
class DeltaRecord:
    """One decoded (or to-be-encoded) delta-record.

    Attributes:
        pairs: ``(page_offset, new_value)`` tuples, at most M of them.
        meta_header: Modified page header (PAGE_HEADER_SIZE bytes).
        meta_footer: Modified page footer (PAGE_FOOTER_SIZE bytes).
    """

    pairs: list[tuple[int, int]] = field(default_factory=list)
    meta_header: bytes = b"\x00" * PAGE_HEADER_SIZE
    meta_footer: bytes = b"\x00" * PAGE_FOOTER_SIZE

    def encode(self, scheme: IpaScheme) -> bytes:
        """Serialize to exactly ``scheme.record_size`` bytes.

        Raises:
            DeltaFormatError: too many pairs for M, bad metadata sizes, or
                an offset that cannot be represented in 16 bits.
        """
        if not scheme.enabled:
            raise DeltaFormatError("cannot encode a record for scheme [0x0]")
        if len(self.pairs) > scheme.m_bytes:
            raise DeltaFormatError(
                f"{len(self.pairs)} pairs exceed M={scheme.m_bytes}"
            )
        if len(self.meta_header) != PAGE_HEADER_SIZE:
            raise DeltaFormatError(
                f"meta_header must be {PAGE_HEADER_SIZE} bytes"
            )
        if len(self.meta_footer) != PAGE_FOOTER_SIZE:
            raise DeltaFormatError(
                f"meta_footer must be {PAGE_FOOTER_SIZE} bytes"
            )
        out = bytearray([_ERASED]) * scheme.record_size
        out[0] = CONTROL_TAG | len(self.pairs)
        for i, (offset, value) in enumerate(self.pairs):
            if not 0 <= offset < 0xFFFF:
                raise DeltaFormatError(f"offset {offset} not encodable in 16 bits")
            if not 0 <= value <= 0xFF:
                raise DeltaFormatError(f"value {value} is not a byte")
            base = 1 + i * PAIR_SIZE
            out[base : base + 2] = offset.to_bytes(2, "little")
            out[base + 2] = value
        meta_base = 1 + scheme.m_bytes * PAIR_SIZE
        out[meta_base : meta_base + PAGE_HEADER_SIZE] = self.meta_header
        out[
            meta_base + PAGE_HEADER_SIZE : meta_base + PAGE_HEADER_SIZE
            + PAGE_FOOTER_SIZE
        ] = self.meta_footer
        return bytes(out)

    @classmethod
    def decode(cls, buf: bytes, scheme: IpaScheme) -> "DeltaRecord | None":
        """Parse one record slot; None if the slot is still erased.

        Raises:
            DeltaFormatError: wrong buffer size or corrupt control byte.
        """
        if len(buf) != scheme.record_size:
            raise DeltaFormatError(
                f"slot is {len(buf)} bytes, scheme needs {scheme.record_size}"
            )
        control = buf[0]
        if control == _ERASED:
            return None
        if control & 0xF0 != CONTROL_TAG:
            raise DeltaFormatError(f"bad control byte 0x{control:02x}")
        count = control & 0x0F
        if count > scheme.m_bytes:
            raise DeltaFormatError(
                f"control claims {count} pairs but M={scheme.m_bytes}"
            )
        pairs = []
        for i in range(count):
            base = 1 + i * PAIR_SIZE
            offset = int.from_bytes(buf[base : base + 2], "little")
            value = buf[base + 2]
            pairs.append((offset, value))
        meta_base = 1 + scheme.m_bytes * PAIR_SIZE
        meta_header = bytes(buf[meta_base : meta_base + PAGE_HEADER_SIZE])
        meta_footer = bytes(
            buf[
                meta_base + PAGE_HEADER_SIZE : meta_base + PAGE_HEADER_SIZE
                + PAGE_FOOTER_SIZE
            ]
        )
        return cls(pairs=pairs, meta_header=meta_header, meta_footer=meta_footer)


def decode_delta_area(
    area: bytes, scheme: IpaScheme, max_records: int | None = None
) -> list[DeltaRecord]:
    """Parse every present record of a page's delta area, in append order.

    Records are appended left to right, so parsing stops at the first
    erased slot.  ``max_records`` caps how many slots are even examined —
    crash recovery uses it to drop a torn trailing record (whose bytes
    may not parse at all) and retry with one slot fewer.
    """
    if not scheme.enabled:
        return []
    if len(area) != scheme.delta_area_size:
        raise DeltaFormatError(
            f"delta area is {len(area)} bytes, scheme needs "
            f"{scheme.delta_area_size}"
        )
    limit = scheme.n_records
    if max_records is not None:
        limit = min(limit, max_records)
    records: list[DeltaRecord] = []
    for i in range(limit):
        slot = area[i * scheme.record_size : (i + 1) * scheme.record_size]
        record = DeltaRecord.decode(slot, scheme)
        if record is None:
            break
        records.append(record)
    return records
