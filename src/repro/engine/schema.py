"""Typed, fixed-size record schemas.

Fixed-size records keep every column at a fixed page offset, so a field
update touches exactly the column's bytes — the "small in-place updates"
whose delta-record transformation is the paper's subject.  (An INT64
balance update changes at most 8 bytes; with typical value locality it
changes 1-3, which is why the [2x4] scheme of Table 1 suffices.)
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping


class ColumnType(enum.Enum):
    """Supported column types (all fixed-width)."""

    INT32 = "int32"
    INT64 = "int64"
    FLOAT64 = "float64"
    CHAR = "char"  # fixed-width, space-padded


#: ``struct`` format character of each numeric type (little-endian).
_FORMAT = {
    ColumnType.INT32: "i",
    ColumnType.INT64: "q",
    ColumnType.FLOAT64: "d",
}


@dataclass(frozen=True)
class Column:
    """One column: name, type, and width for CHAR columns.

    ``width`` (bytes in the record), ``format`` (its ``struct`` format
    code) and the column's compiled codec are derived at construction.
    """

    name: str
    type: ColumnType
    size: int = 0  # CHAR width; ignored otherwise
    width: int = field(init=False, repr=False, compare=False)
    format: str = field(init=False, repr=False, compare=False)
    _codec: struct.Struct = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        is_char = self.type is ColumnType.CHAR
        if is_char:
            if self.size < 1:
                raise ValueError(f"CHAR column '{self.name}' needs size >= 1")
            fmt = f"{self.size}s"
        else:
            fmt = _FORMAT[self.type]
        codec = struct.Struct("<" + fmt)
        if not is_char and self.size not in (0, codec.size):
            raise ValueError(f"size is only meaningful for CHAR ('{self.name}')")
        object.__setattr__(self, "width", codec.size)
        object.__setattr__(self, "format", fmt)
        object.__setattr__(self, "_codec", codec)

    def __reduce__(self) -> tuple:
        # struct.Struct does not pickle; rebuild the codec on load.
        return type(self), (self.name, self.type, self.size)

    def encode(self, value: Any) -> bytes:
        """Serialize one value to the column's fixed width."""
        if self.type is ColumnType.CHAR:
            return self._pad(value)
        return self._codec.pack(value)

    def _pad(self, value: Any) -> bytes:
        """A CHAR value as exactly ``size`` space-padded bytes."""
        raw = value.encode("ascii") if isinstance(value, str) else bytes(value)
        if len(raw) > self.size:
            raise ValueError(
                f"value of {len(raw)} bytes exceeds CHAR({self.size}) "
                f"column '{self.name}'"
            )
        return raw.ljust(self.size, b" ")

    def decode(self, raw: bytes) -> Any:
        """Deserialize the column's bytes."""
        if self.type is ColumnType.CHAR:
            return raw.rstrip(b" ").decode("ascii")
        return self._codec.unpack(raw)[0]


class Schema:
    """An ordered set of columns with precomputed offsets.

    A whole row is packed and unpacked by one precompiled ``struct``
    codec (CHAR columns are ``Ns`` fields, padded and stripped around it).
    """

    def __init__(self, columns: Iterable[Column]) -> None:
        self.columns = list(columns)
        if not self.columns:
            raise ValueError("schema needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {names}")
        self._offsets: dict[str, tuple[int, Column]] = {}
        offset = 0
        for column in self.columns:
            self._offsets[column.name] = (offset, column)
            offset += column.width
        self.record_size = offset
        self._names = tuple(names)
        self._row = struct.Struct("<" + "".join(c.format for c in self.columns))
        self._char_columns = tuple(
            (i, c) for i, c in enumerate(self.columns) if c.type is ColumnType.CHAR
        )

    def __reduce__(self) -> tuple:
        # struct.Struct does not pickle; rebuild the codecs on load.
        return type(self), (self.columns,)

    def field_span(self, name: str) -> tuple[int, int]:
        """(offset, width) of a column within the record."""
        offset, column = self._offsets[name]
        return offset, column.width

    def column(self, name: str) -> Column:
        """Column object by name."""
        return self._offsets[name][1]

    def encode(self, values: Mapping[str, Any]) -> bytes:
        """Serialize a full record from a column-name mapping."""
        missing = [name for name in self._names if name not in values]
        if missing:
            raise ValueError(f"missing columns: {missing}")
        row = [values[name] for name in self._names]
        for i, column in self._char_columns:
            row[i] = column._pad(row[i])
        return self._row.pack(*row)

    def decode(self, record: bytes) -> dict[str, Any]:
        """Deserialize a full record."""
        if len(record) != self.record_size:
            raise ValueError(
                f"record of {len(record)} bytes, schema needs {self.record_size}"
            )
        row = list(self._row.unpack(record))
        for i, _column in self._char_columns:
            row[i] = row[i].rstrip(b" ").decode("ascii")
        return dict(zip(self._names, row))

    def encode_field(self, name: str, value: Any) -> tuple[int, bytes]:
        """(offset, bytes) for an in-place single-field update."""
        offset, column = self._offsets[name]
        return offset, column.encode(value)
