"""WAL record codec: encode/decode round trips over random pair sets."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.wal import (
    FormatRecord,
    PageUpdateRecord,
    decode_records,
    encode_pairs,
    encode_update,
)
from repro.flash.geometry import FlashGeometry

PAGE_SIZE = FlashGeometry().page_size

#: Pair sets as the tracker emits them: distinct offsets anywhere in the
#: page (the last byte included), ascending, any byte value.
pair_sets = st.dictionaries(
    st.integers(min_value=0, max_value=PAGE_SIZE - 1),
    st.integers(min_value=0, max_value=255),
    min_size=1,
    max_size=300,
).map(lambda changes: tuple(sorted(changes.items())))

updates = st.builds(
    PageUpdateRecord,
    lsn=st.integers(min_value=1, max_value=2**64 - 1),
    lba=st.integers(min_value=0, max_value=2**32 - 1),
    changes=pair_sets,
)
formats = st.builds(
    FormatRecord,
    lsn=st.integers(min_value=1, max_value=2**64 - 1),
    lba=st.integers(min_value=0, max_value=2**32 - 1),
    file_id=st.integers(min_value=0, max_value=2**16 - 1),
)


@given(record=updates)
@settings(max_examples=200, deadline=None)
def test_update_round_trip(record):
    encoded = record.encode()
    assert encoded == encode_update(
        record.lsn, record.lba, encode_pairs(record.changes)
    )
    assert len(encoded) == 15 + 3 * len(record.changes)
    assert decode_records(encoded) == [record]


@given(records=st.lists(st.one_of(updates, formats), max_size=8))
@settings(max_examples=200, deadline=None)
def test_stream_round_trip_stops_at_erased_tail(records):
    stream = b"".join(r.encode() for r in records) + b"\xff" * 20
    assert decode_records(stream) == records


def test_last_offset_of_the_page():
    record = PageUpdateRecord(3, 9, ((0, 0), (PAGE_SIZE - 1, 0xFF)))
    assert decode_records(record.encode()) == [record]
