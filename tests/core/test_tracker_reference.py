"""Differential test: the mask-based ChangeTracker against a per-byte model.

``ReferenceTracker`` is the straightforward per-byte classification the
paper's Section 3 describes: every changed byte of every hooked write is
compared, filed as header/footer metadata or as a body byte, added to
the per-residency offset sets and to the open operation's delta-record.
The real tracker reaches the same results with whole-span integer masks;
hypothesis drives both with the same write sequences and every
observable result must agree.  The real tracker's WAL redo pair area
``last_op_redo`` must equal the plain pair encoding of the model's
``last_op_changes`` in ascending offset order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import IPA_DISABLED, SCHEME_2X4, IpaScheme
from repro.core.delta import DeltaRecord, encode_pairs
from repro.core.tracker import ChangeTracker

HEADER_END = 24
BODY_END = 160
PAGE_SIZE = 200


class ReferenceTracker:
    """Per-byte change tracking: one compare and one set/dict store per byte."""

    def __init__(self, scheme, existing_records, header_end, body_end):
        self.scheme = scheme
        self.existing_records = existing_records
        self._header_end = header_end
        self._body_end = body_end
        self.records = []
        self.out_of_place = not scheme.enabled
        self.meta_changed = False
        self._open = None
        self.net_changed_offsets = set()
        self.meta_changed_offsets = set()
        self.op_sizes = []
        self.last_op_changes = {}
        self._open_raw = None
        self._open_meta = None

    def begin_op(self):
        if self._open_raw is not None:
            raise RuntimeError("nested update operations are not supported")
        self._open_raw = {}
        self._open_meta = {}
        if not self.out_of_place:
            self._open = {}

    def end_op(self):
        if self._open_raw is not None:
            raw, self._open_raw = self._open_raw, None
            meta, self._open_meta = self._open_meta or {}, None
            if raw:
                self.op_sizes.append(len(raw))
            self.last_op_changes = {**raw, **meta}
        if self._open is None:
            return
        changes, self._open = self._open, None
        if self.out_of_place or not changes:
            return
        if self.existing_records + len(self.records) + 1 > self.scheme.n_records:
            self.mark_out_of_place()
            return
        self.records.append(changes)

    def mark_out_of_place(self):
        self.out_of_place = True
        self.records.clear()
        self._open = None

    def on_write(self, offset, old, new):
        for i in range(len(new)):
            if old[i] == new[i]:
                continue
            pos = offset + i
            if pos < self._header_end or pos >= self._body_end:
                self.meta_changed = True
                self.meta_changed_offsets.add(pos)
                if self._open_meta is not None:
                    self._open_meta[pos] = new[i]
                continue
            self.net_changed_offsets.add(pos)
            if self._open_raw is not None:
                self._open_raw[pos] = new[i]
            if self.out_of_place:
                continue
            if self._open is None:
                self.mark_out_of_place()
                continue
            self._open[pos] = new[i]
            if len(self._open) > self.scheme.m_bytes:
                self.mark_out_of_place()

    @property
    def ipa_eligible(self):
        if self.out_of_place or not self.scheme.enabled:
            return False
        pending = len(self.records) if self.records else (
            1 if self.meta_changed else 0
        )
        return self.existing_records + pending <= self.scheme.n_records

    @property
    def dirty(self):
        return bool(self.records or self.meta_changed or self.net_changed_offsets)

    def build_delta_records(self, meta_header, meta_footer):
        groups = self.records if self.records else ([{}] if self.meta_changed else [])
        return [
            DeltaRecord(
                pairs=sorted(g.items()), meta_header=meta_header, meta_footer=meta_footer
            )
            for g in groups
        ]

    def reset_after_flush(self, new_existing_records):
        self.existing_records = new_existing_records
        self.records = []
        self.out_of_place = not self.scheme.enabled
        self.meta_changed = False
        self._open = None
        self._open_raw = None
        self._open_meta = None
        self.net_changed_offsets = set()
        self.meta_changed_offsets = set()
        self.op_sizes = []


def redo_bytes(t):
    """The WAL redo pair area of the last closed op."""
    if isinstance(t, ReferenceTracker):
        return encode_pairs(sorted(t.last_op_changes.items()))
    return t.last_op_redo


def observe(t):
    """Everything a caller can read off a tracker."""
    return {
        "records": [list(r.items()) for r in t.records],
        "out_of_place": t.out_of_place,
        "meta_changed": t.meta_changed,
        "op_sizes": list(t.op_sizes),
        "net": t.net_changed_offsets,
        "meta": t.meta_changed_offsets,
        "last_op_redo": redo_bytes(t),
        "ipa_eligible": t.ipa_eligible,
        "dirty": t.dirty,
        "existing_records": t.existing_records,
    }


# Byte values from a tiny alphabet, so rewrites, reverts (0 -> 1 -> 0)
# and unchanged bytes inside a span are all common.
values = st.integers(min_value=0, max_value=2)

# Spans anchored near the interesting boundaries, and anywhere.
anchors = st.sampled_from(
    [0, HEADER_END - 3, HEADER_END, 60, 61, BODY_END - 4, BODY_END, PAGE_SIZE - 8]
)
writes = st.tuples(
    st.just("write"),
    st.one_of(
        st.tuples(anchors, st.integers(min_value=-2, max_value=2)).map(
            lambda a: max(a[0] + a[1], 0)
        ),
        st.integers(min_value=0, max_value=PAGE_SIZE - 1),
    ),
    st.one_of(
        st.lists(values, min_size=1, max_size=10),
        st.lists(values, min_size=11, max_size=PAGE_SIZE),
    ),
)
actions = st.lists(
    st.one_of(
        writes,
        writes,
        writes,
        st.just(("begin",)),
        st.just(("end",)),
        st.tuples(st.just("reset"), st.integers(min_value=0, max_value=2)),
    ),
    max_size=40,
)
schemes = st.sampled_from(
    [SCHEME_2X4, IpaScheme(1, 1), IpaScheme(3, 8), IpaScheme(15, 15), IPA_DISABLED]
)


def run_both(scheme, existing, steps):
    real = ChangeTracker(scheme, existing, HEADER_END, BODY_END)
    model = ReferenceTracker(scheme, existing, HEADER_END, BODY_END)
    page = bytearray(PAGE_SIZE)
    for step in steps:
        kind = step[0]
        if kind == "write":
            _, offset, data = step
            new = bytes(data[: PAGE_SIZE - offset])
            old = bytes(page[offset : offset + len(new)])
            real.on_write(offset, old, new)
            model.on_write(offset, old, new)
            page[offset : offset + len(new)] = new
        elif kind == "begin":
            outcomes = []
            for t in (real, model):
                try:
                    t.begin_op()
                    outcomes.append(None)
                except RuntimeError:
                    outcomes.append(RuntimeError)
            assert outcomes[0] == outcomes[1]
        elif kind == "end":
            real.end_op()
            model.end_op()
        else:
            real.reset_after_flush(step[1])
            model.reset_after_flush(step[1])
        assert observe(real) == observe(model), step
        assert real.net_changed_count == len(model.net_changed_offsets)
        assert real.meta_changed_count == len(model.meta_changed_offsets)
    if not real.out_of_place:
        header, footer = b"H" * HEADER_END, b"F" * (PAGE_SIZE - BODY_END)
        assert real.build_delta_records(header, footer) == (
            model.build_delta_records(header, footer)
        )


@given(scheme=schemes, existing=st.integers(min_value=0, max_value=2), steps=actions)
@settings(max_examples=300, deadline=None)
def test_matches_per_byte_reference(scheme, existing, steps):
    run_both(scheme, existing, steps)


@given(
    scheme=schemes,
    ops=st.lists(
        st.lists(st.tuples(st.integers(HEADER_END - 2, BODY_END + 2), values),
                 min_size=1, max_size=6),
        max_size=6,
    ),
)
@settings(max_examples=200, deadline=None)
def test_bracketed_single_byte_updates(scheme, ops):
    """The TPC-B shape: every op is a few small bracketed writes."""
    steps = []
    for op in ops:
        steps.append(("begin",))
        steps.extend(("write", offset, [value]) for offset, value in op)
        steps.append(("end",))
    run_both(scheme, 0, steps)


@given(
    scheme=schemes,
    writes_in_op=st.lists(
        st.tuples(
            st.sampled_from([HEADER_END, BODY_END]),
            st.integers(min_value=-6, max_value=-1),
            st.lists(st.integers(min_value=0, max_value=255), min_size=2, max_size=10),
        ),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=200, deadline=None)
def test_boundary_straddling_writes(scheme, writes_in_op):
    """Spans cut by the header/body and body/footer boundaries."""
    steps = [("begin",)]
    steps.extend(("write", edge + back, data) for edge, back, data in writes_in_op)
    steps.append(("end",))
    run_both(scheme, 0, steps)


@pytest.mark.parametrize(
    "steps",
    [
        # In-op revert: the byte still counts, with its final value.
        [("begin",), ("write", 100, [1]), ("write", 100, [0]), ("end",)],
        # Straddling the header and footer boundaries in one span.
        [("begin",), ("write", HEADER_END - 2, [1, 3, 0, 2]), ("end",)],
        [("begin",), ("write", BODY_END - 2, [1, 3, 0, 2]), ("end",)],
        [("begin",), ("write", 0, [1] * PAGE_SIZE), ("end",)],
        # Body write outside a bracket, then a bracketed one.
        [("write", 50, [1]), ("begin",), ("write", 60, [2]), ("end",)],
        # More than M bytes in one span; more than N records.
        [("begin",), ("write", 40, [1] * 5), ("end",)],
        [("begin",), ("write", 40, [1]), ("end",)] * 3,
        # Flush mid-operation drops the open op.
        [("begin",), ("write", 40, [1]), ("reset", 1), ("write", 41, [1]), ("end",)],
        # Redo pairs are in ascending offset order, header to footer.
        [("begin",), ("write", 6, [1, 2]), ("write", 90, [3]), ("write", 80, [4]),
         ("end",)],
        # In-op rewrites: 0 -> 1 -> 0 and 0 -> 1 -> 2, field and record sized.
        [("begin",), ("write", 100, [1, 1]), ("write", 100, [0, 2]), ("end",)],
        [("begin",), ("write", 40, [1] * 20), ("write", 50, [0] * 20),
         ("write", 45, [2, 0, 2]), ("end",)],
        [("begin",), ("write", 30, [1] * 12), ("write", 38, [2] * 12),
         ("write", 100, [1]), ("write", 20, [3] * 16), ("end",)],
        # Header/footer-straddling record-sized spans.
        [("begin",), ("write", HEADER_END - 6, [1] * 30), ("end",)],
        [("begin",), ("write", BODY_END - 20, [2] * 30), ("end",)],
        # A record span holding bytes equal to their old value.
        [("write", 0, [1] * PAGE_SIZE), ("begin",),
         ("write", 40, [1, 2, 2, 1, 1, 1, 2, 1, 2, 2, 1, 2]), ("end",)],
        # Empty ops: nothing written, or every byte rewritten unchanged.
        [("begin",), ("end",)],
        [("begin",), ("write", 40, [1]), ("end",), ("begin",), ("end",)],
        [("begin",), ("write", 40, [0] * 20), ("end",)],
    ],
)
def test_edge_cases(steps):
    run_both(SCHEME_2X4, 0, steps)


def test_redo_payload_does_not_alias_the_callers_buffer():
    t = ChangeTracker(SCHEME_2X4, 0, HEADER_END, BODY_END)
    data = bytearray(b"\x01\x02")
    t.begin_op()
    t.on_write(100, b"\x00\x00", data)
    data[:] = b"\x09\x09"  # the caller reuses its buffer
    t.end_op()
    assert t.last_op_redo == encode_pairs([(100, 1), (101, 2)])
