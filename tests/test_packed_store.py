"""Unit tests for ONTRAC's packed columnar dependence store.

The circular-buffer contract (oldest-first eviction by modeled bytes,
:class:`BufferStats` accounting including ``peak_bytes`` and the shared
``eviction_passes`` counter, window arithmetic) is checked against a
plain deque model of that contract; the packed-only invariants
(sentinel overflow round-trips, the monotone-order fallback,
epoch-keyed cache invalidation, deterministic resident-byte
accounting) are checked directly, and every indexed query against
``build_ddg`` over the same records.
"""

from collections import deque

import pytest

from repro.ontrac import (
    BufferStats,
    DepKind,
    DepRecord,
    PackedDDG,
    PackedTraceBuffer,
    ROW_PAYLOAD_BYTES,
    build_ddg,
)
from repro.ontrac.packed import _MAX_CHUNK_ROWS, _SEED_CHUNK_ROWS
from repro.ontrac.records import KIND_CODES
from repro.slicing import DEFAULT_KINDS, backward_slice, forward_slice
from repro.workloads.spec_like import matmul


def record_tuple(r):
    return (r.kind, r.consumer_seq, r.consumer_pc, r.producer_seq,
            r.producer_pc, r.tid, r.bytes)


def stats_tuple(stats):
    return (stats.appended, stats.appended_bytes, stats.evicted,
            stats.evicted_bytes, stats.peak_bytes, stats.eviction_passes)


def make_records(n, pc_base=0, tid=0):
    """A monotone, tracer-shaped record stream: one INSTR row per seq
    plus a REG edge back to the previous seq."""
    records = []
    for seq in range(n):
        records.append(DepRecord(DepKind.INSTR, seq, pc_base + seq % 97, tid=tid))
        if seq:
            records.append(
                DepRecord(DepKind.REG, seq, pc_base + seq % 97,
                          producer_seq=seq - 1, producer_pc=pc_base + (seq - 1) % 97,
                          tid=tid)
            )
    return records


def reference_window(records, capacity):
    """The circular-buffer contract as a plain deque model: returns the
    surviving records and the :class:`BufferStats` the store must
    account for the same append stream."""
    window = deque()
    cur = 0
    stats = BufferStats()
    for r in records:
        window.append(r)
        cur += r.bytes
        stats.appended += 1
        stats.appended_bytes += r.bytes
        stats.peak_bytes = max(stats.peak_bytes, cur)
        if cur > capacity:
            while cur > capacity:
                old = window.popleft()
                cur -= old.bytes
                stats.evicted += 1
                stats.evicted_bytes += old.bytes
            stats.eviction_passes += 1
    return list(window), stats


def fill(records, capacity=1 << 20):
    packed = PackedTraceBuffer(capacity_bytes=capacity)
    for r in records:
        packed.append(r)
    return packed


# --- the circular-buffer contract -------------------------------------------
def test_roundtrip_matches_legacy():
    records = make_records(1000)
    packed = fill(records)
    survivors, stats = reference_window(records, 1 << 20)
    assert len(packed) == len(survivors) == len(records)
    assert [record_tuple(r) for r in packed] == [record_tuple(r) for r in survivors]
    assert stats_tuple(packed.stats) == stats_tuple(stats)
    assert packed.oldest_seq == survivors[0].consumer_seq
    assert packed.newest_seq == survivors[-1].consumer_seq
    assert packed.window_instructions() == 1000


@pytest.mark.parametrize("capacity", [64, 512, 4096])
def test_eviction_matches_legacy(capacity):
    records = make_records(2000)
    packed = fill(records, capacity=capacity)
    survivors, stats = reference_window(records, capacity)
    assert [record_tuple(r) for r in packed] == [record_tuple(r) for r in survivors]
    assert stats_tuple(packed.stats) == stats_tuple(stats)
    assert packed.stats.evicted > 0
    assert packed.current_bytes == sum(r.bytes for r in survivors) <= capacity
    oldest, newest = survivors[0].consumer_seq, survivors[-1].consumer_seq
    assert (packed.oldest_seq, packed.newest_seq) == (oldest, newest)
    assert packed.window_instructions() == newest - oldest + 1
    for seq in (0, oldest - 1, oldest, newest, newest + 1):
        assert packed.covers_seq(seq) == (oldest <= seq <= newest)


def test_records_view_indexing():
    packed = fill(make_records(700))
    view = packed.records
    assert record_tuple(view[0]) == record_tuple(next(iter(packed)))
    assert record_tuple(view[-1]) == record_tuple(list(packed)[-1])
    assert record_tuple(view[len(view) - 1]) == record_tuple(view[-1])
    with pytest.raises(IndexError):
        view[len(view)]


def test_chunk_growth_and_spans():
    packed = fill(make_records(3 * _MAX_CHUNK_ROWS))
    assert packed.chunk_count > 1
    caps = [c.cap for c in packed.live_chunks()]
    assert caps[0] == _SEED_CHUNK_ROWS and caps[-1] == _MAX_CHUNK_ROWS
    # Every seq's rows are found exactly once, even across chunk seams.
    for seq in (0, 1, _SEED_CHUNK_ROWS, _MAX_CHUNK_ROWS, packed.newest_seq):
        rows = [c.record_at(r)
                for c, lo, hi in packed.consumer_spans(seq)
                for r in range(lo, hi)]
        assert rows, seq
        assert all(r.consumer_seq == seq for r in rows)
        expected = 1 if seq == 0 else 2  # INSTR + REG back-edge
        assert len(rows) == expected


def test_sentinel_overflow_roundtrip():
    big_pc = 1 << 20      # exceeds the 16-bit pc column
    big_tid = 1 << 17     # exceeds the 16-bit tid column
    packed = PackedTraceBuffer()
    packed.append(DepRecord(DepKind.INSTR, 0, big_pc, tid=big_tid))
    packed.append(DepRecord(DepKind.INSTR, 1, 3, tid=1))
    # Negative delta (producer after consumer) must take the overflow slot.
    packed.append(DepRecord(DepKind.MEM, 2, big_pc + 1,
                            producer_seq=50, producer_pc=big_pc + 2, tid=big_tid))
    got = [record_tuple(r) for r in packed]
    assert got == [
        (DepKind.INSTR, 0, big_pc, -1, -1, big_tid, 4),
        (DepKind.INSTR, 1, 3, -1, -1, 1, 4),
        (DepKind.MEM, 2, big_pc + 1, 50, big_pc + 2, big_tid, 8),
    ]
    # The flat edge view decodes the same overflow values.
    ranges, kinds, pseqs, ppcs = packed.flat_edges()
    lo, hi = ranges[2]
    assert pseqs[lo] == 50 and ppcs[lo] == big_pc + 2


def test_monotone_fallback_still_answers_queries():
    records = make_records(300)
    packed = PackedTraceBuffer()
    shuffled = records[50:] + records[:50]  # out-of-order direct appends
    for r in shuffled:
        packed.append(r)
    assert not packed.monotone
    ddg = PackedDDG(packed)
    assert not ddg.indexable
    # Queries fall back to the materialized graph and still work.
    ref = build_ddg(records)
    sl_ref = backward_slice(ref, 200)
    sl = backward_slice(ddg, 200)
    assert (sl.seqs, sl.pcs, sl.truncated) == (sl_ref.seqs, sl_ref.pcs, sl_ref.truncated)


def test_epoch_invalidates_ddg_caches_and_flat_view():
    packed = fill(make_records(100))
    ddg = PackedDDG(packed)
    flat1 = packed.flat_edges()
    assert packed.flat_edges() is flat1  # cached while quiescent
    before = backward_slice(ddg, 99)
    packed.append(DepRecord(DepKind.REG, 100, 7, producer_seq=40, producer_pc=40 % 97))
    assert packed.flat_edges() is not flat1
    after = backward_slice(ddg, 100)  # same DDG object follows the buffer
    assert 100 in after.seqs and 40 in after.seqs  # new edge is visible
    assert after.seqs == {100} | backward_slice(ddg, 40).seqs
    # Prior results are unaffected by the append.
    again = backward_slice(ddg, 99)
    assert (again.seqs, again.pcs) == (before.seqs, before.pcs)


def test_resident_bytes_is_deterministic_column_payload():
    packed = fill(make_records(1000))
    expected = sum(c.cap * ROW_PAYLOAD_BYTES for c in packed.live_chunks())
    assert packed.resident_bytes() == expected
    packed.release()
    assert packed.resident_bytes() == 0
    assert len(packed) == 0


def test_tracer_integration_matches_legacy_store():
    # The tracer's indexed DDG answers exactly what build_ddg + the BFS
    # slicer answer over the same stored records.
    _, tracer, _ = matmul(4).runner().run_traced()
    buf = tracer.buffer
    assert isinstance(buf, PackedTraceBuffer) and buf.chunk_count > 0
    ddg = tracer.dependence_graph()
    ref = build_ddg(buf.records, complete=buf.stats.evicted == 0)
    assert isinstance(ddg, PackedDDG) and ddg.indexable
    assert dict(ddg.node_items()) == {s: n.pc for s, n in ref.nodes.items()}
    for crit in (max(ref.nodes), min(ref.nodes), sorted(ref.nodes)[len(ref.nodes) // 2]):
        for slicer in (backward_slice, forward_slice):
            a, b = slicer(ddg, crit, DEFAULT_KINDS), slicer(ref, crit, DEFAULT_KINDS)
            assert (a.seqs, a.pcs, a.truncated) == (b.seqs, b.pcs, b.truncated)


# --- eviction-stats symmetry between the overflow entry points ---------------
def _overflow_buffer(entry_point):
    """Same over-capacity stream through ``append``, ``append_row``, or
    ``append_row`` under a lifted capacity followed by
    ``evict_overflow``; the BufferStats must come out identical."""
    capacity = 64
    buf = PackedTraceBuffer(capacity_bytes=capacity)
    for r in make_records(100):
        row = (KIND_CODES[r.kind], r.consumer_seq, r.consumer_pc,
               r.producer_seq, r.producer_pc, r.tid)
        if entry_point == "append":
            buf.append(r)
        elif entry_point == "append_row":
            buf.append_row(*row)
        else:
            buf.capacity_bytes = 1 << 30
            buf.append_row(*row)
            buf.capacity_bytes = capacity
            buf.evict_overflow()
    return buf


def test_eviction_stats_symmetric_across_entry_points():
    via_append = _overflow_buffer("append")
    _, stats = reference_window(make_records(100), 64)
    assert stats_tuple(via_append.stats) == stats_tuple(stats)
    assert via_append.stats.eviction_passes > 0
    for entry_point in ("append_row", "evict_overflow"):
        other = _overflow_buffer(entry_point)
        assert stats_tuple(other.stats) == stats_tuple(via_append.stats)
        assert [record_tuple(r) for r in other] == \
            [record_tuple(r) for r in via_append]


def test_capacity_below_one_record_drains_cleanly():
    # Every append evicts itself; the drained tail chunk must leave the
    # chunk list once a new chunk takes over, or eviction reads past it.
    records = make_records(3 * _MAX_CHUNK_ROWS)
    packed = fill(records, capacity=1)
    _, stats = reference_window(records, 1)
    assert stats_tuple(packed.stats) == stats_tuple(stats)
    assert len(packed) == 0 and packed.current_bytes == 0
    assert packed.chunk_count == 1
