"""Unit tests for ONTRAC's packed columnar dependence store.

The circular-buffer contract (oldest-first eviction by modeled bytes,
:class:`BufferStats` accounting including ``peak_bytes`` and the shared
``eviction_passes`` counter, window arithmetic) is checked against a
plain deque model of that contract; the packed-only invariants
(sentinel overflow round-trips, the typed rejection of out-of-order
rows, epoch-keyed cache invalidation, deterministic resident-byte
accounting) are checked directly, and every indexed query against the
dict oracle (``tests/ddg_oracle.py``) over the same records.
"""

import random
from collections import deque

import pytest

from repro.lake import open_spill
from repro.lake.format import SpillingPackedTraceBuffer
from repro.ontrac import (
    BufferStats,
    DepKind,
    DepRecord,
    PackedDDG,
    PackedTraceBuffer,
    ROW_PAYLOAD_BYTES,
    TraceOrderError,
)
from repro.ontrac.packed import _MAX_CHUNK_ROWS, _SEED_CHUNK_ROWS
from repro.ontrac.records import KIND_CODES
from repro.slicing import DEFAULT_KINDS, backward_slice, forward_slice
from repro.workloads.spec_like import matmul

from .ddg_oracle import OracleDDG


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
    # The decoded chunk and the walk read the same overflow values.
    (chunk,) = packed.live_chunks()
    starts, pseqs, ppcs = chunk.decoded()
    assert starts[2:4] == [2, 3]  # consumer 2 owns row 2 alone
    assert pseqs[2] == 50 and ppcs[2] == big_pc + 2
    sl = backward_slice(PackedDDG(packed), 2)
    assert (sl.seqs, sl.pcs) == ({2, 50}, {big_pc + 1, big_pc + 2})


def _unchanged_snapshot(buf):
    return len(buf), stats_tuple(buf.stats), buf.epoch, [record_tuple(r) for r in buf]


@pytest.mark.parametrize("entry_point", ["append", "append_row", "extend_rows"])
def test_out_of_order_append_raises_and_leaves_buffer_unchanged(entry_point):
    records = make_records(300)
    packed = fill([r for r in records if r.consumer_seq >= 100])
    before = _unchanged_snapshot(packed)
    old = records[:3]  # consumer seqs below the newest stored one
    rows = [(KIND_CODES[r.kind], r.consumer_seq, r.consumer_pc, r.producer_seq,
             r.producer_pc, r.tid) for r in old]
    with pytest.raises(TraceOrderError):
        if entry_point == "append":
            packed.append(old[0])
        elif entry_point == "append_row":
            packed.append_row(*rows[0])
        else:
            packed.extend_rows(*zip(*rows))
    assert _unchanged_snapshot(packed) == before
    # A batch in order up to a step backwards is refused whole.
    newest = packed.newest_seq
    step_back = [(rows[0][0], newest + 1, 0, -1, -1, 0),
                 (rows[0][0], newest + 2, 0, -1, -1, 0),
                 (rows[0][0], newest + 1, 0, -1, -1, 0)]
    with pytest.raises(TraceOrderError):
        packed.extend_rows(*zip(*step_back))
    assert _unchanged_snapshot(packed) == before
    # The store still answers queries, and accepts the next in-order row.
    assert backward_slice(PackedDDG(packed), 200).seqs == set(range(99, 201))
    packed.append_row(*step_back[1])
    assert packed.newest_seq == newest + 2


def test_epoch_invalidates_ddg_caches_and_chunk_decode():
    packed = fill(make_records(100))
    ddg = PackedDDG(packed)
    (chunk,) = packed.live_chunks()
    dec1 = chunk.decoded()
    assert chunk.decoded() is dec1  # cached while quiescent
    before = backward_slice(ddg, 99)
    assert ddg.last_instance_of_pc(7) == 7
    packed.append(DepRecord(DepKind.REG, 100, 7, producer_seq=40, producer_pc=40 % 97))
    assert chunk.dec is None and chunk.decoded() is not dec1
    assert ddg.last_instance_of_pc(7) == 100  # the per-epoch memo dropped
    after = backward_slice(ddg, 100)  # same DDG object follows the buffer
    assert 100 in after.seqs and 40 in after.seqs  # new edge is visible
    assert after.seqs == {100} | backward_slice(ddg, 40).seqs
    # Prior results are unaffected by the append.
    again = backward_slice(ddg, 99)
    assert (again.seqs, again.pcs) == (before.seqs, before.pcs)


# --- the column walk: chunk seams, mid-chunk heads, sentinels, mmap ---------
def _fanin_records(n, base=0, node_only_every=10, big_pc_every=0):
    """A tracer-shaped stream: an INSTR row per seq plus REG edges back
    1, 3 and 7 seqs, except every ``node_only_every``-th seq, which has
    only its node row.  With ``big_pc_every`` some seqs get a pc beyond
    the 16-bit column (stored as a sentinel; every row naming the seq
    agrees on it)."""
    def pc(s):
        if big_pc_every and s % big_pc_every == 0:
            return 0x10000 + s % 97
        return s % 97

    records = []
    for s in range(base, base + n):
        records.append(DepRecord(DepKind.INSTR, s, pc(s)))
        if s % node_only_every == 0:
            continue
        for d in (1, 3, 7):
            if s - d >= base:
                records.append(DepRecord(DepKind.REG, s, pc(s), s - d, pc(s - d)))
    return records


def assert_matches_reference(packed, crits=None):
    """Every column query equals the dict oracle over the same stored
    records: slices from a shared (memo-splicing) view and from a fresh
    view per criterion, last instances of every pc, and has_node/pc_of
    of every seq in and around the window."""
    ref = OracleDDG.of(packed)
    shared = PackedDDG(packed)
    nodes = sorted(ref.nodes)
    for crit in nodes if crits is None else crits:
        b = ref.backward_slice(crit, DEFAULT_KINDS)
        for ddg in (shared, PackedDDG(packed)):
            a = backward_slice(ddg, crit)
            assert (a.seqs, a.pcs, a.truncated) == b, crit
    ddg = PackedDDG(packed)
    for pc in {pc for pc, _ in ref.nodes.values()} | {-1, 0xFFFF, 12345}:
        assert ddg.last_instance_of_pc(pc) == ref.last_instance_of_pc(pc), pc
    for seq in {s + d for s in nodes for d in (-1, 0, 1)}:
        assert ddg.has_node(seq) == (seq in ref.nodes), seq
        if seq in ref.nodes:
            assert ddg.pc_of(seq) == ref.pc_of(seq), seq
    return ref


def test_consumer_rows_straddling_a_chunk_seam():
    packed = fill(_fanin_records(400))
    straddling = [seq for seq in range(400) if len(packed.consumer_spans(seq)) > 1]
    assert straddling  # a seed (256-row) chunk sealed mid-instruction
    for seq in straddling:
        (first, _, hi), (second, lo, _) = packed.consumer_spans(seq)
        assert hi == first.n and lo == 0 and second is not first
    ref = assert_matches_reference(packed)
    for seq in straddling:
        assert {p for p, _ in ref.backward[seq]} <= backward_slice(PackedDDG(packed), seq).seqs


@pytest.mark.parametrize("capacity", [2000, 5000, 9000])
def test_evicting_window_with_head_mid_chunk(capacity):
    packed = fill(_fanin_records(2000), capacity=capacity)
    oldest = packed.live_chunks()[0]
    assert 0 < oldest.head < oldest.n  # the window starts mid-chunk
    ref = assert_matches_reference(packed)
    # A reached node with only its INSTR row (or none at all: a producer
    # whose own rows were evicted) truncates the slice; the walk agrees.
    node_only = [s for s in ref.nodes if s % 10 == 0 and s not in ref.backward]
    assert node_only
    ddg = PackedDDG(packed)
    assert backward_slice(ddg, node_only[-1]).truncated
    assert backward_slice(ddg, node_only[-1] + 1).truncated
    assert not PackedDDG(fill(_fanin_records(60))).complete is False


def test_sentinel_rows_in_the_walk():
    base = 1 << 33
    records = _fanin_records(600, base=base, big_pc_every=5)
    # Producers more than 2**32 seqs back (a sentinel pdelta): nodes
    # that exist only as producers.
    for s in range(base + 50, base + 600, 50):
        records.append(DepRecord(DepKind.MEM, s, s % 97, s - (1 << 32) - 5, 0x20000 + s % 7))
    records.sort(key=lambda r: r.consumer_seq)
    packed = fill(records)
    over = [c.over for c in packed.live_chunks() if c.over]
    assert over and any(field == 1 for o in over for _, field in o)  # _F_PSEQ
    assert any(field == 2 for o in over for _, field in o)  # _F_PPC
    assert_matches_reference(packed, crits=range(base + 590, base + 600))
    far = base + 550 - (1 << 32) - 5
    ddg = PackedDDG(packed)
    assert ddg.has_node(far) and ddg.pc_of(far) == 0x20000 + (base + 550) % 7
    assert far in backward_slice(ddg, base + 599).seqs


def test_memoryview_backed_stored_chunks(tmp_path):
    path = str(tmp_path / "walk.rlk")
    buf = SpillingPackedTraceBuffer(6000, path)
    for r in _fanin_records(1500, big_pc_every=11):
        buf.append(r)
    buf.close()
    with open_spill(path) as stored:
        chunks = stored.buffer.live_chunks()
        assert len(chunks) > 1
        assert all(isinstance(c.cseq_off, memoryview) for c in chunks)
        assert 0 < chunks[0].head < chunks[0].n
        assert_matches_reference(stored.buffer)
        live = PackedDDG(buf)
        ddg = stored.ddg()
        for crit in (stored.buffer.newest_seq, stored.buffer.oldest_seq + 40):
            a, b = backward_slice(ddg, crit), backward_slice(live, crit)
            assert (a.seqs, a.pcs, a.truncated) == (b.seqs, b.pcs, b.truncated)


def test_walk_switches_chunks_both_ways():
    records = make_records(1200)  # a chain: every seq depends on seq - 1
    # The newest seq also reads two old seqs; the walk pops them (and
    # their chains) before returning to its own chunk's chain.
    newest = 1200
    records.append(DepRecord(DepKind.INSTR, newest, 5))
    for producer in (600, 100):
        records.append(DepRecord(DepKind.REG, newest, 5, producer, producer % 97))
    records.append(DepRecord(DepKind.REG, newest, 5, newest - 1, (newest - 1) % 97))
    packed = fill(records)
    chunks = packed.live_chunks()
    assert len(chunks) >= 3
    ddg = PackedDDG(packed)
    # A criterion in the oldest chunk decodes that chunk alone.
    backward_slice(ddg, 50)
    assert chunks[0].dec is not None
    assert all(c.dec is None for c in chunks[1:])
    assert_matches_reference(packed, crits=[newest, 700, 50])
    assert all(c.dec is not None for c in chunks)


def test_last_instance_across_chunks_with_producer_only_nodes():
    rare_x, rare_y = 999, 998

    def pc(seq):
        return {120: rare_x, 100: rare_x, 50: rare_y, 650: rare_y}.get(seq, 1 + seq % 50)

    records = []
    for seq in range(720):
        if seq in (100, 650):
            continue  # producer-only nodes: named by later rows only
        records.append(DepRecord(DepKind.INSTR, seq, pc(seq)))
        producer = {700: 100, 660: 650}.get(seq, seq - 1)
        if producer in (-1, 100, 650) and seq not in (700, 660):
            continue  # only 700 and 660 name the producer-only nodes
        records.append(DepRecord(DepKind.REG, seq, pc(seq), producer, pc(producer)))
    packed = fill(records)
    chunks = packed.live_chunks()
    assert len(chunks) == 3 and chunks[0].cseq_at(chunks[0].n - 1) < 650
    ddg = PackedDDG(packed)
    # The newest chunk only names 100 as a producer; the older consumer
    # 120 at the same pc is newer still.
    assert ddg.last_instance_of_pc(rare_x) == 120
    # 650 beats the oldest chunk's consumer 50, which the scan skips.
    assert ddg.last_instance_of_pc(rare_y) == 650
    assert ddg.has_node(100) and ddg.pc_of(100) == rare_x
    assert not ddg.has_node(719 + 1)
    assert_matches_reference(packed)


def test_resident_bytes_is_deterministic_column_payload():
    packed = fill(make_records(1000))
    expected = sum(c.cap * ROW_PAYLOAD_BYTES for c in packed.live_chunks())
    assert packed.resident_bytes() == expected
    packed.release()
    assert packed.resident_bytes() == 0
    assert len(packed) == 0


def test_tracer_integration_matches_legacy_store():
    # The tracer's indexed DDG answers exactly what the dict oracle
    # answers over the same stored records.
    _, tracer, _ = matmul(4).runner().run_traced()
    buf = tracer.buffer
    assert isinstance(buf, PackedTraceBuffer) and buf.chunk_count > 0
    ddg = tracer.dependence_graph()
    ref = OracleDDG.of(buf)
    assert isinstance(ddg, PackedDDG)
    assert list(ddg.node_items()) == list(ref.node_items())
    assert all(ddg.tid_of(s) == tid for s, (_, tid) in ref.nodes.items())
    for crit in (max(ref.nodes), min(ref.nodes), sorted(ref.nodes)[len(ref.nodes) // 2]):
        a = backward_slice(ddg, crit, DEFAULT_KINDS)
        assert (a.seqs, a.pcs, a.truncated) == ref.backward_slice(crit, DEFAULT_KINDS)
        a = forward_slice(ddg, crit, DEFAULT_KINDS)
        assert (a.seqs, a.pcs, a.truncated) == ref.forward_slice(crit, DEFAULT_KINDS)


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


# --- bulk extend_rows == one append_row per row -------------------------------
_NODE_CODES = (KIND_CODES[DepKind.INSTR], KIND_CODES[DepKind.BRANCH])
_EDGE_CODES = tuple(c for c in range(len(KIND_CODES)) if c not in _NODE_CODES)


def _odd_row(rng, seq):
    """One row holding a value outside its column, or a node row with
    junk producer fields (which the store ignores)."""
    code = rng.choice(_EDGE_CODES)
    pc, pseq, ppc, tid = rng.randrange(200), seq - rng.randrange(50), rng.randrange(200), 0
    case = rng.randrange(8)
    if case == 0:
        pc = rng.choice((0xFFFF, 0xFFFF + 1, 1 << 20, -1))
    elif case == 1:
        ppc = rng.choice((0xFFFF, 1 << 18, -3))
    elif case == 2:
        tid = rng.choice((0xFFFF, 1 << 17))
    elif case == 3:
        pseq = seq - rng.choice(((1 << 32) + 5, 0xFFFFFFFF))  # delta > 2**32
    elif case == 4:
        pseq = seq + rng.randrange(1, 9)  # producer after consumer
    else:
        code = rng.choice(_NODE_CODES)
        pseq, ppc = rng.choice(((-1, -1), (seq + 3, 0xFFFF), (-(1 << 40), 7)))
    return (code, seq, pc, pseq, ppc, tid)


def _row_stream(rng, batches, non_monotone):
    """Random batches of ``append_row`` argument tuples.  Most batches
    are clean (the bulk path); some carry one out-of-column value; with
    ``non_monotone`` one batch of two rows or more steps a consumer seq
    below its predecessor's."""
    seq = rng.randrange(1 << 34) if rng.random() < 0.2 else rng.randrange(100)
    stream = []
    for b in range(batches):
        rows = []
        for _ in range(rng.choice((0, 1, 5, 40, 300, 1500, 5000))):
            seq += rng.choice((0, 0, 1, 1, 2, 9))
            if rng.random() < 0.3:
                code = rng.choice(_NODE_CODES)
                rows.append((code, seq, rng.randrange(300), -1, -1, rng.randrange(3)))
            else:
                rows.append((rng.choice(_EDGE_CODES), seq, rng.randrange(300),
                             seq - rng.randrange(60), rng.randrange(300),
                             rng.randrange(3)))
        if rows and rng.random() < 0.3:
            i = rng.randrange(len(rows))
            rows[i] = _odd_row(rng, rows[i][1])
        stream.append(rows)
    if non_monotone:
        rows = rng.choice([rows for rows in stream if len(rows) > 1])
        i = rng.randrange(1, len(rows))
        code, s, pc, pseq, ppc, tid = rows[i]
        # Seqs rise by at most 9 per row, so this is below rows[i - 1].
        rows[i] = (code, s - 10, pc, pseq - 10, ppc, tid)
    return stream


def _feed(bulk, rowwise, rows):
    """One batch into both stores: ``extend_rows`` on one, an
    ``append_row`` per row on the other; returns whether it was refused.
    A batch that steps a consumer seq backwards raises TraceOrderError
    from ``extend_rows`` before the bulk store changes at all, and from
    ``append_row`` on the offending row before the row-wise store takes
    it; the bulk store then takes the in-order prefix the row-wise store
    already holds, so the two stay comparable."""
    if not rows:
        assert bulk.extend_rows((), (), (), (), (), ()) == 0
        return False
    seqs = [rowwise._last_cseq] + [row[1] for row in rows]
    bad = next((i for i in range(len(rows)) if seqs[i + 1] < seqs[i]), None)
    if bad is None:
        assert bulk.extend_rows(*zip(*rows)) == sum(rowwise.append_row(*row) for row in rows)
        return False
    before = _store_state(bulk)
    with pytest.raises(TraceOrderError):
        bulk.extend_rows(*zip(*rows))
    assert _store_state(bulk) == before
    for row in rows[:bad]:
        rowwise.append_row(*row)
    before = _store_state(rowwise)
    with pytest.raises(TraceOrderError):
        rowwise.append_row(*rows[bad])
    assert _store_state(rowwise) == before
    if bad:
        bulk.extend_rows(*zip(*rows[:bad]))
    return True


def _store_state(buf):
    chunks = [
        (c.cap, c.cseq_base, c.n, c.head, c.over,
         c.kind.tobytes(), c.cseq_off.tobytes(), c.cpc.tobytes(),
         c.pdelta.tobytes(), c.ppc.tobytes(), c.tid.tobytes())
        for c in buf._chunks
    ]
    return (chunks, list(buf._firsts), buf.epoch, stats_tuple(buf.stats),
            buf.current_bytes, buf._last_cseq, len(buf),
            len(buf._pool), [record_tuple(r) for r in buf])


@pytest.mark.parametrize("capacity", [1, 700, 1 << 40],
                         ids=["below-one-row", "overflows-mid-batch", "never-overflows"])
@pytest.mark.parametrize("seed", range(12))
def test_extend_rows_matches_append_row(seed, capacity):
    rng = random.Random(seed * 7919 + capacity)
    non_monotone = seed % 3 == 0
    stream = _row_stream(rng, batches=8, non_monotone=non_monotone)
    bulk = PackedTraceBuffer(capacity_bytes=capacity)
    rowwise = PackedTraceBuffer(capacity_bytes=capacity)
    refused = 0
    for rows in stream:
        refused += _feed(bulk, rowwise, rows)
        assert _store_state(bulk) == _store_state(rowwise)
    assert refused == non_monotone
    if capacity == 1 << 40:
        assert bulk.stats.evicted == 0
    else:
        assert bulk.stats.eviction_passes > 0


@pytest.mark.parametrize("capacity", [1, 700, 1 << 40],
                         ids=["below-one-row", "overflows-mid-batch", "never-overflows"])
@pytest.mark.parametrize("seed", range(4))
def test_extend_rows_spills_identical_files(tmp_path, seed, capacity):
    rng = random.Random(seed)
    stream = _row_stream(rng, batches=6, non_monotone=seed == 3)
    paths = [str(tmp_path / "bulk.rlk"), str(tmp_path / "rowwise.rlk")]
    bulk, rowwise = (SpillingPackedTraceBuffer(capacity, p) for p in paths)
    refused = 0
    for rows in stream:
        refused += _feed(bulk, rowwise, rows)
        assert _store_state(bulk) == _store_state(rowwise)
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()  # the same chunks sealed and spilled
    assert refused == (seed == 3)
    bulk.close()
    rowwise.close()
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()
