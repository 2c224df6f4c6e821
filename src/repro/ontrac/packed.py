"""ONTRAC's dependence store: a fixed-size circular buffer of packed
columns.

ONTRAC "make[s] the design decision of not outputting the dependences
to a file, instead storing them in memory in a specially allocated
fixed size circular buffer".  The buffer's byte capacity therefore
bounds the *execution history window*: a fault is debuggable with
dynamic slicing only if it is exercised within the window — which is
why the optimizations that shrink bytes/instruction directly grow the
reachable history (E3).  Eviction is oldest-first by modeled record
bytes (see :mod:`repro.ontrac.records`).

The window is stored as fixed-width **columns** rather than one Python
object per dependence: per row one kind byte, a 32-bit consumer-seq
offset against the chunk base, 16-bit consumer/producer pcs (static
instruction indices), a 32-bit producer-seq delta and a 16-bit tid —
15 bytes of column payload per row, appended into a ring of
preallocated chunk arrays that eviction recycles.  Real resident bytes
per instruction land within a small factor of the modeled figure.

Two structures make the packed stream *queryable* without ever
materializing record objects:

* the consumer index is intrinsic — the tracer emits rows in
  consumer-seq order, so the sorted consumer column is maintained
  incrementally at append time and one ``bisect`` finds all rows of a
  dynamic instruction;
* the per-chunk **reverse index** (producer seq -> rows) is built on
  first forward-direction access and cached on the chunk (appends and
  evictions invalidate it), as two parallel sorted arrays — 12 bytes
  per edge row, only for chunks that forward queries actually touch.

:class:`PackedDDG` is the dependence-graph view over the packed
buffer: O(1) to construct, serves the hot queries straight off the
columns, and lazily materializes the exact
:class:`~repro.ontrac.ddg.DynamicDependenceGraph` (via ``build_ddg``
over the buffer's records) for consumers that walk the raw
``nodes``/``backward`` dicts.  The indexed slicing engine walking
these columns lives in :mod:`repro.slicing.engine`.

Values that do not fit their column (a pathological pc, a >4G-seq
delta, a tid >= 0xFFFF) are stored as a sentinel plus a per-chunk
side-dict entry, so the store accepts every :class:`DepRecord`.
Out-of-order consumer seqs (possible only through direct ``append``
calls, never from the tracer) clear :attr:`monotone` and the query
layer falls back to the materialized graph.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator

from .ddg import DynamicDependenceGraph, build_ddg
from .records import (
    KIND_BY_CODE,
    KIND_CODES,
    KIND_MBYTES,
    DepKind,
    DepRecord,
)

#: chunk capacities double from the seed so tiny traces do not pay for
#: a full chunk; recycled (ring) chunks are always max-size.
_SEED_CHUNK_ROWS = 256
_MAX_CHUNK_ROWS = 4096
#: retired max-size chunks kept for reuse (the "preallocated ring").
_POOL_CAP = 8

_SENT32 = 0xFFFFFFFF
_MAX32 = 0xFFFFFFFE
_SENT16 = 0xFFFF

#: column payload bytes per row: kind B + cseq_off I + cpc H + pdelta I
#: + ppc H + tid H.
ROW_PAYLOAD_BYTES = 1 + 4 + 2 + 4 + 2 + 2

_C_INSTR = KIND_CODES[DepKind.INSTR]
_C_BRANCH = KIND_CODES[DepKind.BRANCH]

# side-dict field tags for out-of-range values.
_F_CPC = 0
_F_PSEQ = 1
_F_PPC = 2
_F_TID = 3


@dataclass
class BufferStats:
    appended: int = 0
    appended_bytes: int = 0
    evicted: int = 0
    evicted_bytes: int = 0
    #: occupancy high-water mark in modeled bytes.
    peak_bytes: int = 0
    #: overflow passes that evicted at least one record.  Both eviction
    #: entry points (:meth:`PackedTraceBuffer.append_row`'s inline check
    #: and :meth:`PackedTraceBuffer.evict_overflow`) route through the
    #: same helper, so the counter — like ``evicted`` and
    #: ``evicted_bytes`` — cannot drift between the two paths.
    eviction_passes: int = 0


class _Chunk:
    """One fixed-capacity block of column arrays."""

    __slots__ = (
        "cap", "cseq_base", "kind", "cseq_off", "cpc", "pdelta", "ppc",
        "tid", "n", "head", "over", "rindex",
    )

    def __init__(self, cseq_base: int, cap: int):
        self.cap = cap
        self.cseq_base = cseq_base
        self.kind = array("B", bytes(cap))
        self.cseq_off = array("I", bytes(4 * cap))
        self.cpc = array("H", bytes(2 * cap))
        self.pdelta = array("I", bytes(4 * cap))
        self.ppc = array("H", bytes(2 * cap))
        self.tid = array("H", bytes(2 * cap))
        self.n = 0  # rows written
        self.head = 0  # rows evicted from the front
        self.over: dict[tuple[int, int], int] | None = None
        #: cached reverse index: (sorted producer seqs 'q', rows 'I').
        self.rindex: tuple[array, array] | None = None

    def overflow(self) -> dict[tuple[int, int], int]:
        over = self.over
        if over is None:
            over = self.over = {}
        return over

    # -- row decoding --------------------------------------------------------
    def cseq_at(self, r: int) -> int:
        return self.cseq_base + self.cseq_off[r]

    def cpc_at(self, r: int) -> int:
        v = self.cpc[r]
        return self.over[(r, _F_CPC)] if v == _SENT16 else v

    def pseq_at(self, r: int) -> int:
        code = self.kind[r]
        if code == _C_INSTR or code == _C_BRANCH:
            return -1
        d = self.pdelta[r]
        if d == _SENT32:
            return self.over[(r, _F_PSEQ)]
        return self.cseq_base + self.cseq_off[r] - d

    def ppc_at(self, r: int) -> int:
        if self.kind[r] == _C_INSTR or self.kind[r] == _C_BRANCH:
            return -1
        v = self.ppc[r]
        return self.over[(r, _F_PPC)] if v == _SENT16 else v

    def tid_at(self, r: int) -> int:
        v = self.tid[r]
        return self.over[(r, _F_TID)] if v == _SENT16 else v

    def record_at(self, r: int) -> "PackedRecord":
        code = self.kind[r]
        cseq = self.cseq_base + self.cseq_off[r]
        cpc = self.cpc[r]
        if cpc == _SENT16:
            cpc = self.over[(r, _F_CPC)]
        if code == _C_INSTR or code == _C_BRANCH:
            pseq = ppc = -1
        else:
            d = self.pdelta[r]
            pseq = self.over[(r, _F_PSEQ)] if d == _SENT32 else cseq - d
            ppc = self.ppc[r]
            if ppc == _SENT16:
                ppc = self.over[(r, _F_PPC)]
        tid = self.tid[r]
        if tid == _SENT16:
            tid = self.over[(r, _F_TID)]
        return PackedRecord(KIND_BY_CODE[code], cseq, cpc, pseq, ppc, tid, KIND_MBYTES[code])

    def reverse_index(self) -> tuple[array, array]:
        """Producer-seq -> row index, cached until the chunk mutates."""
        rindex = self.rindex
        if rindex is None:
            pairs = []
            kind = self.kind
            offs = self.cseq_off
            pdelta = self.pdelta
            base = self.cseq_base
            over = self.over
            for r in range(self.head, self.n):
                code = kind[r]
                if code == _C_INSTR or code == _C_BRANCH:
                    continue
                d = pdelta[r]
                p = over[(r, _F_PSEQ)] if d == _SENT32 else base + offs[r] - d
                pairs.append((p, r))
            pairs.sort()
            rindex = self.rindex = (
                array("q", (p for p, _ in pairs)),
                array("I", (r for _, r in pairs)),
            )
        return rindex


class PackedRecord:
    """One row materialized with the :class:`DepRecord` attribute API."""

    __slots__ = (
        "kind", "consumer_seq", "consumer_pc", "producer_seq",
        "producer_pc", "tid", "bytes",
    )

    def __init__(self, kind, consumer_seq, consumer_pc, producer_seq,
                 producer_pc, tid, bytes_):
        self.kind = kind
        self.consumer_seq = consumer_seq
        self.consumer_pc = consumer_pc
        self.producer_seq = producer_seq
        self.producer_pc = producer_pc
        self.tid = tid
        self.bytes = bytes_

    def __str__(self) -> str:
        if self.kind in (DepKind.INSTR, DepKind.BRANCH):
            return f"{self.kind.value}@{self.consumer_seq}(pc={self.consumer_pc})"
        return (
            f"{self.kind.value}: {self.consumer_seq}(pc={self.consumer_pc})"
            f" -> {self.producer_seq}(pc={self.producer_pc})"
        )


class _PackedRecordsView:
    """Sequence-like view over the live rows, yielding PackedRecords."""

    __slots__ = ("_buf",)

    def __init__(self, buf: "PackedTraceBuffer"):
        self._buf = buf

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self) -> Iterator[PackedRecord]:
        return iter(self._buf)

    def __getitem__(self, index: int) -> PackedRecord:
        buf = self._buf
        if index < 0:
            index += len(buf)
        if index < 0:
            raise IndexError("record index out of range")
        for c in buf._chunks:
            live = c.n - c.head
            if index < live:
                return c.record_at(c.head + index)
            index -= live
        raise IndexError("record index out of range")


class PackedTraceBuffer:
    """The fixed-size circular dependence buffer, over packed columns.

    Capacity is in modeled record bytes and eviction is oldest-first;
    :class:`BufferStats` accounts every append and eviction.  The
    :attr:`records` view reconstructs DepRecord-compatible rows; the
    indexed slicing engine uses :meth:`append_row`,
    :meth:`consumer_spans` and the chunk reverse indexes.
    """

    def __init__(self, capacity_bytes: int = 16 * 1024 * 1024):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.current_bytes = 0
        self.stats = BufferStats()
        self._chunks: list[_Chunk] = []
        #: first live consumer seq per chunk (kept sorted; stale for a
        #: fully drained tail, which lookups skip via head==n).
        self._firsts: list[int] = []
        self._pool: list[_Chunk] = []
        self._tail: _Chunk | None = None
        self._rows = 0
        self._next_cap = _SEED_CHUNK_ROWS
        self._last_cseq = -(1 << 62)
        #: epoch-keyed flat edge view shared by every PackedDDG.
        self._flat: tuple = (None, None)
        #: False once a consumer seq arrived out of order (direct
        #: appends only); the query layer then uses the materialized
        #: graph instead of the column indexes.
        self.monotone = True

    # -- append paths --------------------------------------------------------
    def append_row(self, code: int, cseq: int, cpc: int,
                   pseq: int = -1, ppc: int = -1, tid: int = 0) -> int:
        """Append one packed row; returns its modeled byte size."""
        c = self._tail
        if c is None or c.n == c.cap:
            c = self._grow(cseq)
        off = cseq - c.cseq_base
        if off < 0 or off > _MAX32:
            c = self._grow(cseq)
            off = 0
        if cseq < self._last_cseq:
            self.monotone = False
        else:
            self._last_cseq = cseq
        n = c.n
        c.cseq_off[n] = off
        c.kind[n] = code
        if 0 <= cpc < _SENT16:
            c.cpc[n] = cpc
        else:
            c.cpc[n] = _SENT16
            c.overflow()[(n, _F_CPC)] = cpc
        if code == _C_INSTR or code == _C_BRANCH:
            c.pdelta[n] = 0
            c.ppc[n] = 0
        else:
            d = cseq - pseq
            if 0 <= d < _SENT32:
                c.pdelta[n] = d
            else:
                c.pdelta[n] = _SENT32
                c.overflow()[(n, _F_PSEQ)] = pseq
            if 0 <= ppc < _SENT16:
                c.ppc[n] = ppc
            else:
                c.ppc[n] = _SENT16
                c.overflow()[(n, _F_PPC)] = ppc
        if 0 <= tid < _SENT16:
            c.tid[n] = tid
        else:
            c.tid[n] = _SENT16
            c.overflow()[(n, _F_TID)] = tid
        if c.head == n:  # first live row of this chunk
            self._firsts[-1] = cseq
        c.n = n + 1
        c.rindex = None
        self._rows += 1
        b = KIND_MBYTES[code]
        stats = self.stats
        stats.appended += 1
        stats.appended_bytes += b
        if b:
            cur = self.current_bytes + b
            if cur > stats.peak_bytes:
                stats.peak_bytes = cur
            if cur > self.capacity_bytes:
                cur = self._evict_from(cur)
            self.current_bytes = cur
        return b

    def append(self, record: DepRecord) -> None:
        """Record-object append for direct (non-tracer) callers."""
        self.append_row(
            KIND_CODES[record.kind],
            record.consumer_seq,
            record.consumer_pc,
            record.producer_seq,
            record.producer_pc,
            record.tid,
        )

    def evict_overflow(self) -> None:
        """Evict oldest-first until occupancy fits the capacity again
        (after a caller lowered :attr:`capacity_bytes`)."""
        self.current_bytes = self._evict_from(self.current_bytes)

    def _grow(self, cseq: int) -> _Chunk:
        tail = self._tail
        if tail is not None and tail.head == tail.n:
            # Eviction keeps a fully drained chunk listed only while it
            # is the tail (a capacity below one record's size drains
            # it); once a new tail takes over it must go.
            self._chunks.pop()
            self._firsts.pop()
            self._retire(tail)
        pool = self._pool
        if pool:
            c = pool.pop()
            c.cseq_base = cseq
        else:
            cap = self._next_cap
            self._next_cap = min(cap * 4, _MAX_CHUNK_ROWS)
            c = _Chunk(cseq, cap)
        self._chunks.append(c)
        self._firsts.append(cseq)
        self._tail = c
        return c

    def _retire(self, c: _Chunk) -> None:
        if c.cap == _MAX_CHUNK_ROWS and len(self._pool) < _POOL_CAP:
            c.n = 0
            c.head = 0
            c.over = None
            c.rindex = None
            self._pool.append(c)

    def _evict_from(self, cur: int) -> int:
        """Oldest-first eviction loop shared by both overflow paths, so
        ``evicted`` / ``evicted_bytes`` / ``eviction_passes`` are
        accounted identically no matter which entry point ran."""
        stats = self.stats
        chunks = self._chunks
        firsts = self._firsts
        cap = self.capacity_bytes
        mbytes = KIND_MBYTES
        evicted = False
        while cur > cap and self._rows:
            c = chunks[0]
            h = c.head
            b = mbytes[c.kind[h]]
            h += 1
            c.head = h
            c.rindex = None
            self._rows -= 1
            cur -= b
            stats.evicted += 1
            stats.evicted_bytes += b
            evicted = True
            if h == c.n:
                if c is not self._tail:
                    chunks.pop(0)
                    firsts.pop(0)
                    self._retire(c)
                else:
                    firsts[0] = c.cseq_base + c.cseq_off[h - 1]
            else:
                firsts[0] = c.cseq_base + c.cseq_off[h]
        if evicted:
            stats.eviction_passes += 1
        return cur

    # -- container API -------------------------------------------------------
    def __len__(self) -> int:
        return self._rows

    def __iter__(self) -> Iterator[PackedRecord]:
        for c in self._chunks:
            record_at = c.record_at
            for r in range(c.head, c.n):
                yield record_at(r)

    @property
    def records(self) -> _PackedRecordsView:
        return _PackedRecordsView(self)

    @property
    def oldest_seq(self) -> int:
        return self._firsts[0] if self._rows else -1

    @property
    def newest_seq(self) -> int:
        if not self._rows:
            return -1
        c = self._tail
        return c.cseq_base + c.cseq_off[c.n - 1]

    def window_instructions(self) -> int:
        if not self._rows:
            return 0
        return self.newest_seq - self.oldest_seq + 1

    def covers_seq(self, seq: int) -> bool:
        return bool(self._rows) and self.oldest_seq <= seq <= self.newest_seq

    # -- packed-only API -----------------------------------------------------
    @property
    def epoch(self) -> tuple[int, int]:
        """Mutation stamp ((appended, evicted)); query-layer caches and
        the slice memo are valid only while it is unchanged."""
        stats = self.stats
        return (stats.appended, stats.evicted)

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    def resident_bytes(self) -> int:
        """Allocated column payload bytes (live chunks + recycling
        pool + cached reverse indexes).  Deterministic by construction —
        the benchmark measures true process residency with tracemalloc
        separately."""
        total = 0
        for c in self._chunks:
            total += c.cap * ROW_PAYLOAD_BYTES
            if c.rindex is not None:
                total += len(c.rindex[0]) * 12
        total += len(self._pool) * _MAX_CHUNK_ROWS * ROW_PAYLOAD_BYTES
        return total

    def release(self) -> None:
        """Drop every chunk (including the recycling pool); used by the
        residency benchmark to measure the store's true footprint."""
        self._chunks.clear()
        self._firsts.clear()
        self._pool.clear()
        self._tail = None
        self._rows = 0
        self._flat = (None, None)
        self.current_bytes = 0

    def consumer_spans(self, seq: int) -> list[tuple[_Chunk, int, int]]:
        """Row ranges holding consumer ``seq``: ``[(chunk, lo, hi)]``.

        Valid only while :attr:`monotone`; rows of one consumer are
        contiguous but may span a chunk boundary.
        """
        firsts = self._firsts
        i = bisect_right(firsts, seq) - 1
        if i < 0:
            return []
        chunks = self._chunks
        spans = []
        c = chunks[i]
        off = seq - c.cseq_base
        if 0 <= off <= _MAX32:
            offs = c.cseq_off
            lo = bisect_left(offs, off, c.head, c.n)
            hi = bisect_right(offs, off, lo, c.n)
            if hi > lo:
                spans.append((c, lo, hi))
        # Rows may continue backward into earlier chunks that *end* with
        # this seq (a chunk sealed mid-instruction).
        j = i
        while j > 0 and firsts[j] == seq:
            p = chunks[j - 1]
            off = seq - p.cseq_base
            if not (0 <= off <= _MAX32) or p.n == p.head:
                break
            if p.cseq_off[p.n - 1] != off:
                break
            lo = bisect_left(p.cseq_off, off, p.head, p.n)
            spans.insert(0, (p, lo, p.n))
            j -= 1
        return spans

    def live_chunks(self) -> list[_Chunk]:
        return [c for c in self._chunks if c.head < c.n]

    def flat_edges(self) -> tuple[dict, bytes, list, list]:
        """Flat decoded *edge-only* view of the live rows for the
        backward walk: ``(ranges, kinds, pseqs, ppcs)``.

        Node rows (INSTR/BRANCH) are dropped at build time: ``ranges``
        maps a consumer seq to the contiguous ``(lo, hi)`` span of its
        *edge* rows (valid while :attr:`monotone` — rows of one
        consumer are adjacent, and filtering preserves contiguity), so
        a seq absent from ``ranges`` is exactly a node with no stored
        dependence rows — the BFS slicer's truncation condition.
        ``kinds`` is the edge kind-code bytes and ``pseqs``/``ppcs``
        the fully decoded producer seq/pc per edge row, so the slicing
        inner loop is one dict hit plus plain list reads per node and
        never touches a node row.  The view is built once per mutation
        :attr:`epoch` and cached on the buffer, so every
        :class:`PackedDDG` over a quiescent store — and every query
        under it — shares the same index instead of rebuilding an
        object graph per ``dependence_graph()`` call.
        """
        ep = self.epoch
        cached_ep, flat = self._flat
        if cached_ep == ep:
            return flat
        ranges: dict[int, tuple[int, int]] = {}
        kinds = bytearray()
        pseqs: list[int] = []
        ppcs: list[int] = []
        ap_k = kinds.append
        ap_p = pseqs.append
        ap_pc = ppcs.append
        prev = None
        start = 0
        for c in self._chunks:
            h, n = c.head, c.n
            if h >= n:
                continue
            offs = c.cseq_off
            kindcol = c.kind
            pdelta = c.pdelta
            ppccol = c.ppc
            base = c.cseq_base
            over = c.over
            for r in range(h, n):
                cseq = base + offs[r]
                if cseq != prev:
                    if prev is not None and len(pseqs) > start:
                        ranges[prev] = (start, len(pseqs))
                    prev = cseq
                    start = len(pseqs)
                code = kindcol[r]
                if code == _C_INSTR or code == _C_BRANCH:
                    continue
                ap_k(code)
                d = pdelta[r]
                ap_p(over[(r, _F_PSEQ)] if d == _SENT32 else cseq - d)
                v = ppccol[r]
                ap_pc(over[(r, _F_PPC)] if v == _SENT16 else v)
        if prev is not None and len(pseqs) > start:
            ranges[prev] = (start, len(pseqs))
        flat = (ranges, bytes(kinds), pseqs, ppcs)
        self._flat = (ep, flat)
        return flat


@dataclass
class SliceQueryStats:
    """Introspection counters for the indexed slicing engine."""

    queries: int = 0
    memo_hits: int = 0
    rows_scanned: int = 0


#: closure fragments kept per PackedDDG (LRU).
MEMO_CAP = 1024


class PackedDDG:
    """Dependence-graph view over a :class:`PackedTraceBuffer`.

    Construction is O(1).  The hot queries (``pc_of``, instance
    lookups, producer/consumer lists, the slicing closures in
    :mod:`repro.slicing.engine`) run straight off the packed columns;
    ``nodes``/``backward``/``forward`` lazily materialize the exact
    materialized graph via :func:`build_ddg` for consumers that walk the
    raw dicts.  Unlike that graph (a snapshot), this view follows the
    live buffer: mutating the buffer bumps its epoch, which drops every
    cache and the slice memo on the next query.
    """

    def __init__(self, buffer: PackedTraceBuffer):
        self.buffer = buffer
        self.complete = buffer.stats.evicted == 0
        self._epoch = buffer.epoch
        self._mat: DynamicDependenceGraph | None = None
        self._node_pc: dict[int, int] | None = None
        self._node_tid: dict[int, int] | None = None
        self._pc_index: dict[int, list[int]] | None = None
        #: (is_forward, seq, kinds) -> (frozenset seqs, frozenset pcs, truncated)
        self.memo: OrderedDict = OrderedDict()
        self.query_stats = SliceQueryStats()

    # -- cache discipline ----------------------------------------------------
    def check_epoch(self) -> None:
        epoch = self.buffer.epoch
        if epoch != self._epoch:
            self._epoch = epoch
            self.complete = self.buffer.stats.evicted == 0
            self._mat = None
            self._node_pc = None
            self._node_tid = None
            self._pc_index = None
            self.memo.clear()

    @property
    def indexable(self) -> bool:
        """Columns usable for bisect-based queries (consumer seqs arrived
        in order — always true for tracer-produced streams)."""
        return self.buffer.monotone

    # -- materialized-dict compatibility ---------------------------------------
    def _materialized(self) -> DynamicDependenceGraph:
        self.check_epoch()
        mat = self._mat
        if mat is None:
            mat = self._mat = build_ddg(self.buffer, complete=self.complete)
        return mat

    @property
    def nodes(self):
        return self._materialized().nodes

    @property
    def backward(self):
        return self._materialized().backward

    @property
    def forward(self):
        return self._materialized().forward

    # -- node table (exact materialized node set/pcs/tids, no edges) ---------
    def _node_tables(self) -> tuple[dict[int, int], dict[int, int]]:
        self.check_epoch()
        node_pc = self._node_pc
        if node_pc is None:
            node_pc = {}
            node_tid = {}
            for c in self.buffer._chunks:
                kind = c.kind
                offs = c.cseq_off
                cpcs = c.cpc
                pdelta = c.pdelta
                ppcs = c.ppc
                tids = c.tid
                base = c.cseq_base
                over = c.over
                for r in range(c.head, c.n):
                    cseq = base + offs[r]
                    if cseq not in node_pc:
                        v = cpcs[r]
                        node_pc[cseq] = over[(r, _F_CPC)] if v == _SENT16 else v
                        t = tids[r]
                        node_tid[cseq] = over[(r, _F_TID)] if t == _SENT16 else t
                    code = kind[r]
                    if code != _C_INSTR and code != _C_BRANCH:
                        d = pdelta[r]
                        p = over[(r, _F_PSEQ)] if d == _SENT32 else cseq - d
                        if p not in node_pc:
                            v = ppcs[r]
                            node_pc[p] = over[(r, _F_PPC)] if v == _SENT16 else v
                            t = tids[r]
                            node_tid[p] = over[(r, _F_TID)] if t == _SENT16 else t
            self._node_pc = node_pc
            self._node_tid = node_tid
        return self._node_pc, self._node_tid

    def _producer_row(self, seq: int):
        """First live row whose producer is ``seq`` (chunk, row), or
        None — resolves producer-only nodes without building tables."""
        for c in self.buffer.live_chunks():
            pseqs, rows = c.reverse_index()
            if not pseqs or pseqs[0] > seq or pseqs[-1] < seq:
                continue
            i = bisect_left(pseqs, seq)
            if i < len(pseqs) and pseqs[i] == seq:
                return c, rows[i]
        return None

    def has_node(self, seq: int) -> bool:
        self.check_epoch()
        if self._node_pc is None and self.buffer.monotone:
            # The materialized node set is exactly (consumer seqs | producer
            # seqs); both sides are answerable from the column indexes.
            if self.buffer.consumer_spans(seq):
                return True
            return self._producer_row(seq) is not None
        return seq in self._node_tables()[0]

    def pc_of(self, seq: int) -> int:
        self.check_epoch()
        if self._node_pc is None and self.buffer.monotone:
            spans = self.buffer.consumer_spans(seq)
            if spans:
                c, lo, _ = spans[0]
                return c.cpc_at(lo)
            hit = self._producer_row(seq)
            if hit is not None:
                c, r = hit
                return c.ppc_at(r)
        return self._node_tables()[0][seq]

    def tid_of(self, seq: int) -> int:
        return self._node_tables()[1][seq]

    def node_items(self) -> Iterable[tuple[int, int]]:
        """(seq, pc) pairs in materialized node-insertion order."""
        return self._node_tables()[0].items()

    def seqs_of_pcs(self, pcs) -> list[int]:
        """Seqs of nodes whose pc is in ``pcs``, in node-insertion order
        (matches iterating the materialized ``nodes`` dict)."""
        return [seq for seq, pc in self._node_tables()[0].items() if pc in pcs]

    def _pc_map(self) -> dict[int, list[int]]:
        self.check_epoch()
        index = self._pc_index
        if index is None:
            index = {}
            for seq, pc in self._node_tables()[0].items():
                index.setdefault(pc, []).append(seq)
            for seqs in index.values():
                seqs.sort()
            self._pc_index = index
        return index

    # -- DynamicDependenceGraph query API -------------------------------------
    def instances_of_pc(self, pc: int) -> list[int]:
        return list(self._pc_map().get(pc, ()))

    def last_instance_of_pc(self, pc: int) -> int | None:
        seqs = self._pc_map().get(pc)
        return seqs[-1] if seqs else None

    def producers(self, seq: int, kinds: Iterable[DepKind] | None = None):
        self.check_epoch()
        if not self.buffer.monotone:
            return self._materialized().producers(seq, kinds)
        wanted = None if kinds is None else set(kinds)
        out = []
        for c, lo, hi in self.buffer.consumer_spans(seq):
            kindcol = c.kind
            for r in range(lo, hi):
                code = kindcol[r]
                if code == _C_INSTR or code == _C_BRANCH:
                    continue
                k = KIND_BY_CODE[code]
                if wanted is not None and k not in wanted:
                    continue
                out.append((c.pseq_at(r), k))
        return out

    def consumers(self, seq: int, kinds: Iterable[DepKind] | None = None):
        self.check_epoch()
        if not self.buffer.monotone:
            return self._materialized().consumers(seq, kinds)
        wanted = None if kinds is None else set(kinds)
        out = []
        for c in self.buffer.live_chunks():
            pseqs, rows = c.reverse_index()
            if not pseqs or pseqs[0] > seq or pseqs[-1] < seq:
                continue
            lo = bisect_left(pseqs, seq)
            hi = bisect_right(pseqs, seq, lo)
            for i in range(lo, hi):
                r = rows[i]
                k = KIND_BY_CODE[c.kind[r]]
                if wanted is not None and k not in wanted:
                    continue
                out.append((c.cseq_at(r), k))
        return out

    def iter_edge_rows(self) -> Iterator[tuple[int, int, int, int, int, DepKind]]:
        """All live edge rows in append order:
        (consumer_seq, consumer_pc, consumer_tid, producer_seq,
        producer_pc, kind)."""
        by_code = KIND_BY_CODE
        for c in self.buffer._chunks:
            kindcol = c.kind
            for r in range(c.head, c.n):
                code = kindcol[r]
                if code == _C_INSTR or code == _C_BRANCH:
                    continue
                yield (
                    c.cseq_at(r), c.cpc_at(r), c.tid_at(r),
                    c.pseq_at(r), c.ppc_at(r), by_code[code],
                )

    @property
    def edge_count(self) -> int:
        self.check_epoch()
        count = 0
        for c in self.buffer._chunks:
            kindcol = c.kind
            for r in range(c.head, c.n):
                code = kindcol[r]
                if code != _C_INSTR and code != _C_BRANCH:
                    count += 1
        return count

    def stats(self) -> dict[str, int]:
        by_code = [0] * len(KIND_BY_CODE)
        for c in self.buffer._chunks:
            kindcol = c.kind
            for r in range(c.head, c.n):
                by_code[kindcol[r]] += 1
        by_kind = {
            KIND_BY_CODE[code].value: count
            for code, count in enumerate(by_code)
            if count and code != _C_INSTR and code != _C_BRANCH
        }
        edges = sum(by_kind.values())
        return {"nodes": len(self._node_tables()[0]), "edges": edges, **by_kind}

    def publish_telemetry(self, registry) -> None:
        """Dump the indexed slicing engine's counters into a
        :class:`~repro.telemetry.MetricsRegistry`."""
        qs = self.query_stats
        registry.counter("slicing.queries").inc(qs.queries)
        registry.counter("slicing.memo_hits").inc(qs.memo_hits)
        registry.counter("slicing.rows_scanned").inc(qs.rows_scanned)
