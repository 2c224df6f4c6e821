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

The consumer-sorted columns *are* the query index; nothing is built
over the whole window:

* the consumer index is intrinsic — the tracer emits rows in
  consumer-seq order, so one ``bisect`` over the per-chunk first seqs
  and the chunk's ``cseq_off`` column finds all rows of a dynamic
  instruction;
* a chunk a query touches is **decoded on first touch**
  (:meth:`_Chunk.decoded`): a seq-offset -> first-row table plus the
  producer seq and pc of every row, built at C speed and cached on the
  chunk until it mutates.  A query pays only for the history it walks;
* the per-chunk **reverse index** (producer seq -> rows) is built on
  first forward-direction access and cached the same way, as two
  parallel sorted arrays — 12 bytes per edge row, only for chunks that
  forward queries actually touch.

:class:`PackedDDG` is the one dependence graph: O(1) to construct, it
answers every query clients make (the slicing criterion's last
instance, ``has_node``/``pc_of``/``tid_of``, producer/consumer lists,
node and edge-row iteration) straight off the columns.  The indexed
slicing engine walking these columns lives in
:mod:`repro.slicing.engine`.

Values that do not fit their column (a pathological pc, a >4G-seq
delta, a tid >= 0xFFFF) are stored as a sentinel plus a per-chunk
side-dict entry, so the store accepts every :class:`DepRecord`.  A
consumer seq below its predecessor is rejected with
:class:`TraceOrderError` before anything changes; the tracer never
emits one.  The column queries also rely on the tracer's stream shape:
a producer precedes its consumers and every row naming a seq agrees on
its pc.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, OrderedDict
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import add, gt, mul, sub
from sys import byteorder
from typing import Iterable, Iterator

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

# bytes.translate tables over a batch's kind codes (extend_rows):
# modeled bytes per row, and 1 for edge rows / 0 for node rows.
_MBYTES_XLAT = bytes(KIND_MBYTES).ljust(256, b"\0")
_EDGE_XLAT = bytes(
    0 if code in (_C_INSTR, _C_BRANCH) else 1 for code in range(len(KIND_MBYTES))
).ljust(256, b"\0")


def _holds_sentinel(col: array) -> bool:
    """Whether a column holds its all-ones sentinel value.  A byte
    search rules it out at C speed; only a hit (a sentinel, or a pair of
    neighbours whose bytes line up like one) pays the exact scan."""
    ones = b"\xff" * col.itemsize
    return ones in col.tobytes() and (1 << 8 * col.itemsize) - 1 in col


class TraceOrderError(ValueError):
    """A row's consumer seq is below the previous row's: the columns are
    the consumer index, so the store accepts rows only in seq order."""


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
        "tid", "n", "head", "over", "rindex", "dec",
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
        #: cached decode (see :meth:`decoded`).
        self.dec: tuple[list | None, list, list] | None = None

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

    def decoded(self) -> tuple[list[int] | None, list[int], list[int]]:
        """``(starts, pseqs, ppcs)`` over rows ``[0, n)``, cached until
        the chunk mutates.

        ``starts[off]:starts[off + 1]`` are the rows of consumer seq
        ``cseq_base + off``.  The table has an entry per seq offset, so
        a chunk whose seqs are far sparser than its rows (possible only
        through direct appends) gets None and is read through
        :meth:`PackedTraceBuffer.consumer_spans` instead.
        ``pseqs``/``ppcs`` hold each edge row's producer seq and pc,
        side-dict values patched in; node rows carry junk there.
        Everything but the patch runs at C speed.
        """
        dec = self.dec
        if dec is None:
            dec = self.dec = self._decode(self.cseq_off[:self.n].tolist())
        return dec

    def _decode(self, offs: list[int]) -> tuple[list[int] | None, list[int], list[int]]:
        """:meth:`decoded`'s tables, from the ``cseq_off`` column as a list."""
        n = self.n
        span = offs[-1] + 1 if n else 0
        starts = None
        if span <= 4 * n + 64:
            counts = Counter(offs).get
            starts = list(accumulate(map(counts, range(span), repeat(0)), initial=0))
        pseqs = list(map(sub, map(add, offs, repeat(self.cseq_base)), self.pdelta[:n]))
        ppcs = self.ppc[:n].tolist()
        if self.over:
            for (r, field), value in self.over.items():
                if field == _F_PSEQ:
                    pseqs[r] = value
                elif field == _F_PPC:
                    ppcs[r] = value
        return starts, pseqs, ppcs

    def rows_holding(self, col, value: int) -> list[int]:
        """Live rows whose ``col`` column (one of this chunk's 16-bit
        columns) stores ``value``, oldest first.  A byte search over the
        column finds the candidates at C speed; only hits that line up
        with a row boundary are kept."""
        needle = value.to_bytes(2, byteorder)
        raw = col[:self.n].tobytes()
        end = 2 * self.n
        rows = []
        i = raw.find(needle, 2 * self.head, end)
        while i >= 0:
            if i & 1:
                i = raw.find(needle, i + 1, end)
            else:
                rows.append(i >> 1)
                i = raw.find(needle, i + 2, end)
        return rows

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
    indexed slicing engine reads the chunks themselves (``_firsts``,
    :meth:`consumer_spans`, :meth:`_Chunk.decoded` and the reverse
    indexes).
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

    # -- append paths --------------------------------------------------------
    def append_row(self, code: int, cseq: int, cpc: int,
                   pseq: int = -1, ppc: int = -1, tid: int = 0) -> int:
        """Append one packed row; returns its modeled byte size.  Raises
        :class:`TraceOrderError`, leaving the buffer unchanged, if
        ``cseq`` is below the previous row's consumer seq."""
        if cseq < self._last_cseq:
            raise TraceOrderError(
                f"consumer seq {cseq} arrived after {self._last_cseq}"
            )
        self._last_cseq = cseq
        c = self._tail
        if c is None or c.n == c.cap:
            c = self._grow(cseq)
        off = cseq - c.cseq_base
        if off > _MAX32:
            c = self._grow(cseq)
            off = 0
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
        c.dec = None
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

    def extend_rows(self, kinds, cseqs, cpcs, pseqs, ppcs, tids) -> int:
        """Append a batch of rows given as columns; returns their modeled
        bytes.

        Row ``i`` is ``append_row(kinds[i], cseqs[i], cpcs[i], pseqs[i],
        ppcs[i], tids[i])`` and the result is exactly that of one
        :meth:`append_row` per row: the same chunk boundaries (new chunks
        come from :meth:`_grow`, so a spilling subclass seals and spills
        the same chunks), columns, side-dicts, ``_firsts``, epoch and
        :class:`BufferStats`.  The columns are converted and range-checked
        at C speed and each chunk's share is written as one slice per
        column.  A batch that could overflow the capacity (eviction is
        per row) or holds a value outside its column (a pc or tid
        >= 0xFFFF, a seq delta that is negative or >= 0xFFFFFFFF) takes
        the per-row path instead.  A batch whose consumer seqs are out
        of order raises :class:`TraceOrderError` before any row lands.
        """
        total = len(cseqs)
        if not total:
            return 0
        first = cseqs[0]
        if first < self._last_cseq or any(map(gt, cseqs, islice(cseqs, 1, None))):
            raise TraceOrderError(
                f"consumer seqs {first}..{cseqs[-1]} are out of order"
                f" (previous row: {self._last_cseq})"
            )
        kinds = bytes(kinds)
        mbytes = sum(kinds.translate(_MBYTES_XLAT))
        cur = self.current_bytes + mbytes
        tail = self._tail
        lowest_base = first if tail is None else tail.cseq_base
        cols = None
        if cur <= self.capacity_bytes and cseqs[-1] - lowest_base <= _MAX32:
            # Node rows store a zero delta and pc whatever they were given.
            edge = kinds.translate(_EDGE_XLAT)
            try:
                cols = (
                    array("H", cpcs),
                    array("I", map(mul, map(sub, cseqs, pseqs), edge)),
                    array("H", map(mul, ppcs, edge)),
                    array("H", tids),
                )
            except OverflowError:  # a negative or too wide value
                pass
            if cols is not None and any(map(_holds_sentinel, cols)):
                cols = None
        if cols is None:
            append_row = self.append_row
            for row in zip(kinds, cseqs, cpcs, pseqs, ppcs, tids):
                append_row(*row)
            return mbytes
        cpc_col, pdelta_col, ppc_col, tid_col = cols
        i = 0
        while i < total:
            c = self._tail
            if c is None or c.n == c.cap:
                c = self._grow(cseqs[i])
            n = c.n
            j = min(total, i + c.cap - n)
            end = n + j - i
            c.kind[n:end] = array("B", kinds[i:j])
            c.cseq_off[n:end] = array("I", map(sub, cseqs[i:j], repeat(c.cseq_base)))
            c.cpc[n:end] = cpc_col[i:j]
            c.pdelta[n:end] = pdelta_col[i:j]
            c.ppc[n:end] = ppc_col[i:j]
            c.tid[n:end] = tid_col[i:j]
            if c.head == n:  # first live row of this chunk
                self._firsts[-1] = cseqs[i]
            c.n = end
            c.rindex = None
            c.dec = None
            i = j
        self._rows += total
        self._last_cseq = cseqs[-1]
        stats = self.stats
        stats.appended += total
        stats.appended_bytes += mbytes
        if mbytes:
            # No row evicted, so occupancy only rose: its peak is now.
            if cur > stats.peak_bytes:
                stats.peak_bytes = cur
            self.current_bytes = cur
        return mbytes

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
            c.dec = None
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
            c.dec = None
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
        self.current_bytes = 0

    def consumer_spans(self, seq: int) -> list[tuple[_Chunk, int, int]]:
        """Row ranges holding consumer ``seq``: ``[(chunk, lo, hi)]``.

        Rows of one consumer are contiguous but may span a chunk
        boundary.
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


@dataclass
class SliceQueryStats:
    """Introspection counters for the indexed slicing engine."""

    queries: int = 0
    memo_hits: int = 0
    rows_scanned: int = 0


#: closure fragments kept per PackedDDG (LRU).
MEMO_CAP = 1024


class PackedDDG:
    """The dependence graph: a view over a :class:`PackedTraceBuffer`.

    Construction is O(1).  The hot queries (``has_node``/``pc_of``,
    :meth:`last_instance_of_pc`, producer/consumer lists, the slicing
    closures in :mod:`repro.slicing.engine`) run straight off the packed
    columns, decoding only the chunks they touch.  ``node_items``,
    ``seqs_of_pcs``, ``instances_of_pc`` and ``tid_of`` build a node
    table over the whole window on first use: a node is every seq a row
    names, and the first row naming it sets its pc and tid.  The view
    follows the live buffer: mutating the buffer bumps its epoch, which
    drops every cache and the slice memo on the next query.
    """

    def __init__(self, buffer: PackedTraceBuffer):
        self.buffer = buffer
        self.complete = buffer.stats.evicted == 0
        self._epoch = buffer.epoch
        self._node_pc: dict[int, int] | None = None
        self._node_tid: dict[int, int] | None = None
        self._pc_index: dict[int, list[int]] | None = None
        #: pc -> last_instance_of_pc answer.
        self._last: dict[int, int | None] = {}
        #: (is_forward, seq, kinds) -> (frozenset seqs, frozenset pcs, truncated)
        self.memo: OrderedDict = OrderedDict()
        self.query_stats = SliceQueryStats()

    # -- cache discipline ----------------------------------------------------
    def check_epoch(self) -> None:
        epoch = self.buffer.epoch
        if epoch != self._epoch:
            self._epoch = epoch
            self.complete = self.buffer.stats.evicted == 0
            self._node_pc = None
            self._node_tid = None
            self._pc_index = None
            self._last = {}
            self.memo.clear()

    # -- node table (every node's pc and tid, in first-mention order) ---------
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
        """Oldest live edge row naming ``seq`` as its producer, as
        ``(chunk, row)``, or None.  A producer precedes its consumers,
        so only the chunk holding ``seq``'s position and newer ones can
        name it; each is screened by a C-speed search of its decoded
        producer list."""
        buf = self.buffer
        start = max(bisect_right(buf._firsts, seq) - 1, 0)
        for c in islice(buf._chunks, start, None):
            n = c.n
            pseqs = c.decoded()[1]
            kind = c.kind
            r = c.head
            while r < n:
                try:
                    r = pseqs.index(seq, r, n)
                except ValueError:
                    break
                code = kind[r]
                if code != _C_INSTR and code != _C_BRANCH:
                    return c, r
                r += 1
        return None

    def has_node(self, seq: int) -> bool:
        self.check_epoch()
        if self._node_pc is not None:
            return seq in self._node_pc
        # The node set is exactly (consumer seqs | producer seqs); both
        # sides are answerable from the columns.
        if self.buffer.consumer_spans(seq):
            return True
        return self._producer_row(seq) is not None

    def pc_of(self, seq: int) -> int:
        self.check_epoch()
        if self._node_pc is not None:
            return self._node_pc[seq]
        spans = self.buffer.consumer_spans(seq)
        if spans:
            c, lo, _ = spans[0]
            return c.cpc_at(lo)
        hit = self._producer_row(seq)
        if hit is None:
            raise KeyError(seq)
        c, r = hit
        return c.ppc_at(r)

    def tid_of(self, seq: int) -> int:
        return self._node_tables()[1][seq]

    def node_items(self) -> Iterable[tuple[int, int]]:
        """(seq, pc) pairs in first-mention order."""
        return self._node_tables()[0].items()

    def seqs_of_pcs(self, pcs) -> list[int]:
        """Seqs of nodes whose pc is in ``pcs``, in first-mention order."""
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

    # -- queries --------------------------------------------------------------
    def instances_of_pc(self, pc: int) -> list[int]:
        return list(self._pc_map().get(pc, ()))

    def last_instance_of_pc(self, pc: int) -> int | None:
        """Newest node at static ``pc`` (None if there is none),
        memoized per epoch."""
        self.check_epoch()
        last = self._last
        if pc in last:
            return last[pc]
        found = last[pc] = self._scan_last(pc)
        return found

    def _scan_last(self, pc: int) -> int | None:
        """Newest-first chunk scan for :meth:`last_instance_of_pc`.

        Every node is a consumer row or the producer of a later row, so
        the first chunk holding a consumer row at ``pc`` ends the scan
        (no older chunk holds a newer node), and so does a chunk whose
        newest seq is below the best producer-only candidate.  A byte
        search of the pc columns screens each chunk; only a chunk with a
        producer hit is decoded.
        """
        key = pc if 0 <= pc < _SENT16 else _SENT16
        best = None
        for c in reversed(self.buffer._chunks):
            n = c.n
            if c.head >= n:
                continue
            if best is not None and c.cseq_at(n - 1) < best:
                break
            rows = c.rows_holding(c.ppc, key)
            if rows:
                kind = c.kind
                _, pseqs, ppcs = c.decoded()
                for r in rows:
                    code = kind[r]
                    if code != _C_INSTR and code != _C_BRANCH and ppcs[r] == pc:
                        if best is None or pseqs[r] > best:
                            best = pseqs[r]
            for r in reversed(c.rows_holding(c.cpc, key)):
                if c.cpc_at(r) == pc:
                    seq = c.cseq_at(r)
                    return seq if best is None or seq > best else best
        return best

    def producers(self, seq: int, kinds: Iterable[DepKind] | None = None):
        self.check_epoch()
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
