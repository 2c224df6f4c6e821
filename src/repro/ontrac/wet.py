"""Compact whole-execution-trace (WET) dependence representation.

§2.1 credits the prior work [18] ("Cost Effective Dynamic Program
Slicing", PLDI'04) with "a highly compact dependence graph
representation that made [slicing] highly efficient — dynamic slices
for program runs of several hundred million instructions can be
computed in a few seconds".  The key idea: dynamic dependence edges are
overwhelmingly *repetitions of static edges*.  Instead of one record
per dynamic edge, the WET form keeps one entry per static
``(consumer pc, producer pc)`` pair carrying the list of
``(consumer seq, producer seq)`` timestamp pairs — and runs of
constant-offset timestamps (loop-carried dependences execute in
lockstep) collapse further into strided intervals.

This module implements that compaction over our DDG:

* :func:`compact` — DDG -> :class:`CompactWET`;
* :meth:`CompactWET.to_ddg` — exact inverse (lossless), window
  truncation included: a WET of an evicting window decompresses into a
  graph whose slices still report ``truncated``;
* :meth:`CompactWET.producers_of` — direct slicing queries on the
  compact form, so :func:`compact_backward_slice` never materializes
  the full graph;
* modeled size accounting, so E1's storyline ("the compact form is what
  made offline slicing fast; *generating* it stayed expensive") can be
  quantified.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .packed import PackedDDG, PackedTraceBuffer
from .records import KIND_CODES, DepKind

#: modeled bytes: one static edge entry (pcs + kind + count).
STATIC_EDGE_BYTES = 12
#: modeled bytes: one strided interval (start pair, stride, length).
INTERVAL_BYTES = 12
#: modeled bytes: one raw dynamic edge (the uncompacted baseline).
RAW_EDGE_BYTES = 16


@dataclass(frozen=True)
class Interval:
    """Timestamp pairs (c0 + i*stride_c, p0 + i*stride_p) for i < length."""

    c0: int
    p0: int
    stride_c: int
    stride_p: int
    length: int

    def pairs(self) -> Iterable[tuple[int, int]]:
        for i in range(self.length):
            yield self.c0 + i * self.stride_c, self.p0 + i * self.stride_p

    def producer_for(self, consumer_seq: int) -> int | None:
        if self.stride_c == 0:
            return self.p0 if consumer_seq == self.c0 else None
        delta = consumer_seq - self.c0
        if delta < 0 or delta % self.stride_c:
            return None
        i = delta // self.stride_c
        if i >= self.length:
            return None
        return self.p0 + i * self.stride_p


@dataclass
class StaticEdge:
    """All dynamic instances of one static dependence edge."""

    consumer_pc: int
    producer_pc: int
    kind: DepKind
    intervals: list[Interval] = field(default_factory=list)

    @property
    def dynamic_count(self) -> int:
        return sum(iv.length for iv in self.intervals)

    @property
    def modeled_bytes(self) -> int:
        return STATIC_EDGE_BYTES + len(self.intervals) * INTERVAL_BYTES


def _compress_pairs(pairs: list[tuple[int, int]]) -> list[Interval]:
    """Greedy run-length compression of sorted timestamp pairs into
    constant-stride intervals."""
    intervals: list[Interval] = []
    i, n = 0, len(pairs)
    while i < n:
        c0, p0 = pairs[i]
        if i + 1 < n:
            stride_c = pairs[i + 1][0] - c0
            stride_p = pairs[i + 1][1] - p0
            length = 2
            while (
                i + length < n
                and pairs[i + length][0] - pairs[i + length - 1][0] == stride_c
                and pairs[i + length][1] - pairs[i + length - 1][1] == stride_p
            ):
                length += 1
            if length >= 2 and stride_c > 0:
                intervals.append(Interval(c0, p0, stride_c, stride_p, length))
                i += length
                continue
        intervals.append(Interval(c0, p0, 0, 0, 1))
        i += 1
    return intervals


@dataclass
class CompactWET:
    """The compacted dependence representation."""

    #: (consumer pc, producer pc, kind) -> StaticEdge
    edges: dict[tuple[int, int, DepKind], StaticEdge] = field(default_factory=dict)
    #: seq -> pc for every dynamic node (needed to answer pc queries).
    node_pcs: dict[int, int] = field(default_factory=dict)
    node_tids: dict[int, int] = field(default_factory=dict)
    #: consumer pc -> static edges consuming at that pc (slicing index).
    _by_consumer: dict[int, list[StaticEdge]] = field(default_factory=dict)
    raw_edges: int = 0
    #: rows the source window had evicted (0: the window was complete).
    evicted: int = 0

    # -- size accounting -------------------------------------------------
    @property
    def modeled_bytes(self) -> int:
        return sum(e.modeled_bytes for e in self.edges.values())

    @property
    def raw_bytes(self) -> int:
        return self.raw_edges * RAW_EDGE_BYTES

    @property
    def compression_ratio(self) -> float:
        return self.raw_bytes / self.modeled_bytes if self.modeled_bytes else 1.0

    # -- queries -----------------------------------------------------------
    def producers_of(self, consumer_seq: int) -> list[tuple[int, DepKind]]:
        """Dynamic producers of one dynamic instance, from the compact form."""
        pc = self.node_pcs.get(consumer_seq)
        if pc is None:
            return []
        found: list[tuple[int, DepKind]] = []
        for edge in self._by_consumer.get(pc, []):
            for interval in edge.intervals:
                producer = interval.producer_for(consumer_seq)
                if producer is not None:
                    found.append((producer, edge.kind))
        return found

    def to_ddg(self) -> PackedDDG:
        """Exact decompression back to the full DDG: one INSTR row per
        node (so every node keeps its pc and tid) plus every edge row,
        in consumer-seq order, into a buffer that never evicts and
        carries the source window's eviction count."""
        tids = self.node_tids
        instr = KIND_CODES[DepKind.INSTR]
        rows = [(instr, seq, pc, -1, -1, tids.get(seq, 0))
                for seq, pc in self.node_pcs.items()]
        for (consumer_pc, producer_pc, kind), edge in self.edges.items():
            code = KIND_CODES[kind]
            for interval in edge.intervals:
                for consumer_seq, producer_seq in interval.pairs():
                    rows.append((code, consumer_seq, consumer_pc, producer_seq,
                                 producer_pc, tids.get(consumer_seq, 0)))
        # Stable: a seq's INSTR row stays ahead of its edge rows.
        rows.sort(key=lambda row: row[1])
        buf = PackedTraceBuffer(capacity_bytes=sys.maxsize)
        if rows:
            buf.extend_rows(*zip(*rows))
        buf.stats.evicted = self.evicted
        return PackedDDG(buf)


def compact(ddg: PackedDDG) -> CompactWET:
    """Compress a DDG into the WET form (lossless)."""
    grouped: dict[tuple[int, int, DepKind], list[tuple[int, int]]] = {}
    wet = CompactWET(evicted=ddg.buffer.stats.evicted)
    node_pcs = wet.node_pcs
    for seq, pc in ddg.node_items():
        node_pcs[seq] = pc
        wet.node_tids[seq] = ddg.tid_of(seq)
    for consumer_seq, _, _, producer_seq, _, kind in ddg.iter_edge_rows():
        grouped.setdefault(
            (node_pcs[consumer_seq], node_pcs[producer_seq], kind), []
        ).append((consumer_seq, producer_seq))
        wet.raw_edges += 1
    for key, pairs in grouped.items():
        pairs.sort()
        edge = StaticEdge(
            consumer_pc=key[0],
            producer_pc=key[1],
            kind=key[2],
            intervals=_compress_pairs(pairs),
        )
        wet.edges[key] = edge
        wet._by_consumer.setdefault(key[0], []).append(edge)
    return wet


def compact_backward_slice(
    wet: CompactWET, criterion: int, kinds: frozenset[DepKind] | None = None
) -> set[int]:
    """Backward slice computed directly on the compact representation —
    the operation [18] made fast enough for interactive debugging."""
    if criterion not in wet.node_pcs:
        raise KeyError(f"criterion seq {criterion} unknown to this WET")
    seen = {criterion}
    queue = deque([criterion])
    while queue:
        seq = queue.popleft()
        for producer, kind in wet.producers_of(seq):
            if kinds is not None and kind not in kinds:
                continue
            if producer not in seen:
                seen.add(producer)
                queue.append(producer)
    return seen
