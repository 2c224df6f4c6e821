"""Indexed slicing engine over the packed dependence store.

Every slice is answered straight off
:class:`~repro.ontrac.packed.PackedTraceBuffer` columns; no per-record
node objects or edge lists are ever built:

* the frontier is a plain stack of seq integers — no node objects;
* the consumer-sorted columns are the index: a bisect of the buffer's
  per-chunk first seqs finds a seq's chunk, and while pops stay inside
  that chunk's seq window its rows are one slice of the chunk's decoded
  seq-offset table, with producer seq/pc read from per-chunk lists
  decoded on first touch (:meth:`~repro.ontrac.packed._Chunk.decoded`)
  — a cold query decodes only the chunks its closure reaches;
* forward closures bisect the per-chunk reverse indexes (built lazily,
  cached on the chunk);
* an LRU memo on the owning :class:`PackedDDG` caches the closure
  fragment of every seq it finishes, so repeated criteria — fault
  localization probing many outputs, pruning passes, lineage queries —
  splice in prior work instead of re-walking the graph.

Closure semantics are a plain breadth-first walk's, bit for bit (the
test-side dict oracle holds the engine to them): a KeyError for an
unknown criterion, the ``truncated`` rule (a reached node with *no*
stored dependence rows at all, of any kind, in an incomplete window),
the same seq/pc sets.  Results are returned as plain
``(frozenset seqs, frozenset pcs, truncated)`` triples;
:mod:`repro.slicing.slicer` wraps them into :class:`DynamicSlice`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from ..ontrac.packed import MEMO_CAP
from ..ontrac.records import KIND_BY_CODE, NODE_KIND_CODES

_SENT16 = 0xFFFF
_F_CPC = 0

#: per-code flag: the row is a dependence edge (not an INSTR/BRANCH node row).
_IS_EDGE = [code not in NODE_KIND_CODES for code in range(len(KIND_BY_CODE))]

#: kinds frozenset -> per-code wanted flags (indexed by code; node rows
#: are never followed).
_WANTED_CACHE: dict[frozenset, list[bool]] = {}


def _wanted(kinds: frozenset) -> list[bool]:
    flags = _WANTED_CACHE.get(kinds)
    if flags is None:
        flags = [_IS_EDGE[code] and KIND_BY_CODE[code] in kinds
                 for code in range(len(KIND_BY_CODE))]
        _WANTED_CACHE[kinds] = flags
    return flags


def _gather(spans) -> tuple[bytes, list, list, int, int]:
    """A seq's rows from its ``consumer_spans`` (a chunk's first or last
    seq, whose rows may straddle a chunk seam, or a seq in a sparse
    chunk) copied out as ``(kinds, pseqs, ppcs, 0, count)`` — the shape
    the walk reads a chunk's rows in."""
    kinds = b""
    pseqs: list[int] = []
    ppcs: list[int] = []
    for c, lo, hi in spans:
        _, cpseqs, cppcs = c.decoded()
        kinds += bytes(c.kind[lo:hi])
        pseqs += cpseqs[lo:hi]
        ppcs += cppcs[lo:hi]
    return kinds, pseqs, ppcs, 0, len(pseqs)


def backward_closure(ddg, criterion: int, kinds) -> tuple[frozenset, frozenset, bool]:
    """Backward closure of ``criterion`` over the packed columns.

    Returns ``(seqs, pcs, truncated)``; raises KeyError for a criterion
    outside the window.
    """
    ddg.check_epoch()
    kinds = frozenset(kinds)
    stats = ddg.query_stats
    stats.queries += 1
    memo = ddg.memo
    key = (False, criterion, kinds)
    cached = memo.get(key)
    if cached is not None:
        memo.move_to_end(key)
        stats.memo_hits += 1
        return cached
    if not ddg.has_node(criterion):
        raise KeyError(f"criterion seq {criterion} is not in the DDG (outside the window?)")
    check_truncation = not ddg.complete
    wanted = _wanted(kinds)
    # Producer seq/pc come decoded per chunk, so a node's pc is recorded
    # when it is *pushed* (the edge row carries it), which yields the
    # same pc set as adding it when popped.
    buffer = ddg.buffer
    firsts = buffer._firsts
    chunks = buffer._chunks
    consumer_spans = buffer.consumer_spans
    # Memo keys present for this direction+kinds; probing this set per
    # pop is far cheaper than building a (False, seq, kinds) tuple and
    # touching the LRU for the common miss.
    frag_seqs = {s for (fwd, s, k) in memo if not fwd and k == kinds}
    seqs: set[int] = set()
    pcs: set[int] = {ddg.pc_of(criterion)}
    truncated = False
    seen = {criterion}
    stack = [criterion]
    push = stack.append
    seqs_add = seqs.add
    pcs_add = pcs.add
    seen_add = seen.add
    # The chunk the walk is in.  A seq strictly between its first live
    # seq and its last seq has all its rows there, at
    # starts[off]:starts[off + 1]; the chunk's first and last seq may
    # straddle a chunk seam and go through consumer_spans instead.
    lo_seq = hi_seq = base = 0
    starts = kindcol = pseqs = ppcs = None
    rows_scanned = 0
    while stack:
        seq = stack.pop()
        if seq in seqs:
            continue
        if seq in frag_seqs:
            # Splice a previously computed closure fragment instead of
            # re-walking the subgraph below this node.
            fkey = (False, seq, kinds)
            memo.move_to_end(fkey)
            stats.memo_hits += 1
            fseqs, fpcs, ftrunc = memo[fkey]
            seqs |= fseqs
            pcs |= fpcs
            seen |= fseqs
            truncated = truncated or ftrunc
            continue
        seqs_add(seq)
        if lo_seq < seq < hi_seq:
            off = seq - base
            kcol = kindcol
            ps = pseqs
            pp = ppcs
            lo = starts[off]
            hi = starts[off + 1]
        else:
            i = bisect_right(firsts, seq) - 1
            if i >= 0:
                c = chunks[i]
                if c.head < c.n:
                    dec = c.decoded()
                    if dec[0] is not None:
                        starts, pseqs, ppcs = dec
                        kindcol = c.kind
                        base = c.cseq_base
                        lo_seq = firsts[i]
                        hi_seq = base + c.cseq_off[c.n - 1]
            if lo_seq < seq < hi_seq:
                off = seq - base
                kcol, ps, pp, lo, hi = kindcol, pseqs, ppcs, starts[off], starts[off + 1]
            else:
                kcol, ps, pp, lo, hi = _gather(consumer_spans(seq))
        if check_truncation and not any(map(_IS_EDGE.__getitem__, kcol[lo:hi])):
            # No dependence rows at all for this node in an evicting
            # window means its history may be gone.
            truncated = True
            check_truncation = False
        rows_scanned += hi - lo
        for r in range(lo, hi):
            if not wanted[kcol[r]]:
                continue
            producer = ps[r]
            if producer in seen:
                continue
            seen_add(producer)
            pcs_add(pp[r])
            push(producer)
    stats.rows_scanned += rows_scanned
    result = (frozenset(seqs), frozenset(pcs), truncated)
    memo[key] = result
    if len(memo) > MEMO_CAP:
        memo.popitem(last=False)
    return result


def forward_closure(ddg, criterion: int, kinds) -> tuple[frozenset, frozenset, bool]:
    """Forward closure of ``criterion`` via the per-chunk reverse
    indexes.  Never truncated."""
    ddg.check_epoch()
    kinds = frozenset(kinds)
    stats = ddg.query_stats
    stats.queries += 1
    memo = ddg.memo
    key = (True, criterion, kinds)
    cached = memo.get(key)
    if cached is not None:
        memo.move_to_end(key)
        stats.memo_hits += 1
        return cached
    if not ddg.has_node(criterion):
        raise KeyError(f"criterion seq {criterion} is not in the DDG")
    buffer = ddg.buffer
    wanted = _wanted(kinds)
    seqs: set[int] = set()
    pcs: set[int] = set()
    seen = {criterion}
    stack = [(criterion, ddg.pc_of(criterion))]
    rows_scanned = 0
    while stack:
        seq, pc = stack.pop()
        if seq in seqs:
            continue
        fkey = (True, seq, kinds)
        fragment = memo.get(fkey)
        if fragment is not None:
            memo.move_to_end(fkey)
            stats.memo_hits += 1
            fseqs, fpcs, _ = fragment
            seqs |= fseqs
            pcs |= fpcs
            seen |= fseqs
            continue
        seqs.add(seq)
        pcs.add(pc)
        for c in buffer.live_chunks():
            pseqs, rows = c.reverse_index()
            if not pseqs or pseqs[0] > seq or pseqs[-1] < seq:
                continue
            lo = bisect_left(pseqs, seq)
            hi = bisect_right(pseqs, seq, lo)
            rows_scanned += hi - lo
            kindcol = c.kind
            cpccol = c.cpc
            offs = c.cseq_off
            base = c.cseq_base
            over = c.over
            for i in range(lo, hi):
                r = rows[i]
                if not wanted[kindcol[r]]:
                    continue
                consumer = base + offs[r]
                if consumer in seen:
                    continue
                seen.add(consumer)
                v = cpccol[r]
                stack.append((consumer, over[(r, _F_CPC)] if v == _SENT16 else v))
    stats.rows_scanned += rows_scanned
    result = (frozenset(seqs), frozenset(pcs), False)
    memo[key] = result
    if len(memo) > MEMO_CAP:
        memo.popitem(last=False)
    return result
