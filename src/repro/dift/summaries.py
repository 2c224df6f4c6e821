"""Function-summary DIFT: learn per-call taint transfer functions.

Every consumer so far pays O(instructions) for propagation — each
executed instruction of each call crosses the hook bus and the batch
kernel.  This module lifts ONTRAC's static-block elision to call
granularity (the Sdft idea): the first execution of a CALL-delimited
region is observed record-by-record and distilled into a
:class:`TaintSummary` — the region's *input footprint* (which shadow
locations its propagation read, with the labels it saw), its *output
transfer* (the labels it left behind), its stats/overhead deltas, any
sink trips — and later calls whose concrete footprint matches apply
the summary directly on the shadow store in O(footprint), skipping
instruction-level propagation entirely.

Wire format.  Producers in summary mode cut two zero-weight marker
records into the normal 24-byte stream: ``K_CALL`` (``a=0`` for a
direct CALL, ``a=1`` for an ICALL — never summarized, but its marker
keeps nesting depth balanced) and ``K_RET``.  A CALL's own skip weight
lands *before* its marker (outside the region); a RET's lands inside.
Base kernels treat both markers as no-ops, so a marked stream replays
bit-identically through any kernel.

Validity guards.  A summary is applied only when
(1) the *pre-state guard* holds at region entry: every shadow location
    the learned region read carries exactly the label it carried at
    learn time (locations it wrote before reading are guarded on
    existence only — their prior label never flowed anywhere, but
    existence shapes the peak-locations trajectory), and
(2) the *stream guard* holds: the region's record bytes are identical
    to the learned bytes (addresses, values, thread ids, control path
    and nesting all live in those bytes — a single divergent branch,
    aliased store or changed operand breaks the match).
Polymorphic sites hold a small list of *variants* — one summary per
distinct pre-state footprint.  A call whose footprint matches no
stored variant is an entry miss: it learns an additional variant (up
to ``max_variants``, past which the site is blacklisted), so a site
alternating between two stable taint patterns converges to two
summaries and keeps hitting.  On a stream-guard failure mid-region
the kernel falls back to full propagation of the buffered prefix (the
shadow was never touched while matching, so nothing needs undoing),
drops just the diverged variant, re-learns the region in place, and
blacklists the call site after ``relearn_limit`` byte-divergences so
control-flow-unstable sites cannot thrash.

Sink trips inside a region are part of the summary: recorded alerts
are replayed with re-based ``seq``s, and a summary that *raised*
``AttackDetected`` stores the truncated region and re-raises at the
same replayed record index (the producer flushes right after
raise-capable sinks, so the raise escapes the same instruction's
dispatch as the inline reference).

Regions containing ALLOC or SPAWN records are never summarized
(``clear_range`` and cross-thread seeding have effects outside the
byte-determined footprint), nor are regions with a wide LOAD/STORE
(its address travels beside the stream, not in the bytes); their
sites are blacklisted on first sight and their inner calls summarize
independently.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

from ..vm.errors import AttackDetected
from .kernel import (
    BatchEffects,
    K_ALLOC,
    K_CALL,
    K_GENERIC,
    K_LOAD,
    K_RET,
    K_SINK,
    K_SKIP,
    K_SPAWN,
    K_STORE,
    PropagationKernel,
    RECORD,
    RECORD_SIZE,
    _WIDE,
)
from .policy import BoolTaintPolicy, PCTaintPolicy, TaintPolicy

#: byte-divergence invalidations per call site before it is blacklisted.
DEFAULT_RELEARN_LIMIT = 3
#: footprint variants per call site before it is blacklisted.
DEFAULT_MAX_VARIANTS = 4
#: learning aborts (and blacklists the site) past this region size —
#: a summary that large would buffer more than it could ever elide.
DEFAULT_MAX_REGION_RECORDS = 50_000

_IDLE, _LEARN, _MATCH = 0, 1, 2


def summarizable(policy: TaintPolicy) -> bool:
    """Summaries support the scalar-label policies (bool and PC taint).

    Set-valued policies (lineage) share label *objects* between
    locations; replaying a stored output dict would alias learn-time
    sets into later runs, so those stay on instruction-level
    propagation.
    """
    return type(policy) in (BoolTaintPolicy, PCTaintPolicy)


def cache_signature(
    policy: TaintPolicy,
    source_channels,
    sinks,
    propagate_addresses: bool,
) -> str:
    """Configuration fingerprint a cache's summaries are valid under.

    A summary learned under ``dift`` fidelity (bool labels, icall
    sinks) must never be applied under ``full`` (PC labels) or under a
    different sink/source configuration — the transfer function itself
    depends on all four knobs.
    """
    chans = "*" if source_channels is None else ",".join(
        str(c) for c in sorted(source_channels)
    )
    sink_sig = ";".join(
        "{}:{}:{}".format(
            r.kind,
            "*" if r.channels is None else ",".join(str(c) for c in sorted(r.channels)),
            r.action,
        )
        for r in (sinks or [])
    )
    return "{}|src={}|addr={}|sinks=[{}]".format(
        type(policy).__name__, chans, int(bool(propagate_addresses)), sink_sig
    )


@dataclass
class TaintSummary:
    """One call region's learned taint transfer function."""

    site: int  # call-site pc (the K_CALL marker's pc)
    data: bytes  # region record bytes, nested markers included;
    #              ends with the K_RET marker, or with the raising
    #              sink record for a raised summary
    freg: dict  # (tid, reg) -> label read before any write (None = clean)
    fmem: dict  # addr -> label read before any write
    wreg: dict  # (tid, reg) -> bool: existed at entry (written first)
    wmem: dict  # addr -> bool: existed at entry (written first)
    oreg: dict  # (tid, reg) -> post-region label (None = cleared)
    omem: dict  # addr -> post-region label (None = cleared)
    d_instr: int  # guest instructions the region represents
    d_taint: int
    d_sources: int
    d_sink_checks: int
    overhead: int  # modeled cycles the region charges
    rise: int  # peak-locations rise over the entry live-set size
    alerts: tuple = ()  # ((rel_seq, TaintAlert template), ...)
    raised: bool = False
    raise_culprit: int = -1

    @property
    def region_hash(self) -> int:
        """Stable hash of the region's record bytes (the stream guard)."""
        return zlib.crc32(self.data)

    @property
    def footprint_size(self) -> int:
        return len(self.freg) + len(self.fmem) + len(self.wreg) + len(self.wmem)

    @property
    def records(self) -> int:
        return len(self.data) // RECORD_SIZE


class SummaryCache:
    """Per-configuration store of learned :class:`TaintSummary` objects.

    Can outlive a single kernel: a caller that passes the same cache to
    several runs of one program (``DIFTEngine(summary_cache=)``) lets
    summaries learned in one run elide work in the later ones; without
    one, each :class:`SummaryKernel` makes its own.  Counters here are
    cumulative across every kernel that used the cache; kernels also
    keep per-run copies for telemetry.
    """

    def __init__(
        self,
        signature: str = "",
        relearn_limit: int = DEFAULT_RELEARN_LIMIT,
        max_region_records: int = DEFAULT_MAX_REGION_RECORDS,
        max_variants: int = DEFAULT_MAX_VARIANTS,
    ):
        self.signature = signature
        self.relearn_limit = relearn_limit
        self.max_region_records = max_region_records
        self.max_variants = max_variants
        self.summaries: dict[int, list[TaintSummary]] = {}
        self.relearns: dict[int, int] = {}
        self.blacklist: set[int] = set()
        self.learned = 0
        self.hits = 0
        self.invalidations = 0
        self.records_elided = 0

    def store(self, site: int, summary: TaintSummary) -> None:
        self.summaries.setdefault(site, []).append(summary)
        self.learned += 1

    def miss(self, site: int) -> bool:
        """No stored variant matched this call's pre-state.

        Counts as an invalidation (the site's summaries did not cover
        the call) and returns whether learning one more variant is
        allowed; a site that keeps producing unseen footprints is
        blacklisted once its variant list is full.
        """
        self.invalidations += 1
        if len(self.summaries.get(site, ())) >= self.max_variants:
            self.blacklist.add(site)
            self.summaries.pop(site, None)
            return False
        return True

    def invalidate(self, site: int, summary: TaintSummary) -> bool:
        """Drop one diverged variant; returns whether re-learning is allowed.

        Byte divergence means the region's control path or operands
        changed under an identical pre-state — the other variants
        (different pre-states) may still be exact, so only the failed
        one goes.
        """
        variants = self.summaries.get(site)
        if variants is not None:
            try:
                variants.remove(summary)
            except ValueError:
                pass
            if not variants:
                self.summaries.pop(site, None)
        self.invalidations += 1
        n = self.relearns.get(site, 0) + 1
        self.relearns[site] = n
        if n >= self.relearn_limit:
            self.blacklist.add(site)
            self.summaries.pop(site, None)
        return site not in self.blacklist

    def counters(self) -> dict[str, int]:
        return {
            "learned": self.learned,
            "hits": self.hits,
            "invalidations": self.invalidations,
            "records_elided": self.records_elided,
        }


class SummaryKernel:
    """A :class:`PropagationKernel` wrapper that learns and replays
    call-region summaries over the marked record stream.

    Drop-in for the kernel interface the consumers use: templates,
    ``seq``, shadow/stats/alerts views and ``propagate_batch`` all
    delegate to the wrapped inner kernel; only records belonging to a
    matched region never reach it.  Call :meth:`settle` once the
    stream ends (or before reading observables mid-stream) to resolve
    a region still buffered for matching.
    """

    def __init__(self, inner: PropagationKernel, cache: SummaryCache | None = None):
        if not summarizable(inner.policy):
            raise ValueError(
                f"policy {type(inner.policy).__name__} is not summarizable"
            )
        sig = cache_signature(
            inner.policy,
            inner.source_channels,
            inner.sinks,
            inner.propagate_addresses,
        )
        if cache is None:
            cache = SummaryCache(sig)
        elif cache.signature != sig:
            raise ValueError(
                "summary cache signature mismatch: cache holds "
                f"{cache.signature!r}, kernel needs {sig!r}"
            )
        self.inner = inner
        self.cache = cache
        self.policy = inner.policy
        self.sinks = inner.sinks
        self.source_channels = inner.source_channels
        self.propagate_addresses = inner.propagate_addresses
        # per-run counters (the cache keeps cumulative ones)
        self.learned = 0
        self.hits = 0
        self.invalidations = 0
        self.records_elided = 0
        self.markers = 0  # marker records consumed by this layer
        self.batches = 0
        self.records_consumed = 0
        self.raised_effects: BatchEffects | None = None
        self._seq = 0
        #: pc -> (kind, read-regs tuple, written-reg or -1) for the
        #: footprint decode; mirrors the taint rules' operand semantics.
        self._fp: dict[int, tuple] = {}
        self._mode = _IDLE
        self._frame: dict | None = None

    # -- substrate views (the consumers read these off the kernel) ------
    @property
    def shadow(self):
        return self.inner.shadow

    @property
    def stats(self):
        return self.inner.stats

    @property
    def alerts(self):
        return self.inner.alerts

    @property
    def records_replayed(self) -> int:
        return self.inner.records_replayed

    @property
    def seq(self) -> int:
        return self._seq

    @seq.setter
    def seq(self, value: int) -> None:
        # Consumers seed the cursor once, before the first batch; the
        # stream is contiguous after that.  While a match is buffering
        # the cursor equals seq0 + buffered weight, which every frame
        # exit path (apply / fallback / settle) recomputes from the
        # frame itself.
        self._seq = value

    @property
    def templates(self):
        return self.inner.templates

    @property
    def wide(self):
        return self.inner.wide

    @property
    def rules_for_pc(self):
        return self.inner.rules_for_pc

    def counters(self) -> dict[str, int]:
        return {
            "learned": self.learned,
            "hits": self.hits,
            "invalidations": self.invalidations,
            "records_elided": self.records_elided,
        }

    # -- templates ------------------------------------------------------
    def register_template(self, pc, instr, reg_reads, reg_writes, channel):
        kind, may_raise = self.inner.register_template(
            pc, instr, reg_reads, reg_writes, channel
        )
        if kind == K_GENERIC:
            reads = tuple(r for r, _ in reg_reads)
        elif kind == K_STORE:
            reads = (reg_reads[0][0],)
            if self.propagate_addresses:
                reads += tuple(r for r, _ in reg_reads[1:])
        elif kind == K_LOAD:
            reads = (
                tuple(r for r, _ in reg_reads) if self.propagate_addresses else ()
            )
        elif kind == K_SINK:
            reads = (reg_reads[0][0],)
        else:  # K_SKIP, K_IN, K_ALLOC, K_SPAWN
            reads = ()
        if kind in (K_SKIP, K_SINK, K_STORE, K_ALLOC, K_SPAWN):
            wreg = -1
        else:  # K_GENERIC, K_LOAD, K_IN
            wreg = reg_writes[0][0]
        self._fp[pc] = (kind, reads, wreg)
        return kind, may_raise

    def _resolve_fp(self, pc: int) -> tuple:
        info = self._fp.get(pc)
        if info is None:
            raise KeyError(f"no template registered for pc {pc}")
        return info

    # -- the batch interface --------------------------------------------
    def propagate_batch(self, records: bytes) -> BatchEffects:
        self.batches += 1
        n = len(records) // RECORD_SIZE
        self.records_consumed += n
        self.raised_effects = None
        agg = BatchEffects(records=n)
        kinds = records[0::RECORD_SIZE]
        if (
            self._frame is None
            and kinds.find(K_CALL) < 0
            and kinds.find(K_RET) < 0
        ):
            # Marker-free batch with no region in flight: pure delegation.
            self._feed(records, agg)
            return agg
        pos = 0
        for off in self._marker_offsets(kinds):
            if off > pos:
                self._span(records[pos:off], agg)
            self._marker(records, off, agg)
            pos = off + RECORD_SIZE
        if pos < len(records):
            self._span(records[pos:], agg)
        return agg

    @staticmethod
    def _marker_offsets(kinds: bytes) -> list[int]:
        out = []
        for byte in (K_CALL, K_RET):
            i = kinds.find(byte)
            while i >= 0:
                out.append(i * RECORD_SIZE)
                i = kinds.find(byte, i + 1)
        out.sort()
        return out

    # -- inner delegation -----------------------------------------------
    def _feed(self, data: bytes, agg: BatchEffects):
        return self._feed_at(data, self._seq, agg, advance=True)

    def _feed_at(self, data: bytes, seq: int, agg: BatchEffects, advance: bool = False):
        """Propagate ``data`` through the inner kernel anchored at ``seq``."""
        if not data:
            return BatchEffects()
        inner = self.inner
        inner.seq = seq
        try:
            eff = inner.propagate_batch(data)
        except AttackDetected:
            self._seq = inner.seq
            reff = inner.raised_effects
            self.raised_effects = BatchEffects(
                records=agg.records,
                instructions=agg.instructions + reff.instructions,
                replayed=agg.replayed + reff.replayed,
                tainted=agg.tainted + reff.tainted,
                overhead=agg.overhead + reff.overhead,
                raised=True,
            )
            raise
        if advance:
            self._seq = inner.seq
        agg.instructions += eff.instructions
        agg.replayed += eff.replayed
        agg.tainted += eff.tainted
        agg.overhead += eff.overhead
        return eff

    # -- span / marker dispatch -----------------------------------------
    def _span(self, data: bytes, agg: BatchEffects) -> None:
        if self._mode == _IDLE:
            self._feed(data, agg)
        elif self._mode == _LEARN:
            self._learn_span(data, agg)
        else:
            self._match_span(data, agg)

    def _marker(self, records: bytes, off: int, agg: BatchEffects) -> None:
        kind, tid, pc, a, b = RECORD.unpack_from(records, off)
        f = self._frame
        if f is None:
            self.markers += 1
            # Only a direct CALL at an unblacklisted site opens a region;
            # ICALL markers (a=1) and stray RETs are depth noise here, and
            # the calls nested under an unopened region summarize on
            # their own frames.
            if kind == K_CALL and a == 0:
                self._open(pc)
            return
        mb = records[off : off + RECORD_SIZE]
        if self._mode == _LEARN:
            self.markers += 1
            f["buf"] += mb
            if kind == K_CALL:
                f["depth"] += 1
            else:
                f["depth"] -= 1
                if f["depth"] == 0:
                    self._close_learn(agg)
            return
        # MATCH: the marker bytes are part of the stream guard.  Depth
        # bookkeeping and byte comparison always agree (depth is a pure
        # function of the byte stream), so a marker that fails the
        # compare is an ordinary divergence.
        s = f["summary"]
        m = f["matched"]
        if m + RECORD_SIZE <= len(s.data) and s.data[m : m + RECORD_SIZE] == mb:
            f["matched"] = m + RECORD_SIZE
            if kind == K_CALL:
                f["depth"] += 1
                return
            f["depth"] -= 1
            if f["depth"] > 0:
                return
            if f["matched"] == len(s.data):
                self._apply(s, f, agg, raise_now=False)
            else:
                # Region closed before the stored bytes ran out —
                # byte-impossible unless the summary is stale.
                self._fallback(agg)
                self._redispatch_marker(kind, pc, a, mb, agg)
            return
        self._fallback(agg)
        self._redispatch_marker(kind, pc, a, mb, agg)

    def _redispatch_marker(self, kind, pc, a, mb, agg) -> None:
        """Route a marker that diverged a match through the new mode."""
        f = self._frame
        if f is not None:  # re-learning the same region
            self.markers += 1
            f["buf"] += mb
            if kind == K_CALL:
                f["depth"] += 1
            else:
                f["depth"] -= 1
                if f["depth"] == 0:
                    self._close_learn(agg)
        else:
            self.markers += 1
            if kind == K_CALL and a == 0:
                self._open(pc)

    # -- region open ----------------------------------------------------
    def _open(self, pc: int) -> None:
        cache = self.cache
        if pc in cache.blacklist:
            return
        variants = cache.summaries.get(pc)
        if variants:
            for s in variants:
                if self._guards_ok(s):
                    self._frame = {
                        "site": pc,
                        "summary": s,
                        "matched": 0,
                        "depth": 1,
                        "seq0": self._seq,
                    }
                    self._mode = _MATCH
                    return
            # Entry miss: this call sees a pre-state no stored variant
            # covers, so learn one more (budget permitting).
            self.invalidations += 1
            if not cache.miss(pc):
                return  # blacklisted; run this call at full fidelity
        self._begin_learn(pc, self._seq, 1)

    def _guards_ok(self, s: TaintSummary) -> bool:
        shadow = self.inner.shadow
        rg = shadow.regs.get
        mg = shadow.mem.get
        for key, lab in s.freg.items():
            if rg(key) != lab:
                return False
        for addr, lab in s.fmem.items():
            if mg(addr) != lab:
                return False
        for key, existed in s.wreg.items():
            if (rg(key) is not None) != existed:
                return False
        for addr, existed in s.wmem.items():
            if (mg(addr) is not None) != existed:
                return False
        return True

    def _begin_learn(self, pc: int, seq0: int, depth: int) -> None:
        shadow = self.inner.shadow
        stats = self.inner.stats
        size0 = len(shadow.regs) + len(shadow.mem)
        self._frame = {
            "site": pc,
            "depth": depth,
            "seq0": seq0,
            "buf": bytearray(),
            "ov": 0,
            "i0": stats.instructions,
            "t0": stats.tainted_instructions,
            "s0": stats.sources,
            "k0": stats.sink_checks,
            "alerts0": len(self.inner.alerts),
            "old_peak": shadow.peak_locations,
            "size0": size0,
            "touched_r": set(),
            "touched_m": set(),
            "wrote_r": set(),
            "wrote_m": set(),
            "freg": {},
            "fmem": {},
            "wreg": {},
            "wmem": {},
        }
        # Peak-rise trick: drop the high-water mark to the entry
        # live-set size so the region's own peak delta is observable;
        # every frame exit restores max(old_peak, current peak), which
        # is exact because old_peak >= size0 always held.
        shadow.peak_locations = size0
        self._mode = _LEARN

    # -- learning -------------------------------------------------------
    def _learn_span(self, data: bytes, agg: BatchEffects) -> None:
        f = self._frame
        # Decode the footprint *before* the records execute: a location
        # not yet touched still carries its pre-region label.
        if not self._decode_footprint(data, f):
            # ALLOC/SPAWN or a wide record inside the region: not
            # summarizable, ever.
            self._abort_frame(blacklist=True)
            self._feed(data, agg)
            return
        f["buf"] += data
        if len(f["buf"]) > self.cache.max_region_records * RECORD_SIZE:
            self._abort_frame(blacklist=True)
            self._feed(data, agg)
            return
        try:
            eff = self._feed(data, agg)
        except AttackDetected as exc:
            self._finish_raised(f, data, exc)
            raise
        f["ov"] += eff.overhead

    def _decode_footprint(self, data: bytes, f: dict) -> bool:
        touched_r = f["touched_r"]
        touched_m = f["touched_m"]
        wrote_r = f["wrote_r"]
        wrote_m = f["wrote_m"]
        freg = f["freg"]
        fmem = f["fmem"]
        wreg = f["wreg"]
        wmem = f["wmem"]
        shadow = self.inner.shadow
        rg = shadow.regs.get
        mg = shadow.mem.get
        fp_get = self._fp.get
        for kind, tid, pc, a, b in RECORD.iter_unpack(data):
            if kind == K_SKIP or kind >= K_CALL:
                continue
            info = fp_get(pc)
            if info is None:
                info = self._resolve_fp(pc)
            tkind, reads, wr = info
            if tkind == K_ALLOC or tkind == K_SPAWN:
                return False
            if b == _WIDE and (tkind == K_LOAD or tkind == K_STORE):
                return False  # the address is not in the record bytes
            if tkind == K_LOAD and a not in touched_m:
                touched_m.add(a)
                fmem[a] = mg(a)
            for r in reads:
                key = (tid, r)
                if key not in touched_r:
                    touched_r.add(key)
                    freg[key] = rg(key)
            if tkind == K_STORE:
                if a not in touched_m:
                    touched_m.add(a)
                    wmem[a] = mg(a) is not None
                wrote_m.add(a)
            elif wr >= 0:
                key = (tid, wr)
                if key not in touched_r:
                    touched_r.add(key)
                    wreg[key] = rg(key) is not None
                wrote_r.add(key)
        return True

    def _close_learn(self, agg: BatchEffects) -> None:
        f = self._frame
        inner = self.inner
        shadow = inner.shadow
        stats = inner.stats
        peak_now = shadow.peak_locations
        rise = peak_now - f["size0"]
        shadow.peak_locations = max(f["old_peak"], peak_now)
        regs_get = shadow.regs.get
        mem_get = shadow.mem.get
        s = TaintSummary(
            site=f["site"],
            data=bytes(f["buf"]),
            freg=f["freg"],
            fmem=f["fmem"],
            wreg=f["wreg"],
            wmem=f["wmem"],
            oreg={k: regs_get(k) for k in f["wrote_r"]},
            omem={a: mem_get(a) for a in f["wrote_m"]},
            d_instr=stats.instructions - f["i0"],
            d_taint=stats.tainted_instructions - f["t0"],
            d_sources=stats.sources - f["s0"],
            d_sink_checks=stats.sink_checks - f["k0"],
            overhead=f["ov"],
            rise=rise,
            alerts=tuple(
                (al.seq - f["seq0"], al) for al in inner.alerts[f["alerts0"] :]
            ),
        )
        self.cache.store(f["site"], s)
        self.learned += 1
        self._frame = None
        self._mode = _IDLE

    def _finish_raised(self, f: dict, data: bytes, exc: AttackDetected) -> None:
        """A sink raised while learning: store the truncated region iff
        the raise consumed this whole span (the raising record is the
        span's last — always true for the inline producer, which
        flushes right after raise-capable sinks).  ``f["buf"]`` already
        ends with ``data`` — the learn path buffers a span before
        feeding it — so the stored region must not append it again (a
        phantom trailing record would make replay wait for bytes that
        never come and sail past the raise point)."""
        inner = self.inner
        shadow = inner.shadow
        stats = inner.stats
        reff = inner.raised_effects
        complete = reff is not None and reff.instructions == self._span_weight(data)
        if complete and len(f["buf"]) <= (
            self.cache.max_region_records * RECORD_SIZE
        ):
            peak_now = shadow.peak_locations
            s = TaintSummary(
                site=f["site"],
                data=bytes(f["buf"]),
                freg=f["freg"],
                fmem=f["fmem"],
                wreg=f["wreg"],
                wmem=f["wmem"],
                oreg={k: shadow.regs.get(k) for k in f["wrote_r"]},
                omem={a: shadow.mem.get(a) for a in f["wrote_m"]},
                d_instr=stats.instructions - f["i0"],
                d_taint=stats.tainted_instructions - f["t0"],
                d_sources=stats.sources - f["s0"],
                d_sink_checks=stats.sink_checks - f["k0"],
                overhead=f["ov"] + (reff.overhead if reff is not None else 0),
                rise=peak_now - f["size0"],
                alerts=tuple(
                    (al.seq - f["seq0"], al) for al in inner.alerts[f["alerts0"] :]
                ),
                raised=True,
                raise_culprit=getattr(exc, "culprit_pc", -1),
            )
            self.cache.store(f["site"], s)
            self.learned += 1
        shadow.peak_locations = max(f["old_peak"], shadow.peak_locations)
        self._frame = None
        self._mode = _IDLE

    @staticmethod
    def _span_weight(data: bytes) -> int:
        w = 0
        for kind, _tid, _pc, a, _b in RECORD.iter_unpack(data):
            if kind == K_SKIP:
                w += a
            elif kind < K_CALL:
                w += 1
        return w

    # -- matching -------------------------------------------------------
    def _match_span(self, data: bytes, agg: BatchEffects) -> None:
        f = self._frame
        s = f["summary"]
        m = f["matched"]
        end = m + len(data)
        if end <= len(s.data) and s.data[m:end] == data:
            f["matched"] = end
            if s.raised and end == len(s.data):
                # The stored region ends at its raising sink record.
                self._apply(s, f, agg, raise_now=True)
            return
        self._fallback(agg)
        self._span(data, agg)  # re-dispatch the divergent span

    def _fallback(self, agg: BatchEffects) -> None:
        """Stream guard failed mid-region: propagate the buffered prefix
        for real and (relearn budget permitting) keep learning the rest
        of this very call — the shadow was untouched while matching, so
        the footprint decode over the prefix is still exact."""
        f = self._frame
        site = f["site"]
        s = f["summary"]
        prefix = s.data[: f["matched"]]
        seq0 = f["seq0"]
        depth = f["depth"]
        self.invalidations += 1
        allowed = self.cache.invalidate(site, s)
        self._frame = None
        self._mode = _IDLE
        if allowed:
            self._begin_learn(site, seq0, depth)
            f2 = self._frame
            if prefix:
                if not self._decode_footprint(prefix, f2):
                    self._abort_frame(blacklist=True)
                    self._feed_prefix(prefix, seq0, agg)
                    return
                f2["buf"] += prefix
                self._feed_prefix(prefix, seq0, agg)
        elif prefix:
            self._feed_prefix(prefix, seq0, agg)

    def _feed_prefix(self, prefix: bytes, seq0: int, agg: BatchEffects) -> None:
        # A fully-matched prefix of previously non-raising learned bytes
        # cannot raise (same bytes, same pre-state labels), so no
        # AttackDetected handling is needed here; defensively restore
        # the frame anyway if one escapes.
        try:
            self._feed_at(prefix, seq0, agg)
        except AttackDetected:
            if self._frame is not None:
                self._abort_frame(blacklist=False)
            raise
        self._seq = self.inner.seq

    def _apply(self, s: TaintSummary, f: dict, agg: BatchEffects, raise_now: bool) -> None:
        inner = self.inner
        shadow = inner.shadow
        regs = shadow.regs
        mem = shadow.mem
        size_now = len(regs) + len(mem)
        for key, lab in s.oreg.items():
            if lab is None:
                regs.pop(key, None)
            else:
                regs[key] = lab
        for addr, lab in s.omem.items():
            if lab is None:
                mem.pop(addr, None)
            else:
                mem[addr] = lab
        if size_now + s.rise > shadow.peak_locations:
            shadow.peak_locations = size_now + s.rise
        stats = inner.stats
        stats.instructions += s.d_instr
        stats.tainted_instructions += s.d_taint
        stats.sources += s.d_sources
        stats.sink_checks += s.d_sink_checks
        seq0 = f["seq0"]
        alerts = inner.alerts
        last = None
        for rel, al in s.alerts:
            last = replace(al, seq=seq0 + rel)
            alerts.append(last)
        self._seq = seq0 + s.d_instr
        n_rec = s.records
        self.records_elided += n_rec
        self.cache.records_elided += n_rec
        self.hits += 1
        self.cache.hits += 1
        self._frame = None
        self._mode = _IDLE
        agg.instructions += s.d_instr
        agg.tainted += s.d_taint
        agg.overhead += s.overhead
        if raise_now:
            self.raised_effects = BatchEffects(
                records=agg.records,
                instructions=agg.instructions,
                replayed=agg.replayed,
                tainted=agg.tainted,
                overhead=agg.overhead,
                raised=True,
            )
            raise AttackDetected(str(last), culprit_pc=s.raise_culprit)

    # -- frame teardown -------------------------------------------------
    def _abort_frame(self, blacklist: bool) -> None:
        f = self._frame
        shadow = self.inner.shadow
        shadow.peak_locations = max(f["old_peak"], shadow.peak_locations)
        if blacklist:
            self.cache.blacklist.add(f["site"])
        self._frame = None
        self._mode = _IDLE

    def settle(self) -> int:
        """Resolve an in-flight region at stream end.

        A pending match is fed through the inner kernel for real (it
        cannot raise — the buffered prefix matched non-raising learned
        bytes); a pending learn frame already propagated everything and
        just needs its peak bookkeeping restored.  Returns the modeled
        overhead cycles of any records propagated here so the caller
        can charge them.
        """
        f = self._frame
        if f is None:
            return 0
        if self._mode == _MATCH:
            s = f["summary"]
            prefix = s.data[: f["matched"]]
            seq0 = f["seq0"]
            self._frame = None
            self._mode = _IDLE
            agg = BatchEffects()
            if prefix:
                self._feed_at(prefix, seq0, agg)
                self._seq = self.inner.seq
            return agg.overhead
        self._abort_frame(blacklist=False)
        return 0


__all__ = [
    "DEFAULT_MAX_REGION_RECORDS",
    "DEFAULT_RELEARN_LIMIT",
    "SummaryCache",
    "SummaryKernel",
    "TaintSummary",
    "cache_signature",
    "summarizable",
]
