"""Unit tests for function-summary DIFT (repro.dift.summaries).

The differential and fuzz suites prove summaries hold bit-identity on
whole workloads; these tests pin the mechanisms down one at a time:
cache signatures keep fidelities apart, the guard machinery catches
aliased writes and divergent control flow, footprint variants absorb
stable polymorphism, overflowing sink values survive replay, raising
regions re-raise at the same point on a warm cache, and the relearn /
variant budgets actually blacklist.
"""

import zlib

import pytest

from repro.dift import BoolTaintPolicy, DIFTEngine, SinkRule
from repro.dift.kernel import RecordStreamCapture, build_kernel
from repro.dift.policy import PCTaintPolicy
from repro.dift.summaries import (
    SummaryCache,
    SummaryKernel,
    TaintSummary,
    cache_signature,
    summarizable,
)
from repro.lang import compile_source
from repro.vm import Machine, RunStatus
from repro.workloads.generators import call_heavy

RECORD_SINKS = [SinkRule(kind="out", action="record")]
ICALL_SINKS = [SinkRule(kind="icall")]

# Two helpers, one nested: mix(t) has a stable tainted footprint and
# mix(i) a stable clean one, so both converge to summary hits even
# though i changes every iteration (register *values* never reach the
# record stream — only control flow, addresses and sink payloads do).
CALLS_SRC = """
fn add3(x) { return x + 3; }
fn mix(x) {
    var a = x + 1;
    var b = a * 2;
    return add3(a + b);
}
fn main() {
    var t = in(0);
    var acc = 0;
    var i = 0;
    while (i < 6) {
        acc = acc + mix(t) + mix(i);
        i = i + 1;
    }
    out(acc, 1);
}
"""


def run_engine(src, inputs=None, sinks=None, summaries=False, cache=None,
               kernel=None):
    cp = compile_source(src)
    m = Machine(cp.program)
    for chan, values in (inputs or {}).items():
        m.io.provide(chan, values)
    eng = DIFTEngine(
        BoolTaintPolicy(), sinks=sinks, kernel=kernel,
        summaries=summaries, summary_cache=cache,
    ).attach(m)
    res = m.run()
    return m, res, eng


def assert_same_observables(base, summ):
    assert [str(a) for a in base.alerts] == [str(a) for a in summ.alerts]
    assert base.stats == summ.stats
    assert base.shadow.regs == summ.shadow.regs
    assert base.shadow.mem_items() == summ.shadow.mem_items()
    assert base.shadow.peak_locations == summ.shadow.peak_locations


# ---------------------------------------------------------------------------
# Cache signatures and policy gating
# ---------------------------------------------------------------------------
class TestSignatures:
    def test_fidelities_get_distinct_signatures(self):
        sigs = {
            cache_signature(BoolTaintPolicy(), None, ICALL_SINKS, False),
            cache_signature(PCTaintPolicy(), None, ICALL_SINKS, False),
            cache_signature(BoolTaintPolicy(), None, RECORD_SINKS, False),
            cache_signature(BoolTaintPolicy(), frozenset({0}), ICALL_SINKS, False),
            cache_signature(BoolTaintPolicy(), None, ICALL_SINKS, True),
        }
        assert len(sigs) == 5

    def test_mismatched_cache_rejected(self):
        # A dift-fidelity cache must never serve a full-fidelity kernel.
        wrong = SummaryCache(
            cache_signature(PCTaintPolicy(), None, ICALL_SINKS, False)
        )
        kern = build_kernel("reference", BoolTaintPolicy(), sinks=ICALL_SINKS)
        with pytest.raises(ValueError, match="signature mismatch"):
            SummaryKernel(kern, cache=wrong)

    def test_only_exact_scalar_policies_summarizable(self):
        class Wider(BoolTaintPolicy):
            pass

        assert summarizable(BoolTaintPolicy())
        assert summarizable(PCTaintPolicy())
        assert not summarizable(Wider())
        with pytest.raises(ValueError, match="not summarizable"):
            SummaryKernel(build_kernel("reference", Wider(), sinks=ICALL_SINKS))


# ---------------------------------------------------------------------------
# TaintSummary and SummaryCache bookkeeping
# ---------------------------------------------------------------------------
def _dummy_summary(site=5, data=b"\x00" * 48):
    return TaintSummary(
        site=site, data=data, freg={(0, 1): True}, fmem={8: None},
        wreg={(0, 2): False}, wmem={}, oreg={(0, 2): True}, omem={},
        d_instr=2, d_taint=1, d_sources=0, d_sink_checks=0,
        overhead=0, rise=1,
    )


class TestCache:
    def test_region_hash_and_sizes(self):
        s = _dummy_summary(data=b"\x07" * 72)
        assert s.region_hash == zlib.crc32(b"\x07" * 72)
        assert s.footprint_size == 3
        assert s.records == 3

    def test_variant_overflow_blacklists(self):
        cache = SummaryCache("sig", max_variants=2)
        cache.store(5, _dummy_summary())
        cache.store(5, _dummy_summary())
        assert cache.learned == 2
        assert len(cache.summaries[5]) == 2
        # A third unseen footprint exhausts the variant budget.
        assert not cache.miss(5)
        assert 5 in cache.blacklist
        assert 5 not in cache.summaries
        assert cache.invalidations == 1

    def test_relearn_limit_blacklists(self):
        cache = SummaryCache("sig", relearn_limit=2)
        s1, s2 = _dummy_summary(), _dummy_summary()
        cache.store(5, s1)
        cache.store(5, s2)
        # Byte divergence drops only the diverged variant.
        assert cache.invalidate(5, s1)
        assert cache.summaries[5] == [s2]
        assert not cache.invalidate(5, s2)  # hits the relearn limit
        assert 5 in cache.blacklist
        assert 5 not in cache.summaries


# ---------------------------------------------------------------------------
# Engine-level replay: identity, hits, overflow, variants
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ["array", "reference"])
@pytest.mark.parametrize(
    "base_summaries", [False, True], ids=["base-plain", "base-summaries"]
)
class TestEngineReplay:
    """Warm-cache summary runs against a base run of the same kernel,
    whose own summaries are off or on (a cold private cache)."""

    def test_call_regions_hit_and_stay_identical(self, kernel, base_summaries):
        inputs = {0: [41]}
        _, res_b, base = run_engine(
            CALLS_SRC, inputs=inputs, sinks=RECORD_SINKS, kernel=kernel,
            summaries=base_summaries,
        )
        cache = SummaryCache(
            cache_signature(BoolTaintPolicy(), None, RECORD_SINKS, False)
        )
        _, res_s, summ = run_engine(
            CALLS_SRC, inputs=inputs, sinks=RECORD_SINKS, kernel=kernel,
            summaries=True, cache=cache,
        )
        assert res_b.status is res_s.status is RunStatus.EXITED
        assert_same_observables(base, summ)
        # 12 mix() calls on 2 stable footprints: learns, then hits.
        assert cache.hits > 0
        assert cache.records_elided > 0
        assert not cache.blacklist

    def test_i64_overflow_sink_values_survive_replay(self, kernel, base_summaries):
        src = """
        fn boom(x) {
            var big = 1;
            var i = 0;
            while (i < 70) { big = big * 2; i = i + 1; }
            out(big + x, 1);
            return 0;
        }
        fn main() {
            var t = in(0);
            var k = 0;
            var z = 0;
            while (k < 3) { z = boom(t); k = k + 1; }
        }
        """
        inputs = {0: [3]}
        _, _, base = run_engine(
            src, inputs=inputs, sinks=RECORD_SINKS, kernel=kernel,
            summaries=base_summaries,
        )
        cache = SummaryCache(
            cache_signature(BoolTaintPolicy(), None, RECORD_SINKS, False)
        )
        _, _, summ = run_engine(
            src, inputs=inputs, sinks=RECORD_SINKS, summaries=True, cache=cache,
            kernel=kernel,
        )
        # 2**70 + 3 overflows the wire format's i64 payload; the replayed
        # alerts must carry the true value, not the clamped one.
        assert [al.value for al in base.alerts] == [2**70 + 3] * 3
        assert_same_observables(base, summ)
        assert cache.hits >= 1

    def test_aliased_writes_never_misapply(self, kernel, base_summaries):
        # poke() stores through a different address every call: the
        # learned store set is wrong for every later call, so the byte
        # guard must reject each one (addresses live in the records).
        src = """
        fn poke(p, v) {
            p[0] = v;
            return p[0];
        }
        fn main() {
            var buf = alloc(8);
            var t = in(0);
            var i = 0;
            var acc = 0;
            while (i < 8) {
                acc = acc + poke(buf + i, t + i);
                i = i + 1;
            }
            out(acc, 1);
        }
        """
        inputs = {0: [9]}
        _, _, base = run_engine(
            src, inputs=inputs, sinks=RECORD_SINKS, kernel=kernel,
            summaries=base_summaries,
        )
        cache = SummaryCache(
            cache_signature(BoolTaintPolicy(), None, RECORD_SINKS, False)
        )
        _, _, summ = run_engine(
            src, inputs=inputs, sinks=RECORD_SINKS, summaries=True, cache=cache,
            kernel=kernel,
        )
        assert_same_observables(base, summ)
        assert cache.invalidations > 0

    def test_divergent_control_flow_blacklists_site(self, kernel, base_summaries):
        # varloop(i) runs a different trip count every call: every
        # re-match diverges, and after relearn_limit failures the site
        # must give up rather than keep buffering.
        src = """
        fn varloop(n) {
            var s = 0;
            var i = 0;
            while (i < n) { s = s + n; i = i + 1; }
            return s;
        }
        fn main() {
            var t = in(0);
            var acc = t;
            var i = 0;
            while (i < 8) { acc = acc + varloop(i); i = i + 1; }
            out(acc, 1);
        }
        """
        inputs = {0: [5]}
        _, _, base = run_engine(
            src, inputs=inputs, sinks=RECORD_SINKS, kernel=kernel,
            summaries=base_summaries,
        )
        cache = SummaryCache(
            cache_signature(BoolTaintPolicy(), None, RECORD_SINKS, False)
        )
        _, _, summ = run_engine(
            src, inputs=inputs, sinks=RECORD_SINKS, summaries=True, cache=cache,
            kernel=kernel,
        )
        assert_same_observables(base, summ)
        assert cache.invalidations >= cache.relearn_limit
        assert cache.blacklist

    def test_raising_region_replays_raise_on_warm_cache(self, kernel, base_summaries):
        # The icall hijack fires inside a helper region.  Run 1 learns
        # the truncated raising region; run 2 replays it and must fail
        # at the same pc/seq with the same alert.
        src = """
        fn greet(x) { out(100 + x, 1); }
        fn fire(fp) { icall(fp, 7); }
        fn main() {
            var buf = alloc(4);
            var fpv = alloc(1);
            fpv[0] = fnid(greet);
            var n = in(0);
            var i = 0;
            while (i < n) {
                buf[i] = in(0);
                i = i + 1;
            }
            var j = 0;
            while (j < 2) { fire(fpv[0]); j = j + 1; }
        }
        """
        inputs = {0: [5, 0, 0, 0, 0, 1]}
        _, res_b, base = run_engine(
            src, inputs=inputs, sinks=ICALL_SINKS, kernel=kernel,
            summaries=base_summaries,
        )
        assert res_b.status is RunStatus.FAILED
        cache = SummaryCache(
            cache_signature(BoolTaintPolicy(), None, ICALL_SINKS, False)
        )
        _, res_1, summ_1 = run_engine(
            src, inputs=inputs, sinks=ICALL_SINKS, summaries=True, cache=cache,
            kernel=kernel,
        )
        learned_before = cache.learned
        _, res_2, summ_2 = run_engine(
            src, inputs=inputs, sinks=ICALL_SINKS, summaries=True, cache=cache,
            kernel=kernel,
        )
        for res, summ in ((res_1, summ_1), (res_2, summ_2)):
            assert res.status is RunStatus.FAILED
            assert (res.failure.kind, res.failure.pc, res.failure.seq) == (
                res_b.failure.kind, res_b.failure.pc, res_b.failure.seq
            )
            assert [str(a) for a in summ.alerts] == [str(a) for a in base.alerts]
        # The second run really replayed: a hit, and nothing new learned.
        assert cache.hits >= 1
        assert cache.learned == learned_before


# ---------------------------------------------------------------------------
# Stream-level: polymorphic variants and the record ledger
# ---------------------------------------------------------------------------
class TestStreamReplay:
    def test_polymorphic_footprints_converge_to_variants(self):
        # 50% of calls see a clean argument, 50% a tainted one: two
        # stable footprints per site.  Variants must absorb both (no
        # blacklisting) after at most one learn each.
        w = call_heavy(2, iterations=16, stmts=4, name="p50-tiny")
        runner = w.runner()
        m = runner.machine()
        cap = RecordStreamCapture(markers=True).attach(m)
        m.run(max_instructions=runner.max_instructions)
        cap.finish()

        base = cap.prime(
            build_kernel("reference", BoolTaintPolicy(), sinks=RECORD_SINKS)
        )
        for chunk in cap.chunks:
            base.propagate_batch(chunk)

        summ = SummaryKernel(
            build_kernel("reference", BoolTaintPolicy(), sinks=RECORD_SINKS)
        )
        cap.prime(summ)
        for chunk in cap.chunks:
            summ.propagate_batch(chunk)
        summ.settle()

        assert_same_observables(base, summ)
        assert summ.invalidations > 0  # the entry misses that grew variants
        assert summ.hits > summ.learned
        assert not summ.cache.blacklist
        # The record ledger: every record is a marker, elided, or inner.
        assert summ.records_consumed == (
            summ.markers + summ.records_elided + summ.inner.records_consumed
        )
