"""Unit tests for the compact whole-execution-trace (WET) representation:
lossless round trip, interval compression, compact-form slicing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Opcode
from repro.lang import compile_source
from repro.ontrac import (
    CompactWET,
    DepKind,
    DepRecord,
    Interval,
    OntracConfig,
    compact,
    compact_backward_slice,
)
from repro.runner import ProgramRunner
from repro.slicing import backward_slice
from repro.workloads.generators import generate
from repro.workloads.spec_like import hashloop, matmul, sort

from .ddg_oracle import OracleDDG


def traced_ddg(workload_or_src, inputs=None):
    if isinstance(workload_or_src, str):
        cp = compile_source(workload_or_src)
        runner = ProgramRunner(cp.program, inputs=inputs or {})
    else:
        runner = workload_or_src.runner()
        cp = workload_or_src.compiled
    _, tracer, _ = runner.run_traced(OntracConfig.unoptimized(buffer_bytes=1 << 26))
    return tracer.dependence_graph(), cp


class TestInterval:
    def test_pairs_enumeration(self):
        iv = Interval(c0=10, p0=5, stride_c=3, stride_p=3, length=4)
        assert list(iv.pairs()) == [(10, 5), (13, 8), (16, 11), (19, 14)]

    def test_producer_lookup(self):
        iv = Interval(c0=10, p0=5, stride_c=3, stride_p=2, length=4)
        assert iv.producer_for(10) == 5
        assert iv.producer_for(16) == 9
        assert iv.producer_for(11) is None  # off-stride
        assert iv.producer_for(22) is None  # past the end
        assert iv.producer_for(7) is None  # before the start

    def test_singleton_interval(self):
        iv = Interval(c0=4, p0=2, stride_c=0, stride_p=0, length=1)
        assert iv.producer_for(4) == 2
        assert iv.producer_for(5) is None


class TestCompaction:
    def test_lossless_round_trip(self):
        ddg, _ = traced_ddg(matmul(6))
        wet = compact(ddg)
        restored, original = (OracleDDG.of(g.buffer) for g in (wet.to_ddg(), ddg))
        assert restored.nodes == original.nodes  # every node's pc and tid
        assert restored.backward.keys() == original.backward.keys()
        for seq, edges in original.backward.items():
            assert sorted(restored.backward[seq]) == sorted(edges)
        assert restored.complete and original.complete

    def test_round_trip_keeps_window_truncation(self):
        # An evicting window: slices that ran off its edge must still
        # say so after compaction and decompression.
        for workload in (matmul(6), sort(32), hashloop()):
            _, tracer, _ = workload.runner().run_traced(OntracConfig(buffer_bytes=2048))
            ddg = tracer.dependence_graph()
            assert not ddg.complete
            restored = compact(ddg).to_ddg()
            assert not restored.complete
            seqs = sorted(s for s, _ in ddg.node_items())
            crits = seqs[:: max(1, len(seqs) // 40)]
            truncated = 0
            for crit in crits:
                a, b = backward_slice(ddg, crit), backward_slice(restored, crit)
                assert (a.seqs, a.pcs, a.truncated) == (b.seqs, b.pcs, b.truncated), \
                    (workload.name, crit)
                truncated += a.truncated
            assert truncated, workload.name

    def test_loop_edges_compress_well(self):
        # Loop-carried dependences execute in lockstep: few intervals.
        ddg, _ = traced_ddg(
            """
            fn main() {
                var s = 0;
                var i = 0;
                while (i < 100) { s = s + i; i = i + 1; }
                out(s, 1);
            }
            """
        )
        wet = compact(ddg)
        assert wet.compression_ratio > 5
        # the s += i edge: 100 dynamic instances in O(1) intervals
        big = max(wet.edges.values(), key=lambda e: e.dynamic_count)
        assert big.dynamic_count >= 99
        assert len(big.intervals) <= 4

    def test_compression_on_kernels(self):
        for workload in (matmul(6), sort(32)):
            ddg, _ = traced_ddg(workload)
            wet = compact(ddg)
            assert wet.compression_ratio > 3, workload.name
            assert wet.raw_edges == ddg.edge_count

    def test_straightline_code_compresses_little(self):
        ddg, _ = traced_ddg("fn main() { var a = 1; var b = a + 2; out(b, 1); }")
        wet = compact(ddg)
        # every static edge executes once: no interval wins
        assert all(e.dynamic_count == len(e.intervals) for e in wet.edges.values())


class TestCompactSlicing:
    def test_matches_full_slice_on_programs(self):
        for seed in range(6):
            gp = generate(seed)
            _, tracer, _ = gp.runner().run_traced(
                OntracConfig.unoptimized(buffer_bytes=1 << 26)
            )
            ddg = tracer.dependence_graph()
            wet = compact(ddg)
            out_pcs = [
                pc for pc in range(len(gp.compiled.program.code))
                if gp.compiled.program.code[pc].opcode is Opcode.OUT
            ]
            for out_pc in out_pcs:
                criterion = ddg.last_instance_of_pc(out_pc)
                if criterion is None:
                    continue
                full = backward_slice(ddg, criterion).seqs
                fast = compact_backward_slice(wet, criterion)
                assert full == fast, (seed, out_pc)

    def test_kind_filter(self):
        ddg, cp = traced_ddg(
            "fn main() { var x = in(0); if (x) { out(1, 1); } }", inputs={0: [1]}
        )
        wet = compact(ddg)
        out_pc = max(
            pc for pc in range(len(cp.program.code))
            if cp.program.code[pc].opcode is Opcode.OUT
        )
        criterion = ddg.last_instance_of_pc(out_pc)
        data_only = compact_backward_slice(
            wet, criterion, kinds=frozenset({DepKind.REG, DepKind.MEM})
        )
        everything = compact_backward_slice(wet, criterion)
        assert data_only <= everything

    def test_unknown_criterion(self):
        ddg, _ = traced_ddg("fn main() { out(1, 1); }")
        wet = compact(ddg)
        import pytest

        with pytest.raises(KeyError):
            compact_backward_slice(wet, 10**9)


class TestIntervalCompressionProperty:
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=500),
                st.integers(min_value=0, max_value=500),
            ),
            max_size=60,
            unique_by=lambda p: p,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_compress_pairs_lossless(self, pairs):
        from repro.ontrac.wet import _compress_pairs

        pairs = sorted(set(pairs))
        intervals = _compress_pairs(pairs)
        restored = sorted(pair for iv in intervals for pair in iv.pairs())
        assert restored == pairs

    @given(
        start=st.integers(min_value=0, max_value=100),
        stride=st.integers(min_value=1, max_value=9),
        length=st.integers(min_value=3, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_perfect_stride_collapses_to_one_interval(self, start, stride, length):
        from repro.ontrac.wet import _compress_pairs

        pairs = [(start + i * stride, start + 1 + i * stride) for i in range(length)]
        intervals = _compress_pairs(pairs)
        assert len(intervals) == 1
        assert intervals[0].length == length
