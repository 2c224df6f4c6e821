"""Property-based tests (hypothesis) on core data structures and
invariants: roBDD set algebra, trace buffer accounting, VM determinism,
DDG/slicing monotonicity, scheduler reproducibility."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.apps.lineage import BDDManager
from repro.dift import BoolTaintPolicy, DIFTEngine, ShadowState, SinkRule
from repro.fastpath import FastPathConfig
from repro.lang import compile_source
from repro.ontrac import (
    DepKind,
    DepRecord,
    OntracConfig,
    PackedDDG,
    PackedTraceBuffer,
    build_ddg,
)
from repro.runner import ProgramRunner
from repro.slicing import backward_slice, forward_slice
from repro.util.rng import DeterministicRng
from repro.vm import Machine, RandomScheduler
from repro.workloads import GeneratorConfig, generate

BITS = 8
small_sets = st.sets(st.integers(min_value=0, max_value=(1 << BITS) - 1), max_size=24)


# --- roBDD algebra ----------------------------------------------------------
class TestBDDProperties:
    @given(a=small_sets, b=small_sets)
    @settings(max_examples=60, deadline=None)
    def test_union_matches_set_union(self, a, b):
        mgr = BDDManager(bits=BITS)
        na, nb = mgr.from_iterable(a), mgr.from_iterable(b)
        assert mgr.to_set(mgr.union(na, nb)) == a | b

    @given(a=small_sets, b=small_sets)
    @settings(max_examples=60, deadline=None)
    def test_intersect_matches_set_intersection(self, a, b):
        mgr = BDDManager(bits=BITS)
        na, nb = mgr.from_iterable(a), mgr.from_iterable(b)
        assert mgr.to_set(mgr.intersect(na, nb)) == a & b

    @given(a=small_sets)
    @settings(max_examples=60, deadline=None)
    def test_count_matches_cardinality(self, a):
        mgr = BDDManager(bits=BITS)
        assert mgr.count(mgr.from_iterable(a)) == len(a)

    @given(a=small_sets, probe=st.integers(min_value=0, max_value=(1 << BITS) - 1))
    @settings(max_examples=60, deadline=None)
    def test_contains_matches_membership(self, a, probe):
        mgr = BDDManager(bits=BITS)
        assert mgr.contains(mgr.from_iterable(a), probe) == (probe in a)

    @given(a=small_sets, b=small_sets)
    @settings(max_examples=40, deadline=None)
    def test_canonicity(self, a, b):
        # Equal sets built differently intern to the same node.
        mgr = BDDManager(bits=BITS)
        na = mgr.from_iterable(sorted(a))
        nb = mgr.from_iterable(sorted(a, reverse=True))
        assert na == nb
        # union is commutative at the node level
        x, y = mgr.from_iterable(a), mgr.from_iterable(b)
        assert mgr.union(x, y) == mgr.union(y, x)

    @given(a=small_sets, b=small_sets, c=small_sets)
    @settings(max_examples=30, deadline=None)
    def test_union_associative(self, a, b, c):
        mgr = BDDManager(bits=BITS)
        na, nb, nc = (mgr.from_iterable(s) for s in (a, b, c))
        assert mgr.union(mgr.union(na, nb), nc) == mgr.union(na, mgr.union(nb, nc))


# --- trace buffer ---------------------------------------------------------------
record_strategy = st.builds(
    DepRecord,
    kind=st.sampled_from([DepKind.REG, DepKind.MEM, DepKind.BRANCH, DepKind.IREG]),
    consumer_seq=st.integers(min_value=0, max_value=10_000),
    consumer_pc=st.integers(min_value=0, max_value=100),
    producer_seq=st.integers(min_value=0, max_value=10_000),
    producer_pc=st.integers(min_value=0, max_value=100),
)


class TestBufferProperties:
    @given(records=st.lists(record_strategy, max_size=200),
           capacity=st.integers(min_value=1, max_value=500))
    @settings(max_examples=50, deadline=None)
    def test_capacity_never_exceeded(self, records, capacity):
        buf = PackedTraceBuffer(capacity_bytes=capacity)
        for rec in records:
            buf.append(rec)
            assert buf.current_bytes <= capacity or all(
                r.bytes == 0 for r in buf.records
            )

    @given(records=st.lists(record_strategy, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_byte_accounting_consistent(self, records):
        buf = PackedTraceBuffer(capacity_bytes=10_000_000)
        for rec in records:
            buf.append(rec)
        assert buf.current_bytes == sum(r.bytes for r in buf.records)
        assert buf.stats.appended == len(records)
        assert buf.stats.appended_bytes == sum(r.bytes for r in records)

    @given(records=st.lists(record_strategy, min_size=1, max_size=100),
           capacity=st.integers(min_value=6, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_eviction_is_oldest_first(self, records, capacity):
        buf = PackedTraceBuffer(capacity_bytes=capacity)
        for rec in records:
            buf.append(rec)
        survivors = [
            DepRecord(r.kind, r.consumer_seq, r.consumer_pc,
                      r.producer_seq, r.producer_pc, r.tid)
            for r in buf.records
        ]
        assert survivors == [
            r if r.kind is not DepKind.BRANCH
            else DepRecord(r.kind, r.consumer_seq, r.consumer_pc, tid=r.tid)
            for r in records[len(records) - len(survivors):]
        ]


# --- DDG / slicing ------------------------------------------------------------------
class TestSliceProperties:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_backward_slice_closed_under_producers(self, seed):
        rng = DeterministicRng(seed)
        records = []
        for consumer in range(2, 60):
            for _ in range(rng.randint(0, 2)):
                producer = rng.randint(0, consumer - 1)
                records.append(
                    DepRecord(DepKind.REG, consumer, consumer % 7, producer, producer % 7)
                )
        ddg = build_ddg(records)
        if not ddg.nodes:
            return
        criterion = max(ddg.nodes)
        sl = backward_slice(ddg, criterion)
        for seq in sl.seqs:
            for producer, kind in ddg.backward.get(seq, []):
                assert producer in sl.seqs

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_forward_backward_duality(self, seed):
        rng = DeterministicRng(seed)
        records = []
        for consumer in range(2, 40):
            producer = rng.randint(0, consumer - 1)
            records.append(DepRecord(DepKind.REG, consumer, 0, producer, 0))
        ddg = build_ddg(records)
        nodes = sorted(ddg.nodes)
        a, b = nodes[0], nodes[-1]
        # b in forward(a) iff a in backward(b)
        assert (b in forward_slice(ddg, a).seqs) == (a in backward_slice(ddg, b).seqs)


# --- indexed engine vs dict-walking BFS equivalence --------------------------------
class TestPackedSliceEquivalence:
    """100 seeded random dependence streams through the packed store;
    random criteria and random kinds sets must slice identically under
    the indexed engine and the dict-walking BFS over ``build_ddg`` of
    the same stored records — including truncation under small,
    evicting windows."""

    EDGE_KINDS = [DepKind.REG, DepKind.MEM, DepKind.IREG, DepKind.IMEM,
                  DepKind.CONTROL, DepKind.SUMMARY, DepKind.WAR, DepKind.WAW]

    def test_hundred_seed_random_slices(self):
        for seed in range(100):
            rng = DeterministicRng(seed)
            capacity = (512, 4096, 1 << 20)[seed % 3]
            packed = PackedTraceBuffer(capacity_bytes=capacity)
            n = 40 + (seed % 4) * 40
            for consumer in range(n):
                recs = [DepRecord(DepKind.INSTR, consumer, consumer % 13,
                                  tid=consumer % 3)]
                if consumer:
                    for _ in range(rng.randint(0, 3)):
                        producer = rng.randint(0, consumer - 1)
                        kind = self.EDGE_KINDS[rng.randint(0, len(self.EDGE_KINDS) - 1)]
                        recs.append(
                            DepRecord(kind, consumer, consumer % 13,
                                      producer, producer % 13, tid=consumer % 3)
                        )
                for rec in recs:
                    packed.append(rec)
            ref = build_ddg(packed.records, complete=packed.stats.evicted == 0)
            ddg = PackedDDG(packed)
            assert ddg.indexable
            nodes = sorted(ref.nodes)
            for _ in range(3):
                crit = nodes[rng.randint(0, len(nodes) - 1)]
                kinds = frozenset(
                    k for k in self.EDGE_KINDS if rng.randint(0, 1)
                ) or frozenset({DepKind.REG})
                a = backward_slice(ddg, crit, kinds)
                b = backward_slice(ref, crit, kinds)
                assert (a.seqs, a.pcs, a.truncated) == (b.seqs, b.pcs, b.truncated), \
                    (seed, crit, sorted(k.value for k in kinds))
                af = forward_slice(ddg, crit, kinds)
                bf = forward_slice(ref, crit, kinds)
                assert (af.seqs, af.pcs, af.truncated) == (bf.seqs, bf.pcs, bf.truncated), \
                    (seed, crit, sorted(k.value for k in kinds))


# --- VM determinism -----------------------------------------------------------------
SUM_SRC = """
fn main() {
    var n = in(0);
    var s = 0;
    var i = 0;
    while (i < n) {
        s = s + in(0);
        i = i + 1;
    }
    out(s, 1);
}
"""

THREADED_SRC = """
global total;
fn worker(n) {
    var i = 0;
    while (i < n) {
        lock(1);
        total = total + 1;
        unlock(1);
        i = i + 1;
    }
}
fn main() {
    var a = spawn(worker, 10);
    var b = spawn(worker, 10);
    join(a);
    join(b);
    out(total, 1);
}
"""


class TestVMProperties:
    @given(values=st.lists(st.integers(min_value=-1000, max_value=1000), max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_sum_program_computes_sum(self, values):
        cp = compile_source(SUM_SRC)
        machine = Machine(cp.program)
        machine.io.provide(0, [len(values)] + values)
        machine.run()
        assert machine.io.output(1) == [sum(values)]

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_locked_updates_schedule_invariant(self, seed):
        cp = compile_source(THREADED_SRC)
        machine = Machine(
            cp.program, scheduler=RandomScheduler(seed=seed, min_quantum=1, max_quantum=9)
        )
        machine.run()
        assert machine.io.output(1) == [20]

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_same_seed_bit_identical(self, seed):
        def run_once():
            cp = compile_source(THREADED_SRC)
            machine = Machine(
                cp.program,
                scheduler=RandomScheduler(seed=seed, min_quantum=1, max_quantum=9),
            )
            result = machine.run()
            return result.schedule, result.instructions, result.cycles.base

        assert run_once() == run_once()

    @given(values=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=10))
    @settings(max_examples=20, deadline=None)
    def test_tracing_does_not_change_output(self, values):
        cp = compile_source(SUM_SRC)
        runner = ProgramRunner(cp.program, inputs={0: [len(values)] + values})
        plain, _ = runner.run()
        traced_machine, _, _ = runner.run_traced(OntracConfig())
        assert plain.io.output(1) == traced_machine.io.output(1)


# --- fast path --------------------------------------------------------------------
def _final_state(machine, result):
    return (
        result.status,
        result.instructions,
        result.cycles.base,
        result.cycles.overhead,
        tuple(result.schedule),
        tuple((t.tid, tuple(t.regs)) for t in machine.threads),
        tuple(sorted(machine.memory.cells.items())),
        tuple(sorted((ch, tuple(v)) for ch, v in machine.io.outputs.items())),
    )


class TestFastPathDifferentialFuzz:
    """200 exhaustively-seeded generated programs through both paths.

    Deliberately a seed sweep rather than a hypothesis strategy: the
    generator is its own fuzzer, and fixed seeds make a mismatch
    reproducible by number.
    """

    N_SEEDS = 200

    def test_generated_programs_bit_identical(self):
        mismatched = []
        for seed in range(self.N_SEEDS):
            g = generate(seed, GeneratorConfig(use_inputs=seed % 2 == 0))
            with fastpath.overridden(FastPathConfig.all_on()):
                fast = _final_state(*g.runner().run())
            with fastpath.overridden(FastPathConfig.all_off()):
                slow = _final_state(*g.runner().run())
            if fast != slow:
                mismatched.append(seed)
        assert mismatched == []


class TestKernelDifferentialFuzz:
    """200 seeded generated programs with DIFT attached: the array
    propagation kernel against the per-event reference, observable for
    observable (alerts, stats, shadow taint sets, peak, cycles)."""

    N_SEEDS = 200

    @staticmethod
    def _dift_state(kernel, g):
        runner = g.runner()
        m = runner.machine()
        eng = DIFTEngine(
            BoolTaintPolicy(),
            sinks=[SinkRule(kind="out", action="record")],
            kernel=kernel,
        ).attach(m)
        res = m.run(max_instructions=runner.max_instructions)
        return (
            str(eng.alerts),
            eng.stats,
            dict(eng.shadow.regs),
            eng.shadow.mem_items(),
            eng.shadow.peak_locations,
            res.status,
            res.instructions,
            res.cycles.overhead,
        )

    @pytest.mark.skipif(not fastpath.numpy_available(), reason="requires numpy")
    def test_generated_programs_propagate_identically(self):
        mismatched = []
        for seed in range(self.N_SEEDS):
            g = generate(seed, GeneratorConfig(use_inputs=seed % 2 == 0))
            if self._dift_state("array", g) != self._dift_state("reference", g):
                mismatched.append(seed)
        assert mismatched == []


# --- shadow state backends ----------------------------------------------------------
shadow_ops = st.lists(
    st.tuples(
        st.sampled_from(["set", "clear", "clear_range"]),
        st.integers(min_value=0, max_value=12_000),
        st.integers(min_value=0, max_value=5_000),
    ),
    max_size=60,
)


def _apply(shadow, ops):
    for op, addr, arg in ops:
        if op == "set":
            shadow.set_cell(addr, True)
        elif op == "clear":
            shadow.set_cell(addr, None)
        else:
            shadow.clear_range(addr, arg)


class TestShadowBackendProperties:
    @given(ops=shadow_ops)
    @settings(max_examples=60, deadline=None)
    def test_paged_matches_dict_backend(self, ops):
        paged = ShadowState(BoolTaintPolicy(), paged=True)
        plain = ShadowState(BoolTaintPolicy(), paged=False)
        _apply(paged, ops)
        _apply(plain, ops)
        assert sorted(paged.mem_items().items()) == sorted(plain.mem_items().items())
        assert paged.mem == plain.mem
        assert paged.tainted_cells == plain.tainted_cells
        assert paged.shadow_bytes == plain.shadow_bytes

    @pytest.mark.skipif(not fastpath.numpy_available(), reason="requires numpy")
    @given(ops=shadow_ops)
    @settings(max_examples=60, deadline=None)
    def test_array_store_matches_dict_backend(self, ops):
        arr = ShadowState(BoolTaintPolicy(), array=True)
        plain = ShadowState(BoolTaintPolicy(), paged=False)
        _apply(arr, ops)
        _apply(plain, ops)
        assert sorted(arr.mem_items().items()) == sorted(plain.mem_items().items())
        assert arr.tainted_cells == plain.tainted_cells
        # The columnar export the array kernel probes agrees too.
        assert list(arr.mem.tainted_addresses()) == sorted(plain.mem_items())

    @given(ops=shadow_ops, more=shadow_ops, paged=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_snapshot_round_trip_is_isolated(self, ops, more, paged):
        shadow = ShadowState(BoolTaintPolicy(), paged=paged)
        _apply(shadow, ops)
        before = sorted(shadow.mem_items().items())
        snap = shadow.snapshot()
        assert sorted(snap.mem_items().items()) == before
        assert snap.tainted_cells == shadow.tainted_cells
        # Mutating the original never leaks into the snapshot (or back).
        _apply(shadow, more)
        assert sorted(snap.mem_items().items()) == before
        _apply(snap, more)
        assert sorted(snap.mem_items().items()) == sorted(shadow.mem_items().items())


# --- deterministic rng ------------------------------------------------------------
class TestRngProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31),
           lo=st.integers(min_value=-100, max_value=100),
           span=st.integers(min_value=0, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_randint_in_range(self, seed, lo, span):
        rng = DeterministicRng(seed)
        for _ in range(20):
            value = rng.randint(lo, lo + span)
            assert lo <= value <= lo + span

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_same_seed_same_stream(self, seed):
        a, b = DeterministicRng(seed), DeterministicRng(seed)
        assert [a.next_u32() for _ in range(10)] == [b.next_u32() for _ in range(10)]

    @given(seed=st.integers(min_value=0, max_value=2**31),
           items=st.lists(st.integers(), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_shuffle_is_permutation(self, seed, items):
        shuffled = DeterministicRng(seed).shuffle(list(items))
        assert sorted(shuffled) == sorted(items)
