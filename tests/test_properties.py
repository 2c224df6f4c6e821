"""Property-based tests (hypothesis) on core data structures and
invariants: roBDD set algebra, trace buffer accounting, VM determinism,
DDG/slicing monotonicity, scheduler reproducibility."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lineage import BDDManager
from repro.dift import BoolTaintPolicy, DIFTEngine, ShadowState, SinkRule
from repro.lang import compile_source
from repro.ontrac import (
    DepKind,
    DepRecord,
    OntracConfig,
    PackedDDG,
    PackedTraceBuffer,
)
from repro.runner import ProgramRunner
from repro.slicing import backward_slice, forward_slice
from repro.util.rng import DeterministicRng
from repro.vm import Machine, RandomScheduler
from repro.workloads import GeneratorConfig, generate

from .ddg_oracle import OracleDDG
from .vm_oracle import install_oracle

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


def record_streams(**size):
    """Record lists in consumer-seq order, the only order the store
    accepts (out-of-order rows raise TraceOrderError; see
    test_packed_store)."""
    return st.lists(record_strategy, **size).map(
        lambda records: sorted(records, key=lambda r: r.consumer_seq)
    )


class TestBufferProperties:
    @given(records=record_streams(max_size=200),
           capacity=st.integers(min_value=1, max_value=500))
    @settings(max_examples=50, deadline=None)
    def test_capacity_never_exceeded(self, records, capacity):
        buf = PackedTraceBuffer(capacity_bytes=capacity)
        for rec in records:
            buf.append(rec)
            assert buf.current_bytes <= capacity or all(
                r.bytes == 0 for r in buf.records
            )

    @given(records=record_streams(max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_byte_accounting_consistent(self, records):
        buf = PackedTraceBuffer(capacity_bytes=10_000_000)
        for rec in records:
            buf.append(rec)
        assert buf.current_bytes == sum(r.bytes for r in buf.records)
        assert buf.stats.appended == len(records)
        assert buf.stats.appended_bytes == sum(r.bytes for r in records)

    @given(records=record_streams(min_size=1, max_size=100),
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
def _filled(records):
    buf = PackedTraceBuffer()
    for rec in records:
        buf.append(rec)
    return buf


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
        if not records:
            return
        ddg = PackedDDG(_filled(records))
        criterion = max(s for s, _ in ddg.node_items())
        sl = backward_slice(ddg, criterion)
        for seq in sl.seqs:
            for producer, kind in ddg.producers(seq):
                assert producer in sl.seqs

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_forward_backward_duality(self, seed):
        rng = DeterministicRng(seed)
        records = []
        for consumer in range(2, 40):
            producer = rng.randint(0, consumer - 1)
            records.append(DepRecord(DepKind.REG, consumer, 0, producer, 0))
        ddg = PackedDDG(_filled(records))
        nodes = sorted(s for s, _ in ddg.node_items())
        a, b = nodes[0], nodes[-1]
        # b in forward(a) iff a in backward(b)
        assert (b in forward_slice(ddg, a).seqs) == (a in backward_slice(ddg, b).seqs)


# --- indexed engine vs dict-walking BFS equivalence --------------------------------
class TestPackedSliceEquivalence:
    """100 seeded random dependence streams through the packed store;
    random criteria and random kinds sets must slice identically under
    the indexed engine and the dict oracle's BFS over the same stored
    records — including truncation under small, evicting windows."""

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
            ref = OracleDDG.of(packed)
            ddg = PackedDDG(packed)
            nodes = sorted(ref.nodes)
            for _ in range(3):
                crit = nodes[rng.randint(0, len(nodes) - 1)]
                kinds = frozenset(
                    k for k in self.EDGE_KINDS if rng.randint(0, 1)
                ) or frozenset({DepKind.REG})
                a = backward_slice(ddg, crit, kinds)
                assert (a.seqs, a.pcs, a.truncated) == ref.backward_slice(crit, kinds), \
                    (seed, crit, sorted(k.value for k in kinds))
                af = forward_slice(ddg, crit, kinds)
                assert (af.seqs, af.pcs, af.truncated) == ref.forward_slice(crit, kinds), \
                    (seed, crit, sorted(k.value for k in kinds))


# --- column queries vs the dict oracle ---------------------------------------------
class TestColumnQueryProperties:
    """``last_instance_of_pc``, ``has_node`` and ``pc_of`` answered off
    the packed columns equal the dict oracle's answers on random
    tracer-shaped streams (producers precede consumers, every row
    naming a seq agrees on its pc) with producer-only nodes, eviction
    and values outside their columns — live, and after spill/reopen."""

    EDGE_KINDS = [DepKind.REG, DepKind.MEM, DepKind.IREG, DepKind.CONTROL,
                  DepKind.SUMMARY, DepKind.WAW]

    @staticmethod
    def _stream(rng, n):
        pcs = {}

        def pc(seq):
            if seq not in pcs:
                roll = rng.randint(0, 39)
                if roll < 3:
                    pcs[seq] = (0xFFFF, 1 << 20, -2)[roll]
                elif roll < 6:
                    pcs[seq] = rng.randint(100, 130)  # rare: few chunks hold it
                else:
                    pcs[seq] = rng.randint(0, 24)
            return pcs[seq]

        base = (0, 1 << 33)[rng.randint(0, 1)]
        seq = base
        records = []
        for _ in range(n):
            seq += rng.randint(1, 3)  # skipped seqs can only be producers
            tid = (1 << 17) if rng.randint(0, 29) == 0 else rng.randint(0, 2)
            if rng.randint(0, 9):
                kind = DepKind.INSTR if rng.randint(0, 3) else DepKind.BRANCH
                records.append(DepRecord(kind, seq, pc(seq), tid=tid))
            for _ in range(rng.randint(0, 3)):
                if rng.randint(0, 24) == 0:
                    producer = seq - (1 << 32) - rng.randint(1, 9)  # sentinel delta
                else:
                    producer = seq - rng.randint(0, 12)
                kind = TestColumnQueryProperties.EDGE_KINDS[rng.randint(0, 5)]
                records.append(DepRecord(kind, seq, pc(seq), producer, pc(producer), tid=tid))
        return records, sorted(pcs)

    @staticmethod
    def _check(buf, pcs):
        ref = OracleDDG.of(buf)
        ddg = PackedDDG(buf)
        for pc in pcs + [-1, 0xFFFE, 99]:
            assert ddg.last_instance_of_pc(pc) == ref.last_instance_of_pc(pc), pc
        probes = {s + d for s in ref.nodes for d in (-1, 0, 1)}
        for seq in sorted(probes):
            assert ddg.has_node(seq) == (seq in ref.nodes), seq
            if seq in ref.nodes:
                assert ddg.pc_of(seq) == ref.pc_of(seq), seq

    @given(seed=st.integers(min_value=0, max_value=2**20),
           capacity=st.sampled_from([64, 700, 3000, 1 << 40]))
    @settings(max_examples=40, deadline=None)
    def test_last_instance_and_node_lookups_match_build_ddg(self, seed, capacity):
        import os
        import tempfile

        from repro.lake import open_spill
        from repro.lake.format import SpillingPackedTraceBuffer

        rng = DeterministicRng(seed)
        records, pcs = self._stream(rng, 40 + rng.randint(0, 400))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.rlk")
            live = SpillingPackedTraceBuffer(capacity, path)
            for rec in records:
                live.append(rec)
            live.close()
            if not len(live):
                return
            self._check(live, pcs)
            with open_spill(path) as stored:
                self._check(stored.buffer, pcs)


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
    """200 exhaustively-seeded generated programs through the VM's
    dispatch table and through the spec oracle (``tests/vm_oracle.py``).

    Deliberately a seed sweep rather than a hypothesis strategy: the
    generator is its own fuzzer, and fixed seeds make a mismatch
    reproducible by number.
    """

    N_SEEDS = 200

    @staticmethod
    def _run(g, oracle):
        runner = g.runner()
        m = runner.machine()
        if oracle:
            install_oracle(m)
        return _final_state(m, m.run(max_instructions=runner.max_instructions))

    def test_generated_programs_bit_identical(self):
        mismatched = []
        for seed in range(self.N_SEEDS):
            g = generate(seed, GeneratorConfig(use_inputs=seed % 2 == 0))
            if self._run(g, oracle=False) != self._run(g, oracle=True):
                mismatched.append(seed)
        assert mismatched == []


class TestKernelDifferentialFuzz:
    """200 seeded generated programs with DIFT attached: the array
    propagation kernel against the reference kernel, observable for
    observable (alerts, stats, shadow taint sets, peak, cycles), with
    function summaries off and on for both sides."""

    N_SEEDS = 200

    @staticmethod
    def _dift_state(kernel, summaries, g):
        runner = g.runner()
        m = runner.machine()
        eng = DIFTEngine(
            BoolTaintPolicy(),
            sinks=[SinkRule(kind="out", action="record")],
            kernel=kernel,
            summaries=summaries,
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

    @pytest.mark.parametrize("summaries", [False, True], ids=["plain", "summaries"])
    def test_generated_programs_propagate_identically(self, summaries):
        mismatched = []
        for seed in range(self.N_SEEDS):
            g = generate(seed, GeneratorConfig(use_inputs=seed % 2 == 0))
            array = self._dift_state("array", summaries, g)
            if array != self._dift_state("reference", summaries, g):
                mismatched.append(seed)
        assert mismatched == []


# --- shadow state ----------------------------------------------------------
labels = st.one_of(st.none(), st.integers(min_value=0, max_value=40))
#: clear_range sizes both narrower and far wider than the tainted set, so
#: the per-address and the scan-the-keys branches both run.
range_sizes = st.one_of(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=200, max_value=20_000),
)
shadow_ops = st.lists(
    st.one_of(
        st.tuples(st.just("cell"), st.integers(min_value=0, max_value=400), labels),
        st.tuples(st.just("reg"), st.integers(min_value=0, max_value=7), labels),
        st.tuples(
            st.just("clear_range"), st.integers(min_value=-50, max_value=400), range_sizes
        ),
    ),
    max_size=80,
)


class _NaiveShadow:
    """The model: a dict of cells, a dict of regs, and a pop per address."""

    def __init__(self):
        self.mem, self.regs, self.peak = {}, {}, 0

    def _store(self, table, key, label):
        if label is None:
            table.pop(key, None)
        else:
            table[key] = label
            self.peak = max(self.peak, len(self.mem) + len(self.regs))

    def apply(self, op, x, y):
        if op == "cell":
            self._store(self.mem, x, y)
        elif op == "reg":
            self._store(self.regs, (0, x), y)
        else:
            for addr in range(x, x + y):
                self.mem.pop(addr, None)


class TestShadowProperties:
    @given(ops=shadow_ops)
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_model(self, ops):
        shadow = ShadowState(BoolTaintPolicy())
        model = _NaiveShadow()
        for op, x, y in ops:
            if op == "cell":
                shadow.set_cell(x, y)
            elif op == "reg":
                shadow.set_reg(0, x, y)
            else:
                shadow.clear_range(x, y)
            model.apply(op, x, y)
            assert shadow.mem == model.mem
        assert shadow.mem_items() == model.mem
        assert shadow.regs == model.regs
        assert shadow.tainted_cells == len(model.mem)
        assert shadow.tainted_regs == len(model.regs)
        assert shadow.peak_locations == model.peak
        label_bytes = shadow.policy.label_bytes
        assert shadow.shadow_bytes == (len(model.mem) + len(model.regs)) * label_bytes


#: Page-scale streams: addresses across three 4096-cell pages and ranges
#: up to 5000 cells, so clears cover whole pages and cross page boundaries.
page_ops = st.lists(
    st.tuples(
        st.sampled_from(["set", "clear", "clear_range"]),
        st.integers(min_value=0, max_value=12_000),
        st.integers(min_value=0, max_value=5_000),
    ),
    max_size=60,
)
#: Cells on both sides of the signed 64-bit range the array kernel packs.
wide_cells = st.one_of(
    st.integers(min_value=-400, max_value=400),
    st.integers(min_value=(1 << 63) - 3, max_value=(1 << 63) + 3),
    st.integers(min_value=-(1 << 63) - 3, max_value=-(1 << 63) + 3),
)


class TestShadowBackendProperties:
    @given(ops=page_ops)
    @settings(max_examples=60, deadline=None)
    def test_paged_matches_dict_backend(self, ops):
        shadow = ShadowState(BoolTaintPolicy())
        model = _NaiveShadow()
        for op, addr, arg in ops:
            if op == "clear_range":
                shadow.clear_range(addr, arg)
                model.apply("clear_range", addr, arg)
            else:
                label = True if op == "set" else None
                shadow.set_cell(addr, label)
                model.apply("cell", addr, label)
        assert shadow.mem_items() == model.mem
        assert shadow.tainted_cells == len(model.mem)
        assert shadow.shadow_bytes == len(model.mem) * shadow.policy.label_bytes
        assert shadow.peak_locations == model.peak


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
