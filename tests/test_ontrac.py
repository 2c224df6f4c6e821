"""Unit tests for ONTRAC: records, buffer, DDG, control dependence,
the online tracer (all optimizations), and the offline baseline."""

import pytest

from repro.isa import Opcode, assemble
from repro.lang import compile_source
from repro.ontrac import (
    RECORD_BYTES,
    ControlDependenceTracker,
    DepKind,
    DepRecord,
    OfflineTracer,
    OnlineTracer,
    OntracConfig,
    PackedTraceBuffer,
    PackedDDG,
)
from repro.runner import ProgramRunner
from repro.vm import Hook, Machine, RunStatus

from .conftest import numpy_modules_loaded_by


def trace_minic(src, inputs=None, config=None, max_instructions=2_000_000):
    cp = compile_source(src)
    runner = ProgramRunner(cp.program, inputs=inputs or {}, max_instructions=max_instructions)
    m, tracer, res = runner.run_traced(config)
    return m, tracer, res, cp


LOOP_SRC = """
global data[32];
fn main() {
    var n = in(0);
    var i = 0;
    while (i < 32) {
        data[i] = i * 2 + n;
        i = i + 1;
    }
    var s = 0;
    i = 0;
    while (i < 32) {
        s = s + data[i];
        i = i + 1;
    }
    out(s, 1);
}
"""


# --- records & buffer --------------------------------------------------------
class TestRecordsAndBuffer:
    def test_record_bytes_complete(self):
        for kind in DepKind:
            assert kind in RECORD_BYTES

    def test_inferred_records_cost_nothing(self):
        assert RECORD_BYTES[DepKind.IREG] == 0
        assert RECORD_BYTES[DepKind.IMEM] == 0
        assert RECORD_BYTES[DepKind.REG] > 0

    def test_buffer_eviction_by_bytes(self):
        buf = PackedTraceBuffer(capacity_bytes=20)
        for i in range(10):
            buf.append(DepRecord(DepKind.REG, i, i, i - 1, i - 1))  # 6 bytes each
        assert buf.current_bytes <= 20
        assert buf.stats.evicted > 0
        assert buf.oldest_seq > 0

    def test_buffer_window(self):
        buf = PackedTraceBuffer(capacity_bytes=1000)
        buf.append(DepRecord(DepKind.REG, 5, 0, 1, 0))
        buf.append(DepRecord(DepKind.REG, 17, 0, 2, 0))
        assert buf.window_instructions() == 13
        assert buf.covers_seq(10)
        assert not buf.covers_seq(3)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            PackedTraceBuffer(capacity_bytes=0)

    def test_bigger_buffer_longer_window(self):
        # The core scaling claim behind E3.
        windows = []
        for cap in (2_000, 8_000):
            m, t, res, _ = trace_minic(LOOP_SRC, inputs={0: [1]},
                                       config=OntracConfig(buffer_bytes=cap))
            windows.append(t.buffer.window_instructions())
        assert windows[1] > windows[0]


# --- DDG ------------------------------------------------------------------------
def packed_ddg(records):
    buf = PackedTraceBuffer()
    for rec in records:
        buf.append(rec)
    return PackedDDG(buf)


class TestDDG:
    def test_build_and_query(self):
        records = [
            DepRecord(DepKind.REG, 2, 10, 1, 9),
            DepRecord(DepKind.MEM, 3, 11, 2, 10),
            DepRecord(DepKind.BRANCH, 4, 12),
        ]
        ddg = packed_ddg(records)
        assert ddg.pc_of(3) == 11
        assert ddg.producers(3) == [(2, DepKind.MEM)]
        assert ddg.consumers(2) == [(3, DepKind.MEM)]
        assert ddg.has_node(4)  # branch record adds a node
        assert ddg.edge_count == 2

    def test_instances_of_pc(self):
        records = [
            DepRecord(DepKind.REG, 5, 7, 1, 6),
            DepRecord(DepKind.REG, 9, 7, 5, 7),
        ]
        ddg = packed_ddg(records)
        assert ddg.instances_of_pc(7) == [5, 9]
        assert ddg.last_instance_of_pc(7) == 9
        assert ddg.last_instance_of_pc(999) is None

    def test_kind_filter(self):
        records = [
            DepRecord(DepKind.REG, 2, 1, 1, 0),
            DepRecord(DepKind.CONTROL, 2, 1, 0, 0),
        ]
        ddg = packed_ddg(records)
        assert len(ddg.producers(2, kinds={DepKind.REG})) == 1
        assert len(ddg.producers(2)) == 2


# --- online control dependence ------------------------------------------------------
class TestControlDependence:
    def _events_for(self, src, inputs=None):
        cp = compile_source(src)
        m = Machine(cp.program)
        for chan, values in (inputs or {}).items():
            m.io.provide(chan, values)
        tracker = ControlDependenceTracker(cp.program)
        parents = []

        class Rec(Hook):
            def on_instruction(self, ev):
                parent = tracker.observe(ev)
                parents.append((ev.pc, parent.branch_pc if parent else None))

        m.hooks.subscribe(Rec())
        m.run()
        return parents, cp

    def test_if_region(self):
        src = (
            "fn main() {\n"  # line 1
            "    var x = in(0);\n"  # line 2
            "    if (x > 0) {\n"  # line 3: the predicate
            "        out(1, 1);\n"  # line 4: guarded
            "    }\n"
            "    out(2, 1);\n"  # line 6: after the join point
            "}\n"
        )
        parents, cp = self._events_for(src, inputs={0: [5]})
        by_line = {}
        for pc, parent_pc in parents:
            line = cp.line_of(pc)
            by_line.setdefault(line, set()).add(
                cp.line_of(parent_pc) if parent_pc is not None else None
            )
        # the out(1,1) inside the if depends on the line-3 predicate
        assert by_line[4] == {3}
        # the out(2,1) after the join point does not
        assert by_line[6] == {None}

    def test_loop_parent_is_loop_branch(self):
        parents, cp = self._events_for(
            """
            fn main() {
                var i = 3;
                while (i > 0) { i = i - 1; }
                out(i, 1);
            }
            """
        )
        body_parents = {p for pc, p in parents if cp.line_of(pc) == 4 and p is not None}
        assert body_parents  # loop body instructions have a branch parent
        after = [p for pc, p in parents if cp.line_of(pc) == 5]
        assert set(after) == {None}

    def test_stack_bounded_across_iterations(self):
        cp = compile_source(
            "fn main() { var i = 200; while (i > 0) { i = i - 1; } }"
        )
        m = Machine(cp.program)
        tracker = ControlDependenceTracker(cp.program)

        class Rec(Hook):
            def on_instruction(self, ev):
                tracker.observe(ev)
                assert len(tracker.open_regions(ev.tid)) <= 4

        m.hooks.subscribe(Rec())
        assert m.run().status is RunStatus.EXITED

    def test_callee_inherits_caller_region(self):
        parents, cp = self._events_for(
            """
            fn helper() { out(7, 1); }
            fn main() {
                var x = in(0);
                if (x) { helper(); }
            }
            """,
            inputs={0: [1]},
        )
        helper_parents = {p for pc, p in parents if cp.line_of(pc) == 2 and p is not None}
        assert helper_parents, "helper body should be control dependent on the if"

    def test_recursion_depth_scoping(self):
        # Each recursive invocation's branch regions close on return.
        parents, cp = self._events_for(
            """
            fn f(n) {
                if (n > 0) { f(n - 1); }
                return 0;
            }
            fn main() { f(4); out(1, 1); }
            """
        )
        final_out = [p for pc, p in parents if cp.line_of(pc) == 6 and
                     cp.program.code[pc].opcode is Opcode.OUT]
        assert set(final_out) == {None}


# --- online tracer ---------------------------------------------------------------
class TestOnlineTracer:
    def test_naive_matches_offline_ddg(self):
        cp = compile_source(LOOP_SRC)
        r1 = ProgramRunner(cp.program, inputs={0: [3]})
        m1, online, _ = r1.run_traced(OntracConfig.unoptimized())

        m2 = r1.machine()
        offline = OfflineTracer(cp.program).attach(m2)
        m2.run()
        off_ddg = offline.postprocess()
        on_ddg = online.dependence_graph()
        assert on_ddg.stats()["edges"] == off_ddg.stats()["edges"]
        assert dict(on_ddg.node_items()) == dict(off_ddg.node_items())

    def test_optimizations_reduce_bytes_monotonically(self):
        configs = [
            OntracConfig.unoptimized(),
            OntracConfig(infer_traces=False, elide_redundant_loads=False),
            OntracConfig(hot_trace_threshold=8),
            OntracConfig(hot_trace_threshold=8, input_forward_slice=True),
        ]
        rates = []
        for config in configs:
            _, t, _, _ = trace_minic(LOOP_SRC, inputs={0: [3]}, config=config)
            rates.append(t.stats.bytes_per_instruction)
        assert rates == sorted(rates, reverse=True), rates
        assert rates[0] > 8.0  # naive is in the >8 B/instr regime
        assert rates[-1] < 2.0  # fully optimized is in the ~1 B/instr regime

    def test_optimized_ddg_preserves_data_edges(self):
        # Inferred (0-byte) edges must keep the dependence structure
        # equivalent to naive tracing for data+control slicing purposes.
        from repro.slicing import DEFAULT_KINDS, slice_at_last_output

        cp = compile_source(LOOP_SRC)
        out_pc = max(
            pc for pc in range(len(cp.program.code))
            if cp.program.code[pc].opcode is Opcode.OUT
        )
        sizes = []
        for config in (OntracConfig.unoptimized(), OntracConfig(hot_trace_threshold=8)):
            runner = ProgramRunner(cp.program, inputs={0: [3]})
            _, tracer, _ = runner.run_traced(config)
            sl = slice_at_last_output(tracer.dependence_graph(), out_pc, kinds=DEFAULT_KINDS)
            sizes.append(len(sl.seqs))
        assert sizes[0] == sizes[1]

    def test_redundant_load_elision_counts(self):
        src = """
        global g;
        fn main() {
            g = 5;
            var s = 0;
            var i = 0;
            while (i < 20) { s = s + g; i = i + 1; }   // same load, same producer
            out(s, 1);
        }
        """
        _, t, _, _ = trace_minic(src, config=OntracConfig(infer_traces=False))
        assert t.stats.skipped.get("redundant_load", 0) >= 19

    def test_hot_traces_form(self):
        _, t, _, _ = trace_minic(
            LOOP_SRC, inputs={0: [1]}, config=OntracConfig(hot_trace_threshold=5)
        )
        assert t.stats.hot_traces > 0
        assert t.stats.skipped.get("static_trace", 0) > 0

    def test_input_filter_skips_non_derived(self):
        _, t, _, _ = trace_minic(
            LOOP_SRC, inputs={0: [1]}, config=OntracConfig(input_forward_slice=True)
        )
        assert t.stats.skipped.get("input_filter", 0) > 0

    def test_selective_tracing_summarizes_through_untraced(self):
        src = """
        fn scramble(x) { return (x * 3 + 1) * 2; }   // untraced
        fn main() {
            var a = in(0);
            var b = scramble(a);
            out(b, 1);
        }
        """
        cp = compile_source(src)
        runner = ProgramRunner(cp.program, inputs={0: [4]})
        _, tracer, _ = runner.run_traced(
            OntracConfig(selective_functions=frozenset({"main"}))
        )
        ddg = tracer.dependence_graph()
        stats = ddg.stats()
        assert stats.get("summary", 0) > 0, stats
        # Chain preserved: slicing from the output reaches the in() of main.
        from repro.slicing import slice_at_last_output

        out_pc = max(
            pc for pc in range(len(cp.program.code))
            if cp.program.code[pc].opcode is Opcode.OUT
            and cp.program.code[pc].function == "main"
        )
        sl = slice_at_last_output(ddg, out_pc)
        in_pcs = {
            pc for pc in sl.pcs if cp.program.code[pc].opcode is Opcode.IN
        }
        assert in_pcs, "dependence chain through untraced scramble() was broken"

    def test_selective_tracing_stores_fewer_bytes(self):
        rates = []
        for sel in (None, frozenset({"main"})):
            src = """
            fn work(x) { var i = 0; var s = x; while (i < 50) { s = s + i; i = i + 1; } return s; }
            fn main() { out(work(in(0)), 1); }
            """
            _, t, _, _ = trace_minic(src, inputs={0: [1]},
                                     config=OntracConfig(selective_functions=sel))
            rates.append(t.stats.stored_bytes)
        assert rates[1] < rates[0]

    def test_overhead_charged(self):
        m, t, res, _ = trace_minic(LOOP_SRC, inputs={0: [1]})
        assert res.cycles.overhead > 0
        assert res.cycles.slowdown > 2

    def test_multithreaded_cross_thread_mem_edges(self):
        src = """
        global cell;
        fn writer(v) { cell = v; }
        fn main() {
            var t = spawn(writer, 42);
            join(t);
            out(cell, 1);
        }
        """
        m, t, res, cp = trace_minic(src, config=OntracConfig())
        ddg = t.dependence_graph()
        cross = [
            (c, p)
            for c, _, _, p, _, k in ddg.iter_edge_rows()
            if k == DepKind.MEM and ddg.tid_of(c) != ddg.tid_of(p)
        ]
        assert cross, "main's read of cell must depend on writer's store"

    def test_war_waw_recording(self):
        src = """
        global cell;
        fn writer(v) { cell = v; }
        fn main() {
            cell = 1;
            var x = cell;
            var t = spawn(writer, 2);
            join(t);
            out(x, 1);
        }
        """
        _, t, _, _ = trace_minic(src, config=OntracConfig(record_war_waw=True))
        stats = t.dependence_graph().stats()
        assert stats.get("war", 0) >= 1 or stats.get("waw", 0) >= 1

    def test_window_limits_slice_reach(self):
        # With a tiny buffer the early writes fall out of the window.
        m, t, res, cp = trace_minic(
            LOOP_SRC, inputs={0: [1]}, config=OntracConfig(buffer_bytes=256)
        )
        ddg = t.dependence_graph()
        assert not ddg.complete
        assert t.buffer.stats.evicted > 0


# --- offline baseline ---------------------------------------------------------------
class TestOffline:
    def test_offline_costs_dwarf_online(self):
        cp = compile_source(LOOP_SRC)
        runner = ProgramRunner(cp.program, inputs={0: [2]})

        m1, online, res1 = runner.run_traced(OntracConfig())
        online_slowdown = res1.cycles.slowdown

        m2 = runner.machine()
        off = OfflineTracer(cp.program).attach(m2)
        res2 = m2.run()
        off.postprocess()
        offline_slowdown = (res2.cycles.base + off.stats.total_overhead_cycles) / res2.cycles.base

        assert offline_slowdown > 5 * online_slowdown
        assert offline_slowdown > 100

    def test_trace_bytes_16_per_instruction(self):
        cp = compile_source("fn main() { out(1 + 2, 1); }")
        m = Machine(cp.program)
        off = OfflineTracer(cp.program).attach(m)
        m.run()
        assert off.stats.trace_bytes == off.stats.instructions * 16


def test_trace_slice_and_lake_paths_never_import_numpy(tmp_path):
    """numpy takes ~0.1 s to import; a traced run, a slice and a lake
    spill with a stored-run slice must not pull it in, or every traced
    command and lake query pays for it at start-up."""
    loaded = numpy_modules_loaded_by(f"""
        import repro.runner, repro.ontrac, repro.slicing, repro.lake
        from repro.lake import (TraceLake, input_hash, program_hash,
                                resolve_criterion, slice_stored)
        from repro.ontrac import OntracConfig
        from repro.slicing import backward_slice
        from repro.workloads import matmul

        w = matmul(4)
        _, tracer, _ = w.runner().run_traced()
        ddg = tracer.dependence_graph()
        assert backward_slice(ddg, max(seq for seq, _ in ddg.node_items())).seqs
        lake = TraceLake({str(tmp_path)!r})
        pending = lake.begin_run(program=program_hash(w.compiled.source),
                                 input_hash=input_hash(w.inputs), seed=0)
        _, tracer, _ = w.runner().run_traced(OntracConfig(spill_path=pending.spill_path))
        with lake.open(pending.finish(tracer=tracer, compiled=w.compiled)) as stored:
            assert slice_stored(stored, resolve_criterion(stored)).seqs
    """)
    assert loaded == [], f"numpy imported: {loaded}"
