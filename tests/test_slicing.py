"""Unit tests for dynamic slicing: backward/forward slices, chops,
pruning, relevant slicing, implicit dependences, multithreaded slicing."""

import pytest

from repro.isa import Opcode
from repro.lang import compile_source
from repro.ontrac import DepKind, OntracConfig
from repro.runner import ProgramRunner
from repro.slicing import (
    DATA_KINDS,
    MULTITHREADED_KINDS,
    CriterionRecorder,
    PredicateSwitcher,
    backward_slice,
    branches_with_potential_stores,
    chop,
    classify_outputs,
    cross_thread_dependences,
    find_implicit_dependences,
    forward_slice,
    kept_pcs,
    multithreaded_backward_slice,
    prune_slice,
    relevant_slice,
    slice_at_last_output,
)
from repro.vm import Hook

from .ddg_oracle import OracleDDG


def traced(src, inputs=None, config=None, scheduler_factory=None):
    cp = compile_source(src)
    runner = ProgramRunner(
        cp.program, inputs=inputs or {}, scheduler_factory=scheduler_factory
    )
    m, tracer, res = runner.run_traced(config or OntracConfig(buffer_bytes=1 << 22))
    return m, tracer.dependence_graph(), cp, runner


def out_pcs(cp, function=None):
    return [
        pc
        for pc in range(len(cp.program.code))
        if cp.program.code[pc].opcode is Opcode.OUT
        and (function is None or cp.program.code[pc].function == function)
    ]


BUGGY = (
    "fn main() {\n"  # 1
    "    var a = in(0);\n"  # 2
    "    var b = in(0);\n"  # 3
    "    var good = a + b;\n"  # 4
    "    var bad = a + a;\n"  # 5  BUG: should be a * b
    "    out(good, 1);\n"  # 6
    "    out(bad, 1);\n"  # 7
    "}\n"
)


class TestBackwardForward:
    def test_bug_in_slice_unrelated_not(self):
        m, ddg, cp, _ = traced(BUGGY, inputs={0: [3, 4]})
        bad_out = out_pcs(cp)[1]
        sl = slice_at_last_output(ddg, bad_out)
        lines = sl.statement_lines(cp)
        assert 5 in lines  # the bug
        assert 2 in lines  # its input
        assert 4 not in lines  # unrelated computation
        assert 3 not in lines  # unused input for 'bad'

    def test_criterion_in_slice(self):
        m, ddg, cp, _ = traced(BUGGY, inputs={0: [1, 2]})
        seq = ddg.last_instance_of_pc(out_pcs(cp)[0])
        sl = backward_slice(ddg, seq)
        assert seq in sl

    def test_unknown_criterion_raises(self):
        m, ddg, cp, _ = traced(BUGGY, inputs={0: [1, 2]})
        with pytest.raises(KeyError):
            backward_slice(ddg, 10**9)
        with pytest.raises(KeyError):
            slice_at_last_output(ddg, 10**6)

    def test_forward_slice_of_input(self):
        m, ddg, cp, _ = traced(BUGGY, inputs={0: [1, 2]})
        in_pc = min(
            pc for pc in range(len(cp.program.code))
            if cp.program.code[pc].opcode is Opcode.IN
        )
        seq = ddg.instances_of_pc(in_pc)[0]  # first in(): variable a
        fwd = forward_slice(ddg, seq)
        lines = fwd.statement_lines(cp)
        assert {4, 5, 6, 7} <= lines  # a feeds everything downstream

    def test_chop_source_to_sink(self):
        m, ddg, cp, _ = traced(BUGGY, inputs={0: [1, 2]})
        in_pc = min(
            pc for pc in range(len(cp.program.code))
            if cp.program.code[pc].opcode is Opcode.IN
        )
        src_seq = ddg.instances_of_pc(in_pc)[0]
        sink_seq = ddg.last_instance_of_pc(out_pcs(cp)[1])
        nodes = chop(ddg, src_seq, sink_seq)
        assert src_seq in nodes and sink_seq in nodes
        chop_lines = {cp.line_of(ddg.pc_of(s)) for s in nodes}
        assert 5 in chop_lines
        assert 6 not in chop_lines  # the good output is off the path

    def test_control_dependence_in_slice(self):
        src = (
            "fn main() {\n"
            "    var x = in(0);\n"
            "    var y = 0;\n"
            "    if (x > 2) {\n"
            "        y = 1;\n"
            "    }\n"
            "    out(y, 1);\n"
            "}\n"
        )
        m, ddg, cp, _ = traced(src, inputs={0: [5]})
        sl = slice_at_last_output(ddg, out_pcs(cp)[0])
        assert 4 in sl.statement_lines(cp)  # the predicate, via control dep

    def test_data_only_slice_excludes_predicate(self):
        src = (
            "fn main() {\n"
            "    var x = in(0);\n"
            "    var y = 0;\n"
            "    if (x > 2) {\n"
            "        y = 1;\n"
            "    }\n"
            "    out(y, 1);\n"
            "}\n"
        )
        m, ddg, cp, _ = traced(src, inputs={0: [5]})
        sl = slice_at_last_output(ddg, out_pcs(cp)[0], kinds=DATA_KINDS)
        assert 4 not in sl.statement_lines(cp)

    def test_truncated_slice_flagged(self):
        src = """
        global acc;
        fn main() {
            acc = in(0);
            var i = 0;
            while (i < 300) { acc = acc + i; i = i + 1; }
            out(acc, 1);
        }
        """
        cp = compile_source(src)
        runner = ProgramRunner(cp.program, inputs={0: [1]})
        _, tracer, _ = runner.run_traced(OntracConfig(buffer_bytes=512))
        ddg = tracer.dependence_graph()
        sl = slice_at_last_output(ddg, out_pcs(cp)[0])
        assert sl.truncated


class TestPruning:
    def test_correct_output_paths_pruned(self):
        m, ddg, cp, runner = traced(BUGGY, inputs={0: [3, 4]})
        good_pc, bad_pc = out_pcs(cp)
        outputs = [
            (ddg.last_instance_of_pc(good_pc), m.io.output(1)[0]),
            (ddg.last_instance_of_pc(bad_pc), m.io.output(1)[1]),
        ]
        correct, incorrect = classify_outputs(ddg, outputs, expected=[7, 12])
        assert len(correct) == 1 and len(incorrect) == 1
        sl = backward_slice(ddg, ddg.last_instance_of_pc(bad_pc))
        pruned = prune_slice(ddg, sl, correct, incorrect)
        kept_lines = {cp.line_of(pc) for pc in kept_pcs(ddg, pruned)}
        assert 5 in kept_lines  # the bug survives
        assert pruned.pruned_seqs or pruned.reduction == 0.0

    def test_shared_producer_not_pruned(self):
        # 'a' feeds both the correct and the wrong output: must be kept.
        m, ddg, cp, _ = traced(BUGGY, inputs={0: [3, 4]})
        good_pc, bad_pc = out_pcs(cp)
        good_seq = ddg.last_instance_of_pc(good_pc)
        bad_seq = ddg.last_instance_of_pc(bad_pc)
        sl = backward_slice(ddg, bad_seq)
        pruned = prune_slice(ddg, sl, {good_seq}, {bad_seq})
        kept_lines = {cp.line_of(ddg.pc_of(s)) for s in pruned.kept_seqs}
        assert 2 in kept_lines  # var a = in(0) reaches the bad output too

    def test_classify_extra_outputs_incorrect(self):
        correct, incorrect = classify_outputs(None, [(1, 5), (2, 6)], expected=[5])
        assert correct == {1}
        assert incorrect == {2}


OMISSION = (
    "global result;\n"  # 1
    "fn main() {\n"  # 2
    "    var x = in(0);\n"  # 3
    "    result = 10;\n"  # 4
    "    if (x > 100) {\n"  # 5  BUG: should be x > 0
    "        result = x * 2;\n"  # 6  omitted
    "    }\n"
    "    out(result, 1);\n"  # 8
    "}\n"
)


class TestImplicit:
    def test_omission_bug_invisible_to_plain_slice(self):
        m, ddg, cp, _ = traced(OMISSION, inputs={0: [7]})
        sl = slice_at_last_output(ddg, out_pcs(cp)[0])
        assert 5 not in sl.statement_lines(cp)

    def test_predicate_switching_verifies_implicit_dep(self):
        m, ddg, cp, runner = traced(OMISSION, inputs={0: [7]})
        res = find_implicit_dependences(runner, ddg, out_pcs(cp)[0])
        assert res.verified, "the omitted branch must be implicated"
        assert any(cp.line_of(d.branch_pc) == 5 for d in res.verified)
        cand_lines = {cp.line_of(pc) for pc in res.candidate_pcs}
        assert 5 in cand_lines
        assert res.verifications <= 5  # demand-driven: few re-executions

    def test_innocent_predicates_not_implicated(self):
        src = (
            "global result;\n"
            "fn main() {\n"
            "    var x = in(0);\n"
            "    var unused = 0;\n"
            "    if (x > 3) {\n"  # affects only 'unused'
            "        unused = 1;\n"
            "    }\n"
            "    result = x + 1;\n"
            "    out(result, 1);\n"
            "}\n"
        )
        m, ddg, cp, runner = traced(src, inputs={0: [7]})
        res = find_implicit_dependences(runner, ddg, out_pcs(cp)[0])
        assert not any(cp.line_of(d.branch_pc) == 5 for d in res.verified)

    def test_switcher_fires_exactly_once(self):
        cp = compile_source("fn main() { var i = 3; while (i > 0) { i = i - 1; } out(i, 1); }")
        runner = ProgramRunner(cp.program)
        _, tracer, _ = runner.run_traced(OntracConfig())
        ddg = tracer.dependence_graph()
        branch_pc = next(
            pc for pc in range(len(cp.program.code))
            if cp.program.code[pc].spec.is_branch
        )
        switcher = PredicateSwitcher(branch_pc, occurrence=1)
        m, res = runner.run(intervention=switcher)
        assert switcher.fired

    def test_criterion_recorder_captures_out_value(self):
        cp = compile_source("fn main() { out(41 + 1, 1); }")
        pc = out_pcs(type("CP", (), {"program": cp.program})(),) if False else None
        out_pc = [
            p for p in range(len(cp.program.code))
            if cp.program.code[p].opcode is Opcode.OUT
        ][0]
        rec = CriterionRecorder(out_pc)
        runner = ProgramRunner(cp.program)
        runner.run(hooks=(rec,))
        assert rec.value == 42


class TestRelevant:
    def test_potential_branch_detection(self):
        cp = compile_source(OMISSION)
        potential = branches_with_potential_stores(cp.program)
        lines = {cp.line_of(pc) for pc in potential}
        assert 5 in lines

    def test_branch_without_stores_not_potential(self):
        src = (
            "fn main() {\n"
            "    var x = in(0);\n"
            "    var y = 0;\n"
            "    if (x) {\n"
            "        out(1, 1);\n"  # no store in the region
            "    }\n"
            "    out(y, 1);\n"
            "}\n"
        )
        cp = compile_source(src)
        potential = branches_with_potential_stores(cp.program)
        assert {cp.line_of(pc) for pc in potential} in (set(), {4}) or True
        # the if-region contains only an out(); it must not be potential
        assert not any(cp.line_of(pc) == 4 for pc in potential)

    def test_relevant_slice_superset_and_larger(self):
        m, ddg, cp, _ = traced(OMISSION, inputs={0: [7]})
        crit = ddg.last_instance_of_pc(out_pcs(cp)[0])
        base = backward_slice(ddg, crit)
        rel = relevant_slice(ddg, cp.program, crit)
        assert base.seqs <= rel.seqs
        assert len(rel) > len(base.seqs)
        assert rel.potential_branches

    def test_relevant_slice_catches_omission_conservatively(self):
        m, ddg, cp, _ = traced(OMISSION, inputs={0: [7]})
        crit = ddg.last_instance_of_pc(out_pcs(cp)[0])
        rel = relevant_slice(ddg, cp.program, crit)
        assert 5 in {cp.line_of(pc) for pc in rel.pcs}


RACY = """
global cell;
fn writer(v) { cell = v; }
fn main() {
    cell = 1;
    var t = spawn(writer, 2);
    var x = cell;
    join(t);
    out(x, 1);
}
"""


class TestMultithreaded:
    def test_cross_thread_dependences_found(self):
        m, ddg, cp, _ = traced(
            RACY, config=OntracConfig(record_war_waw=True)
        )
        cross = cross_thread_dependences(ddg)
        assert cross
        kinds = {c.kind for c in cross}
        assert kinds & {DepKind.MEM, DepKind.WAR, DepKind.WAW}

    def test_multithreaded_slice_includes_other_thread(self):
        src = """
        global cell;
        fn writer(v) { cell = v * 3; }
        fn main() {
            var t = spawn(writer, 14);
            join(t);
            out(cell, 1);
        }
        """
        m, ddg, cp, _ = traced(src, config=OntracConfig(record_war_waw=True))
        out_pc = out_pcs(cp, function="main")[0]
        crit = ddg.last_instance_of_pc(out_pc)
        sl = multithreaded_backward_slice(ddg, crit)
        oracle = OracleDDG.of(ddg.buffer)
        assert (sl.seqs, sl.pcs, sl.truncated) == oracle.backward_slice(crit, MULTITHREADED_KINDS)
        tids = {oracle.nodes[s][1] for s in sl.seqs}
        assert tids == {0, 1}
