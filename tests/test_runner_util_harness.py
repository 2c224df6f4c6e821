"""Unit tests for ProgramRunner, the util package, and the experiment
harness (smoke-level: full experiments run in benchmarks/)."""

import pytest

import importlib.util
import multiprocessing
import os
import sys
import threading
import time
from pathlib import Path

from repro.harness import EXPERIMENTS, Experiment, ExperimentResult, experiment
from repro.harness import experiments
from repro.harness.experiments import run_all, run_e6, run_e7, run_e10, run_e11
from repro.lang import compile_source
from repro.ontrac import OntracConfig
from repro.runner import ProgramRunner
from repro.util import DeterministicRng, format_table
from repro.vm import Intervention, RandomScheduler


SRC = "fn main() { out(in(0) * 2, 1); }"


class TestProgramRunner:
    def test_run_is_repeatable(self):
        runner = ProgramRunner(compile_source(SRC).program, inputs={0: [21]})
        m1, r1 = runner.run()
        m2, r2 = runner.run()
        assert m1.io.output(1) == m2.io.output(1) == [42]
        assert r1.instructions == r2.instructions

    def test_inputs_not_consumed_between_runs(self):
        runner = ProgramRunner(compile_source(SRC).program, inputs={0: [5]})
        runner.run()
        m, _ = runner.run()
        assert m.io.output(1) == [10]  # the input list was not drained

    def test_scheduler_factory_fresh_each_run(self):
        src = """
        global total;
        fn w(n) { var i = 0; while (i < n) { lock(1); total = total + 1; unlock(1); i = i + 1; } }
        fn main() { var a = spawn(w, 5); var b = spawn(w, 5); join(a); join(b); out(total, 1); }
        """
        runner = ProgramRunner(
            compile_source(src).program,
            scheduler_factory=lambda: RandomScheduler(seed=4, min_quantum=1, max_quantum=5),
        )
        _, r1 = runner.run()
        _, r2 = runner.run()
        assert r1.schedule == r2.schedule

    def test_intervention_passed_through(self):
        class Zero(Intervention):
            def transform_def(self, instr, occurrence, value):
                return 0

        runner = ProgramRunner(compile_source(SRC).program, inputs={0: [21]})
        m, _ = runner.run(intervention=Zero())
        assert m.io.output(1) == [0]

    def test_with_inputs_creates_independent_copy(self):
        runner = ProgramRunner(compile_source(SRC).program, inputs={0: [1]})
        other = runner.with_inputs({0: [7]})
        m1, _ = runner.run()
        m2, _ = other.run()
        assert m1.io.output(1) == [2]
        assert m2.io.output(1) == [14]

    def test_run_traced_attaches_tracer(self):
        runner = ProgramRunner(compile_source(SRC).program, inputs={0: [3]})
        machine, tracer, result = runner.run_traced(OntracConfig())
        assert tracer.stats.instructions == result.instructions
        assert result.cycles.overhead > 0


class TestUtil:
    def test_format_table_alignment(self):
        text = format_table(["name", "x"], [["a", 1.5], ["longer", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "x" in lines[1]
        assert len({len(line) for line in lines[1:]}) <= 2  # header/sep/rows align

    def test_format_table_float_rendering(self):
        text = format_table(["v"], [[1.23456]])
        assert "1.23" in text

    def test_rng_choice_and_bounds(self):
        rng = DeterministicRng(9)
        items = ["a", "b", "c"]
        assert all(rng.choice(items) in items for _ in range(10))
        with pytest.raises(ValueError):
            rng.randint(5, 4)


def _load_generator(monkeypatch):
    """tools/generate_experiments_md.py as a module (its sys.path edits
    are undone after the test)."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parents[1] / "tools" / "generate_experiments_md.py"
    spec = importlib.util.spec_from_file_location("generate_experiments_md", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestHarness:
    def test_registry_complete(self):
        paper = {e.id for e in EXPERIMENTS.values() if e.paper}
        assert paper == {f"E{i}" for i in range(1, 13)}

    def test_declarations_carry_claim_and_commentary(self):
        for exp_id, exp in EXPERIMENTS.items():
            assert exp.id == exp_id
            assert exp.claim.strip() and exp.commentary.strip()

    def test_ids_are_declared_once(self):
        declared = EXPERIMENTS["E1"]
        with pytest.raises(ValueError, match="declared twice"):
            experiment("E1", claim="again", commentary="again")(ExperimentResult)
        assert EXPERIMENTS["E1"] is declared

    def test_bench_declaration_stays_out_of_registry(self, monkeypatch):
        # `slicing` is declared in benchmarks/; importing it must not
        # change the registry the CLI and run_all read.
        ids = list(EXPERIMENTS)
        _load_generator(monkeypatch)
        run_slicing = importlib.import_module("bench_slicing").run_slicing
        assert list(EXPERIMENTS) == ids
        assert run_slicing.declaration.id == "slicing"
        assert run_slicing.declaration.run is run_slicing

    def test_generator_renders_registry_order(self, monkeypatch):
        generator = _load_generator(monkeypatch)
        ran = []

        def stub(exp_id):
            def run():
                ran.append(exp_id)
                return ExperimentResult(
                    experiment=exp_id, claim="c", headers=["h"], rows=[[1]],
                    headline={"x": 1.0},
                )
            return Experiment(exp_id, f"claim {exp_id}", f"commentary {exp_id}", run,
                              paper=exp_id.startswith("P"))

        stubs = [stub(i) for i in ("P2", "P1", "wall-b", "wall-a")]
        text = generator.render(stubs)
        assert ran == ["P2", "P1", "wall-b", "wall-a"]
        headings = [line for line in text.splitlines() if line.startswith("## ")]
        assert headings == [f"## {e.id} — {e.claim}" for e in stubs]
        for e in stubs:
            assert f"\n{e.commentary}\n" in text
        # The header's wall-clock list is derived from the same registry.
        assert "2 experiments deal in wall-clock" in text
        assert "`wall-b`, `wall-a`" in text

    def test_results_have_tables_and_headlines(self):
        for run in (run_e7, run_e10, run_e11):
            result = run()
            assert result.rows
            assert result.headline
            assert result.claim == EXPERIMENTS[result.experiment].claim
            table = result.table()
            assert result.experiment in table
            assert len(table.splitlines()) >= 3 + len(result.rows) - 1

    def test_e6_headline_invariants(self):
        result = run_e6()
        assert result.headline["sync_aware_livelocks"] == 0
        assert result.headline["naive_livelocks"] >= 1


class TestExperimentFanOut:
    SELECTION = ["E9", "E7", "E10"]

    def test_workers_preserve_selection_order_and_results(self):
        sequential = run_all(self.SELECTION)
        fanned = run_all(self.SELECTION, workers=2)
        assert [r.experiment for r in fanned] == self.SELECTION
        for seq, fan in zip(sequential, fanned):
            assert seq.experiment == fan.experiment
            assert seq.headline == fan.headline

    def test_timeout_falls_back_to_sequential(self, capsys):
        results = run_all(self.SELECTION, workers=2, timeout_s=1e-6)
        assert [r.experiment for r in results] == self.SELECTION
        assert "falling back to sequential" in capsys.readouterr().err

    def test_timeout_stops_workers_before_fallback(self, monkeypatch, capsys):
        # Two slow stub experiments time out while both run; the
        # sequential re-run must start with neither worker still alive,
        # or it would be timed on a host they still load.  A bystander
        # child started while the pool runs is not the pool's to stop.
        parent = os.getpid()
        before = set(multiprocessing.active_children())
        bystander = multiprocessing.Process(target=time.sleep, args=(30,))
        alive_at_rerun = []

        def slow():
            if os.getpid() == parent:
                alive_at_rerun.append([
                    p for p in multiprocessing.active_children()
                    if p not in before and p is not bystander
                ])
            else:
                time.sleep(3.0)
            return ExperimentResult()

        for name in ("slow-a", "slow-b"):
            monkeypatch.setitem(
                experiments.EXPERIMENTS, name, Experiment(name, "claim", "commentary", slow)
            )
        starter = threading.Timer(0.2, bystander.start)
        starter.start()
        try:
            t0 = time.perf_counter()
            run_all(["slow-a", "slow-b"], workers=2, timeout_s=0.6)
            assert time.perf_counter() - t0 < 2.5
            assert "falling back to sequential" in capsys.readouterr().err
            assert alive_at_rerun == [[], []]
            assert bystander.is_alive()
        finally:
            starter.join()
            if bystander.pid is not None:
                bystander.terminate()
                bystander.join()
