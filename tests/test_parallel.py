"""Unit tests for the out-of-process DIFT helper (`repro.multicore.parallel`):
ring-buffer wraparound and batching, attack parity with the inline
engine, the i64 sink-value fixup path, addresses beyond the i64
payload, batch-size resolution, the experiment fan-out, and the
telemetry surface."""

import pytest

from repro.dift import BoolTaintPolicy, DIFTEngine, PCTaintPolicy, SinkRule
from repro.dift.kernel import numpy_available
from repro.harness.experiments import run_all
from repro.lang import compile_source
from repro.multicore import ParallelHelperDIFT
from repro.multicore.parallel import DEFAULT_PARALLEL_BATCH, parallel_batch_size
from repro.telemetry import MetricsRegistry
from repro.vm import Machine, RunStatus
from repro.workloads import race_kernels
from repro.workloads.spec_like import matmul

from .test_kernel import WIDE_INPUTS, WIDE_SRC

RECORD_SINKS = lambda: [SinkRule(kind="out", action="record")]  # noqa: E731


def _inline_run(machine_factory, policy=None, sinks=None):
    m = machine_factory()
    engine = DIFTEngine(
        policy or BoolTaintPolicy(),
        sinks=RECORD_SINKS() if sinks is None else sinks,
    ).attach(m)
    res = m.run()
    return m, engine, res


def _parallel_run(machine_factory, policy=None, sinks=None, **kwargs):
    m = machine_factory()
    helper = ParallelHelperDIFT(
        policy or BoolTaintPolicy(),
        sinks=RECORD_SINKS() if sinks is None else sinks,
        **kwargs,
    ).attach(m)
    res = m.run()
    helper.finish()
    return m, helper, res


def _assert_taint_equal(engine, helper):
    assert [str(a) for a in engine.alerts] == [str(a) for a in helper.alerts]
    assert engine.stats == helper.stats
    assert engine.shadow.regs == helper.shadow.regs
    assert engine.shadow.mem_items() == helper.shadow.mem_items()
    assert engine.shadow.peak_locations == helper.shadow.peak_locations


class TestRingBuffer:
    def test_tiny_ring_wraps_and_stays_identical(self):
        # 64 records = 1536 bytes of ring for a multi-thousand-record
        # run: the write position laps the buffer many times over.
        factory = lambda: matmul(6).runner().machine()  # noqa: E731
        _, engine, _ = _inline_run(factory)
        _, helper, _ = _parallel_run(factory, batch_size=16, ring_records=64)
        _assert_taint_equal(engine, helper)
        rep = helper.report()
        assert rep.messages > 64  # really wrapped
        assert rep.bytes_shipped == (rep.messages + rep.markers) * 24
        assert rep.batches >= rep.messages * 24 // (64 * 24 // 2)

    def test_ring_too_small_rejected(self):
        with pytest.raises(ValueError):
            ParallelHelperDIFT(BoolTaintPolicy(), ring_records=32)

    @pytest.mark.parametrize("batch_size", [1, 7, 4096])
    def test_batching_is_observably_invisible(self, batch_size):
        factory = lambda: matmul(5).runner().machine()  # noqa: E731
        _, engine, _ = _inline_run(factory)
        _, helper, _ = _parallel_run(factory, batch_size=batch_size)
        _assert_taint_equal(engine, helper)

    def test_report_accounting_consistent(self):
        factory = lambda: matmul(5).runner().machine()  # noqa: E731
        _, helper, res = _parallel_run(factory, batch_size=32)
        rep = helper.report()
        assert rep.instructions == res.instructions
        assert 0 < rep.messages <= rep.instructions
        assert rep.defs > 0
        assert rep.worker_busy_s >= 0.0
        assert 0.0 <= rep.worker_utilization <= 1.0

    def test_finish_is_idempotent(self):
        factory = lambda: matmul(4).runner().machine()  # noqa: E731
        _, helper, _ = _parallel_run(factory)
        assert helper.finish() is helper.finish()

    def test_properties_auto_finish(self):
        m = matmul(4).runner().machine()
        helper = ParallelHelperDIFT(BoolTaintPolicy(), sinks=RECORD_SINKS()).attach(m)
        m.run()
        # No explicit finish: reading the result surface must collect
        # the worker transparently.
        assert helper.stats.instructions > 0
        assert all(a.sink == "out" for a in helper.alerts)


ATTACK_SRC = """
fn safe(x) { out(1, 1); }
fn admin(x) { out(2, 1); }
fn main() {
    var fp = alloc(1);
    fp[0] = in(0);      // directly attacker-controlled pointer
    icall(fp[0], 0);
}
"""


def _attack_machine():
    cp = compile_source(ATTACK_SRC)
    m = Machine(cp.program)
    m.io.provide(0, [1])
    return m


class TestAttackParity:
    def test_record_mode_alerts_match_inline(self):
        sinks = [SinkRule(kind="icall", action="record")]
        _, engine, _ = _inline_run(_attack_machine, policy=PCTaintPolicy(), sinks=sinks)
        _, helper, _ = _parallel_run(
            _attack_machine, policy=PCTaintPolicy(), sinks=sinks
        )
        assert len(engine.alerts) == 1
        _assert_taint_equal(engine, helper)
        assert helper.report().attack is None

    def test_raise_mode_is_async_but_equivalent(self):
        sinks = [SinkRule(kind="icall", action="raise")]
        m_in = _attack_machine()
        engine = DIFTEngine(PCTaintPolicy(), sinks=sinks).attach(m_in)
        res_in = m_in.run()
        # Inline: the raise stops the guest at the sink.
        assert res_in.status is RunStatus.FAILED
        assert res_in.failure.kind == "attack_detected"

        # Parallel: the guest runs to completion; the helper core's
        # verdict arrives asynchronously with the engine state frozen
        # exactly where the inline engine raised.
        m_par = _attack_machine()
        helper = ParallelHelperDIFT(PCTaintPolicy(), sinks=sinks).attach(m_par)
        res_par = m_par.run()
        assert res_par.status is not RunStatus.FAILED
        rep = helper.report()
        assert rep.attack is not None
        assert rep.culprit_pc == engine.alerts[0].label
        _assert_taint_equal(engine, helper)


class TestSinkValueFixups:
    def test_values_beyond_i64_survive_the_24_byte_record(self):
        src = """
        fn main() {
            var x = in(0);
            var i = 0;
            while (i < 5) { x = x * x; i = i + 1; }
            out(x, 1);
        }
        """

        def factory():
            cp = compile_source(src)
            m = Machine(cp.program)
            m.io.provide(0, [3])  # 3 ** 32 >> 2 ** 63
            return m

        _, engine, _ = _inline_run(factory)
        _, helper, _ = _parallel_run(factory)
        assert len(engine.alerts) == 1
        assert engine.alerts[0].value == 3**32
        _assert_taint_equal(engine, helper)


class TestWideAddresses:
    @pytest.mark.parametrize("summaries", [False, True], ids=["plain", "summaries"])
    @pytest.mark.parametrize("kernel", ["reference", "array"])
    def test_addresses_beyond_i64_match_inline(self, kernel, summaries):
        if kernel == "array" and not numpy_available():
            pytest.skip("requires numpy")

        def factory():
            m = Machine(compile_source(WIDE_SRC).program)
            m.io.provide(0, WIDE_INPUTS[0])
            return m

        policy = PCTaintPolicy()
        _, engine, _ = _inline_run(factory, policy=policy)
        _, helper, res = _parallel_run(
            factory, policy=policy, kernel=kernel, summaries=summaries, batch_size=64
        )
        assert res.status is RunStatus.EXITED
        assert [a.value for a in engine.alerts] == [a.value for a in helper.alerts]
        _assert_taint_equal(engine, helper)


class TestMultithreaded:
    @pytest.mark.parametrize("k", race_kernels(), ids=lambda k: k.name)
    def test_race_kernels_identical(self, k):
        factory = lambda: k.runner().machine()  # noqa: E731
        _, engine, _ = _inline_run(factory)
        _, helper, _ = _parallel_run(factory, batch_size=8)
        _assert_taint_equal(engine, helper)


class TestBatchSizeFlag:
    """``batch_size=`` / ``--batch-size`` resolution: batching is the only
    channel mode, so it is an explicit size or else the default."""

    def test_explicit_wins_over_flags(self):
        assert parallel_batch_size(7) == 7
        assert parallel_batch_size(1) == 1  # unbatched stays reachable

    def test_explicit_must_be_positive(self):
        with pytest.raises(ValueError):
            parallel_batch_size(0)

    def test_default_is_batched(self):
        assert parallel_batch_size() == DEFAULT_PARALLEL_BATCH == 256

    def test_helper_resolves_batch(self):
        assert ParallelHelperDIFT(BoolTaintPolicy()).batch_size == DEFAULT_PARALLEL_BATCH
        assert ParallelHelperDIFT(BoolTaintPolicy(), batch_size=5).batch_size == 5


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


class TestTelemetry:
    def test_channel_counters_published(self):
        factory = lambda: matmul(5).runner().machine()  # noqa: E731
        _, helper, res = _parallel_run(factory, batch_size=64)
        registry = MetricsRegistry()
        helper.publish_telemetry(registry)
        flat = registry.flat()
        rep = helper.report()
        assert flat["multicore.parallel.messages"] == rep.messages
        assert flat["multicore.parallel.instructions"] == res.instructions
        assert flat["multicore.parallel.batches"] == rep.batches
        assert flat["multicore.parallel.bytes_shipped"] == rep.bytes_shipped
        assert flat["multicore.parallel.defs"] == rep.defs
        assert flat["multicore.parallel.batch_size"] == 64
        assert flat["dift.instructions"] == res.instructions

    def test_worker_spans_ship_over_side_pipe(self):
        from repro.telemetry import NULL_TRACER, WallSpanTracer

        factory = lambda: matmul(5).runner().machine()  # noqa: E731
        _, helper, _ = _parallel_run(factory, batch_size=64)
        rep = helper.report()
        # one lifetime span plus at least one coalesced busy burst,
        # all wall-epoch-us so they line up with service-tier spans.
        names = [s["name"] for s in rep.spans]
        assert names[0] == "helper.worker"
        assert "helper.busy" in names
        lifetime = rep.spans[0]
        assert lifetime["args"]["busy_s"] >= 0.0
        for s in rep.spans[1:]:
            assert lifetime["ts"] <= s["ts"]
            assert s["ts"] + s["dur"] <= lifetime["ts"] + lifetime["dur"]
        tracer = WallSpanTracer(enabled=True)
        assert helper.publish_spans(tracer) == len(rep.spans)
        assert len(tracer.chrome_events()) == len(rep.spans)
        # cycle-clock tracers lack the retroactive interface: no-op.
        assert helper.publish_spans(NULL_TRACER) == 0
