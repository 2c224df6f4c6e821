"""Unit tests for helper-core DIFT: channel models, queue simulation,
dual-core timing, detection parity with inline DIFT."""

import warnings

import pytest

from repro.dift import BoolTaintPolicy, DIFTEngine, PCTaintPolicy
from repro.dift import kernel as kernel_module
from repro.lang import compile_source
from repro.multicore import (
    ChannelModel,
    HelperCoreDIFT,
    QueueSimulator,
    hardware_interconnect,
    shared_memory_channel,
)
from repro.telemetry import MetricsRegistry
from repro.vm import Machine, RunStatus
from repro.workloads.spec_like import matmul


TAINT_HEAVY = """
global data[64];
fn main() {
    var seed = in(0);
    var i = 0;
    while (i < 64) {
        data[i] = seed + i;
        i = i + 1;
    }
    var s = 0;
    i = 0;
    while (i < 64) { s = s + data[i]; i = i + 1; }
    out(s, 1);
}
"""


def run_helper(src_or_workload, channel, policy=None, inputs=None):
    if isinstance(src_or_workload, str):
        cp = compile_source(src_or_workload)
        m = Machine(cp.program)
        for chan, values in (inputs or {}).items():
            m.io.provide(chan, values)
    else:
        m = src_or_workload.runner().machine()
    helper = HelperCoreDIFT(policy or BoolTaintPolicy(), channel=channel).attach(m)
    res = m.run()
    return m, helper, res


class TestChannels:
    def test_models_have_expected_cost_ordering(self):
        hw = hardware_interconnect()
        sw = shared_memory_channel()
        assert hw.enqueue_cycles < sw.enqueue_cycles
        assert hw.capacity < sw.capacity

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ChannelModel("bad", 1, 1, 0)


class TestQueueSimulator:
    def test_no_stall_when_helper_keeps_up(self):
        q = QueueSimulator(ChannelModel("x", 1, 1, 8))
        for t in range(0, 1000, 10):  # slow producer
            assert q.enqueue(t, service_cycles=2) == 0
        assert q.stall_cycles == 0

    def test_stall_on_full_queue(self):
        q = QueueSimulator(ChannelModel("x", 1, 1, 2))
        stalls = [q.enqueue(0, service_cycles=100) for _ in range(5)]
        assert sum(stalls) > 0
        assert q.stall_cycles == sum(stalls)

    def test_helper_time_monotone(self):
        q = QueueSimulator(ChannelModel("x", 1, 1, 64))
        last = 0
        for t in range(20):
            q.enqueue(t, service_cycles=3)
            assert q.helper_free >= last
            last = q.helper_free

    def test_drain_after_producer_finishes(self):
        q = QueueSimulator(ChannelModel("x", 1, 1, 64))
        q.enqueue(0, service_cycles=50)
        assert q.drain(10) > 0
        assert q.drain(10_000) == 0


class TestHelperCoreDIFT:
    def test_overhead_between_zero_and_inline(self):
        w = matmul(6)
        runner = w.runner()
        m_inline = runner.machine()
        DIFTEngine(BoolTaintPolicy(), sinks=[]).attach(m_inline)
        inline = m_inline.run()
        inline_overhead = inline.cycles.slowdown - 1.0

        m, helper, res = run_helper(w, hardware_interconnect())
        report = helper.report()
        assert 0 < report.overhead < inline_overhead

    def test_sw_channel_costs_more_than_hw(self):
        w = matmul(6)
        _, hw_helper, _ = run_helper(w, hardware_interconnect())
        _, sw_helper, _ = run_helper(w, shared_memory_channel())
        assert sw_helper.report().overhead > hw_helper.report().overhead

    def test_one_message_per_instruction(self):
        m, helper, res = run_helper(TAINT_HEAVY, hardware_interconnect(), inputs={0: [3]})
        assert helper.queue.messages == res.instructions

    def test_tiny_queue_stalls_the_main_core(self):
        tiny = ChannelModel("tiny", 1, 4, 1)
        m, helper, _ = run_helper(TAINT_HEAVY, tiny, inputs={0: [3]})
        assert helper.report().stall_cycles > 0

    def test_detection_parity_with_inline(self):
        # The helper engine must catch the same attack the inline engine does.
        src = """
        fn safe(x) { out(1, 1); }
        fn admin(x) { out(2, 1); }
        fn main() {
            var fp = alloc(1);
            fp[0] = in(0);      // directly attacker-controlled pointer
            icall(fp[0], 0);
        }
        """
        cp = compile_source(src)
        m = Machine(cp.program)
        m.io.provide(0, [1])  # admin's fid
        helper = HelperCoreDIFT(PCTaintPolicy()).attach(m)
        res = m.run()
        assert res.status is RunStatus.FAILED
        assert res.failure.kind == "attack_detected"
        assert len(helper.alerts) == 1

    def test_shadow_state_matches_inline_engine(self):
        cp = compile_source(TAINT_HEAVY)

        def shadow_of(engine_factory):
            m = Machine(cp.program)
            m.io.provide(0, [3])
            tool = engine_factory(m)
            m.run()
            return tool

        inline = shadow_of(lambda m: DIFTEngine(BoolTaintPolicy(), sinks=[]).attach(m))
        helper = shadow_of(lambda m: HelperCoreDIFT(BoolTaintPolicy(), sinks=[]).attach(m))
        assert inline.shadow.mem == helper.shadow.mem
        assert inline.shadow.regs == helper.shadow.regs

    def test_report_totals_consistent(self):
        m, helper, res = run_helper(TAINT_HEAVY, hardware_interconnect(), inputs={0: [1]})
        report = helper.report()
        assert report.total_cycles == report.main_cycles + report.drain_cycles
        assert report.base_cycles == res.cycles.base
        assert report.main_cycles == res.cycles.total

    def test_runs_the_reference_kernel_without_a_fallback(self, monkeypatch):
        # The helper propagates per event on the reference kernel, so it
        # must not warn, count a fallback or publish one.
        monkeypatch.setattr(kernel_module, "_fallback_warned", False)
        monkeypatch.setattr(kernel_module, "kernel_fallbacks", {})
        registry = MetricsRegistry()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, helper, res = run_helper(
                TAINT_HEAVY, hardware_interconnect(), inputs={0: [1]}
            )
            helper.publish_telemetry(registry)
        assert res.status is RunStatus.EXITED
        assert kernel_module.kernel_fallbacks == {}
        assert "dift.kernel.fallback" not in registry.flat()
        assert registry.flat()["dift.propagations"] > 0


class TestQueueBackPressure:
    """Regression: ``enqueue`` only drains completions the stall actually
    covered, so ``in_flight`` never counts phantom (or still-pending)
    slots and the queue depth is bounded by the channel capacity."""

    def test_depth_never_exceeds_capacity(self):
        q = QueueSimulator(ChannelModel("x", 1, 1, 4))
        for i in range(100):
            q.enqueue(i, service_cycles=50)
            assert len(q.in_flight) <= 4
        assert q.peak_depth <= 4

    def test_peak_depth_pinned(self):
        # Deterministic saturation: every message enqueued at t=0 against
        # a capacity-2 channel with 100-cycle service.  The first two fill
        # the queue; each later one stalls until exactly one completion,
        # so the depth peaks at the capacity and never beyond it.
        q = QueueSimulator(ChannelModel("x", 1, 1, 2))
        for _ in range(10):
            q.enqueue(0, service_cycles=100)
            assert len(q.in_flight) <= 2
        assert q.peak_depth == 2
        assert q.stalls == 8
        assert q.messages == 10

    def test_in_flight_only_holds_pending_completions(self):
        q = QueueSimulator(ChannelModel("x", 1, 1, 3))
        main_time = 0
        for i in range(50):
            stall = q.enqueue(main_time, service_cycles=17)
            main_time += stall + 1
            # Completion times are monotone and all strictly pending.
            flight = list(q.in_flight)
            assert flight == sorted(flight)
            assert all(done > main_time - 1 or done >= main_time for done in flight)
            assert len(flight) <= 3


class TestQueueProperties:
    """Seeded property tests for the queue's timing identities."""

    def test_helper_busy_time_is_sum_of_service_plus_dequeue(self):
        import random

        rng = random.Random(0xD1F7)
        for _ in range(25):
            cap = rng.randint(1, 8)
            deq = rng.randint(1, 5)
            q = QueueSimulator(ChannelModel("p", rng.randint(1, 5), deq, cap))
            main_time = 0
            busy = 0
            for _ in range(rng.randint(1, 200)):
                service = rng.randint(0, 30)
                prev_free = q.helper_free
                stall = q.enqueue(main_time, service)
                # Each message occupies the helper for exactly
                # dequeue + service cycles, starting when both the
                # helper and the message are ready.
                start = max(prev_free, main_time + stall)
                assert q.helper_free - start == deq + service
                busy += deq + service
                main_time += stall + rng.randint(0, 10)
            # The helper can idle but never compress work: its finish
            # time is at least the total busy time.
            assert q.helper_free >= busy
            assert q.drain(0) == q.helper_free

    def test_drain_monotone_in_main_time(self):
        import random

        rng = random.Random(2008)
        for _ in range(25):
            q = QueueSimulator(ChannelModel("p", 1, rng.randint(1, 4), 16))
            t = 0
            for _ in range(rng.randint(1, 100)):
                t += rng.randint(0, 5)
                q.enqueue(t, rng.randint(0, 20))
            times = sorted(rng.randint(0, q.helper_free + 50) for _ in range(20))
            drains = [q.drain(x) for x in times]
            for (t1, d1), (t2, d2) in zip(
                zip(times, drains), zip(times[1:], drains[1:])
            ):
                assert d1 >= d2  # later observers never see more work left
                assert d1 - d2 <= t2 - t1  # the backlog drains in real time
            assert q.drain(q.helper_free) == 0
