"""Tests for the unified telemetry layer (metrics, spans, reports)."""

import json

import pytest

from repro.dift.engine import DIFTEngine, SinkRule
from repro.dift.policy import PCTaintPolicy
from repro.lang import compile_source
from repro.ontrac import OntracConfig
from repro.runner import ProgramRunner
from repro.telemetry import (
    NULL_TELEMETRY,
    MetricsRegistry,
    RunReport,
    SpanTracer,
    Telemetry,
    validate_chrome_trace,
    validate_report,
)
from repro.vm import Machine
from repro.vm.cost import CycleCounters

LOOP_SOURCE = """
fn main() {
    var i = 0;
    var s = 0;
    while (i < 25) {
        s = s + in(0);
        i = i + 1;
    }
    out(s, 1);
}
"""

ATTACK_SOURCE = """
fn safe(x) { out(1, 1); }
fn admin(x) { out(2, 1); }
fn main() {
    var fp = alloc(1);
    fp[0] = in(0);
    icall(fp[0], 0);
}
"""


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        reg.gauge("g").set(3.5)
        reg.gauge("hwm").set_max(10)
        reg.gauge("hwm").set_max(7)  # lower value must not win
        reg.histogram("h", buckets=(1, 10)).observe(5)
        snap = reg.as_dict()
        assert snap["counters"]["a"] == 5
        assert snap["gauges"]["g"] == 3.5
        assert snap["gauges"]["hwm"] == 10
        assert snap["histograms"]["h"]["count"] == 1

    def test_same_name_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("y") is reg.gauge("y")
        assert reg.histogram("z") is reg.histogram("z")

    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("a").inc(100)
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(3)
        assert reg.as_dict() == {}
        assert reg.flat() == {}
        # the no-op instruments are shared singletons
        assert reg.counter("a") is reg.counter("b")

    def test_histogram_bucketing(self):
        reg = MetricsRegistry()
        h = reg.histogram("seg", buckets=(1, 4, 16))
        for v in (0, 1, 2, 4, 5, 16, 17, 1000):
            h.observe(v)
        # counts: <=1, <=4, <=16, overflow
        assert h.counts == [2, 2, 2, 2]
        assert h.total == 8
        assert h.sum == 1045
        assert h.as_dict()["buckets"] == [1, 4, 16]

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", buckets=(4, 1))

    def test_flat_merges_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(7)
        assert reg.flat() == {"c": 2, "g": 7}

    def test_concurrent_hammering_loses_no_updates(self):
        # Regression for the service tier: handler threads, the pool's
        # verdict threads and the sampler all mutate one registry.  Each
        # instrument carries its own mutator lock (reads stay lock-free;
        # see the metrics module docstring), so N threads x M increments
        # must land exactly N*M — unsynchronized `+=` would drop updates.
        import threading

        reg = MetricsRegistry(enabled=True)
        threads_n, iters = 8, 2000
        barrier = threading.Barrier(threads_n)

        def hammer(i: int) -> None:
            barrier.wait()
            for k in range(iters):
                reg.counter("hits").inc()
                reg.gauge("hwm").set_max(i * iters + k)
                reg.histogram("lat", buckets=(10, 100)).observe(k % 200)
                if k % 100 == 0:  # concurrent snapshot readers
                    reg.as_dict()
                    reg.flat()

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        snap = reg.as_dict()
        assert snap["counters"]["hits"] == threads_n * iters
        assert snap["gauges"]["hwm"] == threads_n * iters - 1
        hist = snap["histograms"]["lat"]
        assert hist["count"] == threads_n * iters
        assert sum(hist["counts"]) == threads_n * iters


class TestSpanTracer:
    def test_disabled_tracer_hands_out_null_span(self):
        tracer = SpanTracer(enabled=False)
        with tracer.span("x") as s:
            pass
        assert tracer.events == []
        assert tracer.span("a") is tracer.span("b")

    def test_cycle_clock_stamps_ts_and_dur(self):
        clock = iter([10, 25])
        tracer = SpanTracer(cycle_clock=lambda: next(clock))
        span = tracer.span("region")
        span.end(items=3)
        assert span.ts == 10 and span.dur == 15
        assert span.args["items"] == 3

    def test_bind_clock_only_once(self):
        tracer = SpanTracer()
        tracer.bind_clock(lambda: 7)
        tracer.bind_clock(lambda: 99)  # must not rebind
        assert tracer.now() == 7

    def test_chrome_trace_schema_roundtrip(self, tmp_path):
        tracer = SpanTracer(cycle_clock=lambda: 5)
        tracer.name_thread(0, "main")
        tracer.span("work", cat="vm", tid=0).end()
        tracer.instant("failure", cat="vm", tid=0, pc=3)
        path = tmp_path / "trace.json"
        tracer.write(path)
        loaded = json.loads(path.read_text())
        validate_chrome_trace(loaded)
        phases = [e["ph"] for e in loaded["traceEvents"]]
        assert phases == ["M", "X", "i"]
        meta = loaded["traceEvents"][0]
        assert meta["args"]["name"] == "main"

    def test_validate_rejects_malformed_traces(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X", "name": "a"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Q", "name": "a"}]})


class TestRunReport:
    def test_roundtrip_and_validation(self, tmp_path):
        report = RunReport(
            tool="run", status="exited", instructions=10,
            base_cycles=40, overhead_cycles=8, metrics={"counters": {}},
        )
        path = tmp_path / "rep.json"
        report.write(path)
        data = json.loads(path.read_text())
        validate_report(data)
        back = RunReport.from_dict(data)
        assert back.total_cycles == 48
        assert back.slowdown == pytest.approx(1.2)

    def test_validation_failures(self):
        good = RunReport(
            tool="run", status="exited", instructions=1,
            base_cycles=2, overhead_cycles=0,
        ).to_dict()
        with pytest.raises(ValueError):
            validate_report({**good, "total_cycles": 99})
        with pytest.raises(ValueError):
            validate_report({**good, "schema": "bogus/v0"})
        bad = dict(good)
        del bad["instructions"]
        with pytest.raises(ValueError):
            validate_report(bad)

    def test_deterministic_dict_excludes_wall_time(self):
        report = RunReport(
            tool="run", status="exited", instructions=1,
            base_cycles=1, overhead_cycles=0, wall_time_s=1.23,
        )
        assert "wall_time_s" in report.to_dict()
        assert "wall_time_s" not in report.to_dict(deterministic=True)


class TestCycleCountersSlowdown:
    def test_empty_run_is_1x(self):
        assert CycleCounters().slowdown == 1.0

    def test_overhead_without_base_is_infinite(self):
        c = CycleCounters()
        c.overhead = 10
        assert c.slowdown == float("inf")

    def test_normal_ratio(self):
        c = CycleCounters()
        c.base, c.overhead = 100, 50
        assert c.slowdown == pytest.approx(1.5)


class TestInstrumentedRuns:
    def _runner(self, telemetry=None):
        compiled = compile_source(LOOP_SOURCE)
        return ProgramRunner(
            compiled.program, inputs={0: [1, 2, 3]}, telemetry=telemetry
        )

    def test_vm_metrics_match_run_result(self):
        telemetry = Telemetry.on()
        _, result = self._runner(telemetry).run()
        counters = telemetry.registry.as_dict()["counters"]
        assert counters["vm.instructions"] == result.instructions
        per_class = sum(
            v for k, v in counters.items() if k.startswith("vm.instructions.")
        )
        assert per_class == result.instructions
        assert counters["vm.scheduler.segments"] == len(result.schedule)
        gauges = telemetry.registry.as_dict()["gauges"]
        assert gauges["vm.cycles.base"] == result.cycles.base
        assert gauges["vm.cycles.total"] == result.cycles.total

    def test_dift_metrics_match_alerts(self):
        compiled = compile_source(ATTACK_SOURCE)
        telemetry = Telemetry.on()
        machine = Machine(compiled.program, telemetry=telemetry)
        machine.io.provide(0, [1])
        engine = DIFTEngine(
            PCTaintPolicy(), sinks=[SinkRule(kind="icall", action="record")]
        ).attach(machine)
        result = machine.run()
        engine.publish_telemetry(telemetry.registry)
        counters = telemetry.registry.as_dict()["counters"]
        assert counters["dift.alerts"] == len(engine.alerts) == 1
        assert counters["dift.instructions"] == result.instructions
        assert counters["vm.instructions"] == result.instructions

    def test_two_runs_produce_identical_reports(self):
        def one_report():
            telemetry = Telemetry.on()
            runner = self._runner(telemetry)
            _, tracer, result = runner.run_traced(OntracConfig())
            report = RunReport(
                tool="trace",
                status=result.status.value,
                instructions=result.instructions,
                base_cycles=result.cycles.base,
                overhead_cycles=result.cycles.overhead,
                metrics=telemetry.registry.as_dict(),
            )
            return (
                report.to_json(deterministic=True),
                json.dumps(
                    {
                        k: {kk: vv for kk, vv in ev.items() if kk != "args"}
                        for k, ev in enumerate(
                            telemetry.tracer.to_chrome_trace()["traceEvents"]
                        )
                    },
                    sort_keys=True,
                ),
            )

        assert one_report() == one_report()

    def test_disabled_telemetry_keeps_cycles_identical(self):
        # E1 acceptance: telemetry must never perturb the cycle model.
        _, _, plain = self._runner(None).run_traced(OntracConfig())
        _, _, observed = self._runner(Telemetry.on()).run_traced(OntracConfig())
        assert plain.cycles.base == observed.cycles.base
        assert plain.cycles.overhead == observed.cycles.overhead
        assert plain.instructions == observed.instructions

    def test_null_telemetry_records_nothing(self):
        _, result = self._runner(None).run()
        assert NULL_TELEMETRY.registry.as_dict() == {}
        assert NULL_TELEMETRY.tracer.events == []
        assert result.instructions > 0
