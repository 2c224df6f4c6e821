"""Observability: tracing, metrics exposition, flight recorder.

Unit tests cover the pure pieces (Prometheus rendering, quantile
estimation, the wall-clock tracer, the flight-recorder ring); the
live-daemon tests start real servers on tmp Unix sockets and assert the
end-to-end properties the tools rely on — one Chrome trace per traced
job whose client/server/admission/worker spans share a trace id and
nest, a ``metrics`` request kind with well-formed exposition text, and
a crash dump artifact on worker death (chaos and deadline-cancel paths,
``allow_chaos`` making them deterministic).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.service import ServiceClient
from repro.service.observe import NULL_OBSERVABILITY, ServiceObservability
from repro.telemetry import MetricsRegistry, validate_chrome_trace
from repro.telemetry.obs import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    MetricsWindow,
    WallSpanTracer,
    chrome_trace,
    histogram_quantile,
    latency_summary,
    new_trace_id,
    render_prometheus,
    span_event,
    wall_now_us,
)


# ---------------------------------------------------------------------------
# prometheus exposition + quantiles
# ---------------------------------------------------------------------------
class TestExposition:
    def test_counter_gauge_histogram_render(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("service.jobs.received").inc(5)
        reg.gauge("service.queue.depth").set(3)
        h = reg.histogram("service.latency.total_s", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = render_prometheus(reg)
        lines = text.splitlines()
        assert "# TYPE service_jobs_received_total counter" in lines
        assert "service_jobs_received_total 5" in lines
        assert "service_queue_depth 3" in lines
        # cumulative buckets: 1 under 0.1, 2 under 1.0, 3 under +Inf
        assert 'service_latency_total_s_bucket{le="0.1"} 1' in lines
        assert 'service_latency_total_s_bucket{le="1.0"} 2' in lines
        assert 'service_latency_total_s_bucket{le="+Inf"} 3' in lines
        assert "service_latency_total_s_count 3" in lines
        assert text.endswith("\n")
        # every sample line is "name[{labels}] value"
        for line in lines:
            if line.startswith("#") or not line:
                continue
            name, value = line.rsplit(" ", 1)
            float(value)
            assert name.replace("_", "").replace("{", "").replace("}", "")

    def test_quantiles_interpolate_and_handle_edges(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        # p50 lands in the (1, 2] bucket
        q = histogram_quantile(h.as_dict(), 0.5)
        assert 1.0 <= q <= 2.0
        # overflow observations clamp to the last finite bound
        h.observe(100.0)
        assert histogram_quantile(h.as_dict(), 0.999) == 4.0
        empty = reg.histogram("empty", buckets=(1.0,))
        assert histogram_quantile(empty.as_dict(), 0.5) is None

    def test_latency_summary_derives_rates(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("service.jobs.received").inc(10)
        reg.counter("service.jobs.completed").inc(7)
        reg.counter("service.jobs.rejected").inc(2)
        h = reg.histogram("service.latency.total_s", buckets=(0.1, 1.0))
        for _ in range(7):
            h.observe(0.05)
        summary = latency_summary(reg)
        assert summary["jobs_received"] == 10
        assert summary["reject_rate"] == pytest.approx(0.2)
        assert summary["p50_ms"] is not None and summary["p50_ms"] <= 100.0


# ---------------------------------------------------------------------------
# wall tracer + flight recorder + window
# ---------------------------------------------------------------------------
class TestObsPrimitives:
    def test_wall_tracer_retroactive_spans_filter_by_trace(self):
        tracer = WallSpanTracer(enabled=True)
        t0 = wall_now_us()
        tracer.span_at("a", t0, 10, trace_id="t1")
        tracer.span_at("b", t0 + 5, 3, trace_id="t2")
        tracer.instant_at("mark", t0 + 1, trace_id="t1")
        all_events = tracer.chrome_events()
        only_t1 = tracer.chrome_events(trace_id="t1")
        assert len(all_events) == 3
        assert {e["name"] for e in only_t1} == {"a", "mark"}
        assert all(e["pid"] == os.getpid() for e in only_t1)
        trace = chrome_trace(all_events)
        validate_chrome_trace(trace)

    def test_wall_tracer_ring_is_bounded(self):
        tracer = WallSpanTracer(enabled=True, max_events=8)
        for i in range(50):
            tracer.span_at(f"s{i}", i, 1)
        events = tracer.chrome_events()
        assert len(events) == 8
        assert events[-1]["name"] == "s49"

    def test_flight_recorder_ring_and_dump(self, tmp_path):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("tick", i=i)
        snap = rec.snapshot()
        assert len(snap) == 4
        assert [e["i"] for e in snap] == [6, 7, 8, 9]
        assert snap[0]["seq"] < snap[-1]["seq"]
        path = tmp_path / "dump.json"
        rec.dump(str(path), reason="unit-test", slot=3)
        data = json.loads(path.read_text())
        assert data["schema"] == FLIGHT_SCHEMA
        assert data["reason"] == "unit-test"
        assert data["slot"] == 3
        assert len(data["events"]) == 4

    def test_metrics_window_is_bounded(self):
        reg = MetricsRegistry(enabled=True)
        win = MetricsWindow(capacity=3)
        for i in range(7):
            reg.counter("c").inc()
            win.sample(reg)
        series = win.series()
        assert len(win) == 3
        assert series[-1]["values"]["c"] == 7

    def test_service_observability_crash_dump(self, tmp_path):
        obs = ServiceObservability(
            MetricsRegistry(enabled=True), dump_dir=str(tmp_path)
        )
        obs.event("worker.crash", slot=1, pid=42)
        path = obs.crash_dump("worker-crash", slot=1)
        assert path is not None and os.path.exists(path)
        data = json.loads(open(path).read())
        assert data["reason"] == "worker-crash"
        assert any(e["kind"] == "worker.crash" for e in data["events"])
        payload = obs.metrics_payload(dump=False)
        assert payload["dumps"] == [path]
        obs.stop()

    def test_null_observability_is_inert(self, tmp_path):
        assert NULL_OBSERVABILITY.enabled is False
        NULL_OBSERVABILITY.event("anything", x=1)
        NULL_OBSERVABILITY.span_at("s", 0, 1)
        assert NULL_OBSERVABILITY.crash_dump("r") is None
        assert NULL_OBSERVABILITY.trace_events("t") == []
        assert NULL_OBSERVABILITY.metrics_payload() == {}
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# live daemon: tracing, metrics kind, crash dumps
# ---------------------------------------------------------------------------
class TestLiveObservability:
    def test_traced_job_yields_one_nested_chrome_trace(self, server_factory, tmp_path):
        server = server_factory(workers=1)
        trace_path = tmp_path / "job.trace.json"
        with ServiceClient(server.config.address()) as client:
            response, trace = client.submit_traced(
                "trace", workload="hashloop", scale=1,
                trace_path=str(trace_path),
            )
        assert response["status"] == "ok"
        validate_chrome_trace(trace)
        events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        by_name = {e["name"]: e for e in events}
        for required in ("client.request", "server.handle",
                         "server.admission", "worker.execute"):
            assert required in by_name, f"missing span {required}"
        ids = {e["args"]["trace_id"] for e in events if "trace_id" in e.get("args", {})}
        assert len(ids) == 1
        assert ids == {response["trace"]["trace_id"]}

        def covers(outer, inner):
            return (outer["ts"] <= inner["ts"]
                    and outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"])

        assert covers(by_name["client.request"], by_name["server.handle"])
        assert covers(by_name["server.handle"], by_name["server.admission"])
        assert covers(by_name["server.handle"], by_name["worker.execute"])
        # the file on disk is the same trace
        on_disk = json.loads(trace_path.read_text())
        assert on_disk == trace

    def test_engine_spans_ride_along_marked_as_modeled_cycles(self, server_factory):
        server = server_factory(workers=1)
        with ServiceClient(server.config.address()) as client:
            response, trace = client.submit_traced("trace", workload="hashloop")
        modeled = [e for e in trace["traceEvents"]
                   if e.get("args", {}).get("clock") == "modeled-cycles"]
        assert modeled, "expected re-based engine spans in the job trace"
        worker = next(e for e in trace["traceEvents"]
                      if e["name"] == "worker.execute")
        assert all(e["ts"] >= worker["ts"] for e in modeled)

    def test_metrics_kind_exposes_prometheus_and_summary(self, server_factory):
        server = server_factory(workers=1)
        with ServiceClient(server.config.address()) as client:
            client.submit("trace", workload="hashloop")
            metrics = client.metrics()
        assert metrics["json"]["counters"]["service.jobs.received"] >= 1
        text = metrics["prometheus"]
        assert "# TYPE service_jobs_received_total counter" in text
        assert metrics["summary"]["jobs_received"] >= 1
        assert metrics["session"]
        assert isinstance(metrics["series"], list) and metrics["series"]

    def test_metrics_dump_writes_flight_artifact(self, server_factory):
        server = server_factory(workers=1)
        with ServiceClient(server.config.address()) as client:
            client.submit("trace", workload="hashloop")
            metrics = client.metrics(dump=True)
        path = metrics["dump_path"]
        assert path and os.path.exists(path)
        data = json.loads(open(path).read())
        assert data["reason"] == "on-demand"

    def test_worker_crash_dumps_flight_recorder(self, server_factory, tmp_path):
        server = server_factory(workers=1, allow_chaos=True)
        with ServiceClient(server.config.address()) as client:
            response = client.submit("chaos", params={"mode": "exit"}, cache=False)
        assert response["status"] == "error"
        dumps = [p for p in (tmp_path / "obs").iterdir()
                 if p.name.startswith("flight-")]
        assert dumps, "worker crash must produce a flight-recorder artifact"
        data = json.loads(dumps[0].read_text())
        assert data["schema"] == FLIGHT_SCHEMA
        assert data["reason"] == "worker-crash"
        assert data["slot"] == 0
        kinds = [e["kind"] for e in data["events"]]
        assert "worker.crash" in kinds
        assert "dispatch" in kinds

    def test_deadline_cancel_dumps_flight_recorder(self, server_factory, tmp_path):
        server = server_factory(workers=1, allow_chaos=True, degrade=False)
        with ServiceClient(server.config.address()) as client:
            response = client.submit(
                "chaos", params={"mode": "hang", "sleep_s": 30.0},
                deadline_s=0.3, cache=False,
            )
        assert response["status"] == "timeout"
        reasons = []
        for p in (tmp_path / "obs").iterdir():
            reasons.append(json.loads(p.read_text())["reason"])
        assert "deadline-cancel" in reasons

    def test_observe_disabled_daemon_serves_without_traces(self, server_factory):
        server = server_factory(workers=1, observe=False)
        assert server.obs is NULL_OBSERVABILITY
        with ServiceClient(server.config.address()) as client:
            response = client.submit("trace", workload="hashloop", trace=True)
            metrics = client.metrics()
        assert response["status"] == "ok"
        assert "trace" not in response
        # registry-derived exposition still works without the obs layer
        assert metrics["json"]["counters"]["service.jobs.received"] >= 1
        assert "session" not in metrics


# ---------------------------------------------------------------------------
# span_event helper
# ---------------------------------------------------------------------------
def test_span_event_shape():
    e = span_event("x", 10, 5, pid=1, tid=2, trace_id="abc")
    assert e == {"ph": "X", "name": "x", "cat": "service", "pid": 1,
                 "tid": 2, "ts": 10, "dur": 5, "args": {"trace_id": "abc"}}
    tid = new_trace_id()
    assert len(tid) == 16 and int(tid, 16) >= 0
