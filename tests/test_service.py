"""Tests for the analysis service (``repro.service``).

Unit layers (protocol framing, admission policy, result cache, job
specs) are tested in-process; the integration layers stand up a real
:class:`~repro.service.AsyncAnalysisServer` on a Unix socket (one test uses
TCP) with real worker processes, exercising every job kind, concurrent
clients, queue-full shedding, worker crash recovery, deadlines and
cache idempotency.  Chaos jobs (crash/hang injection, gated behind
``allow_chaos``) make the failure paths deterministic.
"""

import json
import socket
import threading
import time

import pytest

from repro.service import (
    AdmissionController,
    AsyncAnalysisServer,
    ResultCache,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    cache_key,
    program_key,
    resolve_spec,
    wait_until_ready,
)
from repro.jobs import WORKLOAD_FACTORIES, JobError, JobSpec, execute_job
from repro.lake import TraceLake, slice_stored
from repro.ontrac import OntracConfig
from repro.runner import ProgramRunner
from repro.slicing import backward_slice
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    encode,
    recv_frame,
    send_frame,
)

VULN_SOURCE = (
    "fn safe(x) { out(1, 1); }\n"
    "fn admin(x) { out(2, 1); }\n"
    "fn main() {\n"
    "    var fp = alloc(1);\n"
    "    fp[0] = in(0);\n"
    "    icall(fp[0], 0);\n"
    "}\n"
)


def run_job(payload: dict, **local) -> dict:
    """Execute a worker-form payload in process."""
    return execute_job(JobSpec(**payload), **local)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            payload = {"kind": "trace", "values": [1, 2, 3], "nested": {"x": None}}
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(encode({"k": 1})[:3])  # header cut short
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected_without_allocation(self):
        a, b = socket.socketpair()
        try:
            import struct

            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="announced"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_undecodable_frame(self):
        a, b = socket.socketpair()
        try:
            import struct

            a.sendall(struct.pack(">I", 3) + b"\xff\xfe\xfd")
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


# ---------------------------------------------------------------------------
# admission
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_idle_admits_requested_fidelity(self):
        ctrl = AdmissionController(8, degrade=True)
        decision = ctrl.decide(0, "trace", "full")
        assert (decision.action, decision.fidelity, decision.degraded) == (
            "admit", "full", False,
        )

    def test_degrade_band_steps_one_rung(self):
        ctrl = AdmissionController(8, degrade=True)  # degrade_at=4, shed_at=6
        decision = ctrl.decide(4, "trace", "full")
        assert decision.action == "admit"
        assert decision.fidelity == "dift"
        assert decision.degraded and "overload" in decision.reason

    def test_shed_band_drops_to_cheapest_rung(self):
        ctrl = AdmissionController(8, degrade=True)
        decision = ctrl.decide(6, "trace", "full")
        assert decision.fidelity == "log"

    def test_two_rung_ladder_skips_to_log(self):
        ctrl = AdmissionController(8, degrade=True)
        assert ctrl.decide(4, "slice", "full").fidelity == "log"

    def test_capacity_wall_rejects(self):
        ctrl = AdmissionController(8, degrade=True)
        decision = ctrl.decide(8, "trace", "full")
        assert decision.action == "reject"
        assert "capacity" in decision.reason

    def test_degrade_disabled_goes_straight_to_wall(self):
        ctrl = AdmissionController(8, degrade=False)
        assert ctrl.decide(7, "trace", "full").fidelity == "full"
        assert ctrl.decide(8, "trace", "full").action == "reject"

    def test_requested_low_fidelity_never_upgraded(self):
        ctrl = AdmissionController(8, degrade=True)
        assert ctrl.decide(4, "trace", "log").fidelity == "log"


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------
class TestResultCache:
    def test_roundtrip_and_counters(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("k") is None
        cache.put("k", {"a": [1, 2]})
        assert cache.get("k") == {"a": [1, 2]}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_isolation_from_caller_mutation(self):
        cache = ResultCache()
        cache.put("k", {"xs": [1]})
        first = cache.get("k")
        first["xs"].append(99)
        assert cache.get("k") == {"xs": [1]}

    def test_bit_identity_of_repeats(self):
        cache = ResultCache()
        cache.put("k", {"b": 2, "a": 1})
        assert canonical(cache.get("k")) == canonical(cache.get("k"))

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refresh a
        cache.put("c", {"v": 3})  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None


# ---------------------------------------------------------------------------
# job specs + in-process execution
# ---------------------------------------------------------------------------
class TestJobs:
    def test_resolve_rejects_unknown_kind(self):
        with pytest.raises(ProtocolError, match="unknown job kind"):
            resolve_spec({"kind": "explode", "workload": "matmul"})

    def test_resolve_rejects_chaos_unless_allowed(self):
        with pytest.raises(ProtocolError, match="chaos"):
            resolve_spec({"kind": "chaos"})
        assert resolve_spec({"kind": "chaos"}, allow_chaos=True).kind == "chaos"

    def test_resolve_needs_exactly_one_program(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            resolve_spec({"kind": "trace"})
        with pytest.raises(ProtocolError, match="exactly one"):
            resolve_spec({"kind": "trace", "workload": "matmul", "source": "x"})

    def test_resolve_rejects_unknown_workload(self):
        with pytest.raises(ProtocolError, match="unknown workload"):
            resolve_spec({"kind": "trace", "workload": "quicksort3"})

    def test_resolve_rejects_bad_scale_and_deadline(self):
        with pytest.raises(ProtocolError, match="scale"):
            resolve_spec({"kind": "trace", "workload": "matmul", "scale": 0})
        with pytest.raises(ProtocolError, match="deadline"):
            resolve_spec({"kind": "trace", "workload": "matmul", "deadline_s": -1})

    def test_resolve_rejects_non_string_program(self):
        # A list or object workload used to raise TypeError (unhashable).
        for field, value in (("workload", ["x"]), ("workload", {}), ("source", 5)):
            with pytest.raises(ProtocolError, match="must be a string"):
                resolve_spec({"kind": "trace", field: value})

    def test_resolve_rejects_non_finite_deadline(self):
        # NaN and Infinity decode from JSON and used to pass as deadlines.
        for value in (float("nan"), float("inf")):
            with pytest.raises(ProtocolError, match="finite"):
                resolve_spec({"kind": "trace", "workload": "matmul", "deadline_s": value})

    def test_resolve_rejects_deeply_nested_params(self):
        # Params this deep killed the pool thread that pickles the job.
        deep = {"x": json.loads("[" * 500 + "]" * 500)}
        with pytest.raises(ProtocolError, match="nested deeper"):
            resolve_spec({"kind": "trace", "workload": "matmul", "params": deep})
        shallow = {"inputs": {"0": [1]}}
        assert resolve_spec({"kind": "trace", "workload": "matmul",
                             "params": shallow}).params == shallow

    MALFORMED_PARAMS = [
        {"inputs": {"x": [1]}},
        {"inputs": {"0": 5}},
        {"inputs": {"0": [1.5]}},
        {"line": "abc"},
        {"buffer": "big"},
        {"buffer": -5},
        {"channel": "z"},
        {"seed": "z"},
        {"representation": "nope"},
    ]

    @pytest.mark.parametrize("params", MALFORMED_PARAMS, ids=canonical)
    def test_malformed_params_are_refused_at_admission(self, params):
        # Each used to be admitted and then fail inside the worker with
        # a bare ValueError or TypeError (or, for [1.5], run truncated).
        # Admission and execution run one parser.
        payload = {"kind": "lineage", "workload": "rle", "params": params}
        with pytest.raises(ProtocolError, match="params"):
            resolve_spec(payload)
        with pytest.raises(JobError, match="params"):
            run_job(payload)

    def test_cache_key_separates_fidelity_and_params(self):
        base = {"kind": "trace", "workload": "matmul"}
        full = resolve_spec(dict(base))
        log = resolve_spec(dict(base, fidelity="log"))
        lined = resolve_spec(dict(base, params={"line": 3}))
        keys = {cache_key(full), cache_key(log), cache_key(lined)}
        assert len(keys) == 3

    def test_program_key_hashes_source(self):
        a = resolve_spec({"kind": "trace", "source": "fn main() { out(1, 1); }"})
        b = resolve_spec({"kind": "trace", "source": "fn main() { out(2, 1); }"})
        assert program_key(a) != program_key(b)
        assert program_key(a).startswith("src:")

    def test_execute_trace_fidelities(self):
        base = {"kind": "trace", "workload": "matmul", "scale": 1, "params": {}}
        full = run_job(dict(base, fidelity="full"))
        dift = run_job(dict(base, fidelity="dift"))
        log = run_job(dict(base, fidelity="log"))
        assert "trace" in full and full["trace"]["stored_bytes"] > 0
        assert "dift" in dift and "trace" not in dift
        assert set(log) == {"kind", "fidelity", "run"}
        # all three fidelities ran the same program to the same outputs
        assert full["run"]["outputs"] == dift["run"]["outputs"] == log["run"]["outputs"]

    def test_execute_attack_full_names_root_cause(self):
        result = run_job(
            {"kind": "attack", "source": VULN_SOURCE, "fidelity": "full",
             "params": {"inputs": {"0": [1]}}}
        )
        assert result["attack"]["detected"]
        assert result["attack"]["alerts"][0]["root_cause_line"] == 5  # fp[0] = in(0)

    def test_execute_attack_dift_detects_without_root_cause(self):
        result = run_job(
            {"kind": "attack", "source": VULN_SOURCE, "fidelity": "dift",
             "params": {"inputs": {"0": [1]}}}
        )
        assert result["attack"]["detected"]
        assert "root_cause_line" not in result["attack"]["alerts"][0]

    def test_execute_slice_default_criterion(self):
        result = run_job(
            {"kind": "slice", "workload": "sort", "scale": 1, "fidelity": "full",
             "params": {}}
        )
        assert result["slice"]["instances"] > 0
        assert result["slice"]["lines"]

    @pytest.mark.parametrize("workload", ["matmul", "sort", "hashloop", "rle", "bfs", "fsm"])
    def test_slice_default_criterion_is_newest_node(self, workload):
        # The job's default criterion (the buffer's newest seq) is the
        # newest node of the traced window on every suite workload.
        result = run_job(
            {"kind": "slice", "workload": workload, "scale": 1, "fidelity": "full",
             "params": {}}
        )
        spec = WORKLOAD_FACTORIES[workload](1)
        runner = ProgramRunner(spec.compiled.program, inputs=spec.inputs)
        _, tracer, _ = runner.run_traced(OntracConfig(buffer_bytes=1 << 22))
        newest = max(seq for seq, _ in tracer.dependence_graph().node_items())
        assert result["slice"]["criterion_seq"] == newest

    def test_trace_job_spills_to_the_lake_when_asked(self, tmp_path):
        root = str(tmp_path / "lake")
        result = run_job(
            {"kind": "trace", "workload": "sort", "scale": 1, "fidelity": "full",
             "params": {"lake": True}},
            lake_root=root,
        )
        lake = TraceLake(root)
        runs = lake.runs()
        assert [r.run_id for r in runs] == [result["lake_run"]]
        assert runs[0].complete
        spec = WORKLOAD_FACTORIES["sort"](1)
        runner = ProgramRunner(spec.compiled.program, inputs=spec.inputs)
        _, tracer, _ = runner.run_traced(OntracConfig(buffer_bytes=1 << 22))
        live = tracer.dependence_graph()
        crit = max(seq for seq, _ in live.node_items())
        with lake.open(result["lake_run"]) as stored:
            assert stored.rows == len(tracer.buffer)
            a = slice_stored(stored, crit)
        b = backward_slice(live, crit)
        assert (a.seqs, a.pcs, a.truncated) == (b.seqs, b.pcs, b.truncated)

    def test_trace_job_without_lake_param_leaves_the_root_empty(self, tmp_path):
        result = run_job(
            {"kind": "trace", "workload": "sort", "scale": 1, "fidelity": "full",
             "params": {}},
            lake_root=str(tmp_path),
        )
        assert "lake_run" not in result
        assert list(tmp_path.iterdir()) == []

    def test_execute_lineage_reports_outputs(self):
        result = run_job(
            {"kind": "lineage", "workload": "rle", "scale": 1, "fidelity": "full",
             "params": {}}
        )
        assert result["lineage"]["outputs"]


# ---------------------------------------------------------------------------
# integration: live daemon
# ---------------------------------------------------------------------------
class TestServiceIntegration:
    def test_every_kind_roundtrips(self, server_factory):
        server = server_factory(workers=2, queue_capacity=16)
        with ServiceClient(server.config.address()) as client:
            for kind in ("trace", "slice", "attack", "lineage"):
                response = client.submit(kind, workload="matmul")
                assert response["status"] == "ok", response
                assert response["result"]["kind"] == kind
                assert response["result"]["fidelity"] == "full"

    def test_submitted_source_attack(self, server_factory):
        server = server_factory(workers=1)
        with ServiceClient(server.config.address()) as client:
            response = client.submit(
                "attack", source=VULN_SOURCE, params={"inputs": {"0": [1]}}
            )
        assert response["status"] == "ok"
        assert response["result"]["attack"]["alerts"][0]["root_cause_line"] == 5

    def test_client_cannot_pick_where_the_daemon_writes(self, server_factory, tmp_path):
        """``params.lake_root`` used to open a lake at any path the
        daemon user could write; it is refused with a typed error."""
        server = server_factory(workers=1)
        target = tmp_path / "elsewhere"
        with ServiceClient(server.config.address()) as client:
            response = client.submit(
                "trace", workload="sort", cache=False,
                params={"lake": True, "lake_root": str(target)},
            )
        assert response["status"] == "error"
        assert "lake_root" in response["error"]
        assert not target.exists()

    def test_tcp_transport(self):
        config = ServiceConfig(port=0, workers=1)  # ephemeral port
        with AsyncAnalysisServer(config):
            health = wait_until_ready(config.address(), timeout_s=10.0)
            assert health["workers_alive"] == 1
            with ServiceClient(config.address()) as client:
                response = client.submit("trace", workload="fsm", fidelity="log")
            assert response["status"] == "ok"

    def test_concurrent_clients_interleaved_kinds(self, server_factory):
        server = server_factory(workers=2, queue_capacity=32)
        kinds = ("trace", "slice", "attack", "lineage")
        responses = {}
        lock = threading.Lock()

        def one(i):
            with ServiceClient(server.config.address()) as client:
                response = client.submit(
                    kinds[i % 4], workload="matmul", params={"tag": i}, cache=False
                )
            with lock:
                responses[i] = response

        threads = [threading.Thread(target=one, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads), "client hang"
        assert len(responses) == 8
        for i, response in responses.items():
            assert response["status"] == "ok", (i, response)
            assert response["result"]["kind"] == kinds[i % 4]

    def test_queue_full_is_rejected_not_hung(self, server_factory):
        server = server_factory(
            workers=1, queue_capacity=2, allow_chaos=True, degrade=False
        )
        address = server.config.address()
        occupiers = []

        def hang(i):
            with ServiceClient(address) as client:
                occupiers.append(
                    client.submit("chaos", params={"mode": "hang", "sleep_s": 1.0},
                                  cache=False, deadline_s=15.0)
                )

        threads = [threading.Thread(target=hang, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 5.0
        while server.pool.depth() < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.pool.depth() >= 2

        t0 = time.monotonic()
        with ServiceClient(address) as client:
            response = client.submit("trace", workload="matmul", cache=False)
        assert response["status"] == "rejected"
        assert "capacity" in response["reason"]
        assert response["retry_after_s"] > 0
        assert time.monotonic() - t0 < 2.0, "rejection must be immediate"
        for t in threads:
            t.join(timeout=30.0)
        assert all(r["status"] == "ok" for r in occupiers)

    def test_overload_degrades_fidelity_with_reason(self, server_factory):
        server = server_factory(
            workers=1, queue_capacity=8, allow_chaos=True, degrade=True
        )
        address = server.config.address()

        def hang(i):
            with ServiceClient(address) as client:
                client.submit("chaos", params={"mode": "hang", "sleep_s": 1.0},
                              cache=False, deadline_s=15.0)

        threads = [threading.Thread(target=hang, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 5.0
        while server.pool.depth() < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.pool.depth() >= 4  # degrade band (degrade_at = 4)

        with ServiceClient(address) as client:
            response = client.submit("trace", workload="matmul", cache=False,
                                     deadline_s=30.0)
        assert response["status"] == "degraded"
        assert response["result"]["fidelity"] in ("dift", "log")
        assert "overload" in response["reason"]
        for t in threads:
            t.join(timeout=30.0)

    def test_worker_crash_is_retried_then_failed_cleanly(self, server_factory):
        server = server_factory(workers=1, allow_chaos=True)
        with ServiceClient(server.config.address()) as client:
            response = client.submit("chaos", params={"mode": "exit"},
                                     cache=False, deadline_s=30.0)
            assert response["status"] == "error"
            assert "crashed" in response["error"]
            # the crashed worker was respawned; the service still works
            follow_up = client.submit("trace", workload="matmul")
            assert follow_up["status"] == "ok"
            stats = client.stats()
        assert stats["pool"]["respawns"] >= 1
        assert stats["pool"]["retries"] >= 1
        assert stats["health"]["workers_alive"] == 1

    def test_worker_crash_once_retry_succeeds(self, server_factory, tmp_path):
        server = server_factory(workers=1, allow_chaos=True)
        flag = str(tmp_path / "crash-once.flag")
        with ServiceClient(server.config.address()) as client:
            response = client.submit("chaos", params={"mode": "exit-once", "flag": flag},
                                     cache=False, deadline_s=30.0)
        assert response["status"] == "ok"
        assert response["result"]["chaos"]["survived_retry"] is True

    def test_deadline_cancels_hung_worker(self, server_factory):
        server = server_factory(workers=1, allow_chaos=True)
        with ServiceClient(server.config.address()) as client:
            t0 = time.monotonic()
            response = client.submit("chaos", params={"mode": "hang", "sleep_s": 60.0},
                                     cache=False, deadline_s=1.0)
            elapsed = time.monotonic() - t0
            assert response["status"] == "timeout"
            assert elapsed < 15.0, "timeout must be near the deadline, not the hang"
            # cancellation respawned the worker; the service still works
            follow_up = client.submit("trace", workload="matmul")
            assert follow_up["status"] == "ok"

    def test_cache_repeat_is_bit_identical_and_flagged(self, server_factory):
        server = server_factory(workers=1)
        with ServiceClient(server.config.address()) as client:
            cold = client.submit("slice", workload="sort")
            warm = client.submit("slice", workload="sort")
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert canonical(cold["result"]) == canonical(warm["result"])

    def test_cache_opt_out(self, server_factory):
        server = server_factory(workers=1)
        with ServiceClient(server.config.address()) as client:
            client.submit("trace", workload="fsm", cache=False)
            again = client.submit("trace", workload="fsm", cache=False)
        assert again["cached"] is False

    def test_degraded_results_never_poison_full_cache(self, server_factory):
        """A log-fidelity result must not be served to a full request."""
        server = server_factory(workers=1)
        with ServiceClient(server.config.address()) as client:
            log = client.submit("trace", workload="bfs", fidelity="log")
            full = client.submit("trace", workload="bfs", fidelity="full")
        assert log["result"]["fidelity"] == "log"
        assert full["cached"] is False
        assert full["result"]["fidelity"] == "full"

    def test_malformed_job_is_clean_error(self, server_factory):
        server = server_factory(workers=1)
        with ServiceClient(server.config.address()) as client:
            response = client.request({"kind": "trace"})  # no program
        assert response["status"] == "error"
        assert "exactly one" in response["error"]

    def test_compile_error_is_clean_error(self, server_factory):
        server = server_factory(workers=1)
        with ServiceClient(server.config.address()) as client:
            response = client.submit("trace", source="fn main() { x = ; }")
        assert response["status"] == "error"
        assert "CompileError" in response["error"]

    def test_stats_and_health_fields(self, server_factory):
        server = server_factory(workers=2)
        with ServiceClient(server.config.address()) as client:
            client.submit("trace", workload="matmul")
            health = client.health()
            stats = client.stats()
        assert health["ok"] and health["workers_alive"] == 2
        assert health["queue_capacity"] == 8
        assert stats["pool"]["completed"] >= 1
        assert stats["cache"]["misses"] >= 1
        assert stats["metrics"]["counters"]["service.jobs.admitted"] >= 1
        assert "service.latency.exec_s" in stats["metrics"]["histograms"]

    def test_shutdown_request_stops_daemon(self, tmp_path):
        config = ServiceConfig(socket_path=str(tmp_path / "down.sock"), workers=1)
        server = AsyncAnalysisServer(config)
        server.start()
        done = threading.Event()

        def run():
            server.serve_forever()
            done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        with ServiceClient(config.address()) as client:
            response = client.shutdown()
        assert response["shutting_down"] is True
        assert done.wait(timeout=10.0), "serve_forever did not exit"

    def test_connect_failure_raises_service_error(self, tmp_path):
        with pytest.raises(ServiceError, match="cannot connect"):
            ServiceClient(str(tmp_path / "nothing.sock")).connect()

    def test_wait_until_ready_times_out(self, tmp_path):
        with pytest.raises(ServiceError, match="not ready"):
            wait_until_ready(str(tmp_path / "nothing.sock"), timeout_s=0.3)


class TestServiceConfig:
    def test_exactly_one_transport(self, tmp_path):
        with pytest.raises(ValueError):
            AsyncAnalysisServer(ServiceConfig())
        with pytest.raises(ValueError):
            AsyncAnalysisServer(ServiceConfig(socket_path="x", port=1))

    def test_address_forms(self):
        assert ServiceConfig(socket_path="/x/y.sock").address() == "unix:///x/y.sock"
        assert ServiceConfig(port=81).address() == "tcp://127.0.0.1:81"
