"""Tests for the consistent-hash router tier (``repro.service.router``).

Three layers, cheapest first:

* :class:`HashRing` units + the two monotone-placement properties
  (a join moves keys only *onto* the new node; a leave moves only the
  removed node's keys), checked over 100 seeded topologies.
* Router integration over real in-process daemons: placement
  stickiness, streamed relay bit-identity, the router-level cache,
  drain/undrain, health mark-down/up with flight-recorder events.
* Chaos: scripted fake backends that crash mid-stream (proving
  exactly-once partial relay across a reroute), always-reject
  (back-pressure cooldown), or hang (never marked routable); plus a
  kill-one-real-backend-mid-burst run asserting zero hung clients.
"""

import errno
import os
import random
import socket
import struct
import threading
import time

import pytest

from repro.service import (
    HashRing,
    RouterConfig,
    RouterServer,
    ServiceClient,
    execute_job_stream,
    reassemble,
    recv_frame,
    resolve_spec,
    routing_key,
    send_frame,
    wait_until_ready,
)
from repro.service.protocol import ProtocolError, STATUS_PARTIAL

from tests.test_aserver import canonical, wait_stopped


def _proc_stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name (state,
    ppid, ...), or None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(int(entry))
            if fields is not None and int(fields[1]) == pid:
                kids.append(int(entry))
    return kids


def _alive(pid: int) -> bool:
    """Running, as opposed to gone or a zombie nobody reaped yet."""
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"

WORKLOADS = ("matmul", "sort", "hashloop", "rle", "bfs", "fsm")


# ---------------------------------------------------------------------------
# HashRing
# ---------------------------------------------------------------------------
class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        nodes = ["a", "b", "c"]
        one, two = HashRing(nodes, vnodes=32), HashRing(reversed(nodes), vnodes=32)
        for i in range(200):
            key = f"key-{i}"
            assert one.node(key) == two.node(key)

    def test_placement_is_roughly_balanced(self):
        ring = HashRing(["a", "b", "c"], vnodes=64)
        counts = {"a": 0, "b": 0, "c": 0}
        for i in range(1200):
            counts[ring.node(f"key-{i}")] += 1
        for node, count in counts.items():
            assert count > 120, f"node {node} got only {count}/1200 keys"

    def test_join_moves_keys_only_onto_the_new_node(self):
        """The consistent-hashing contract, over 100 seeded topologies:
        adding a node relocates ~K/N keys and every relocated key lands
        on the new node — no surviving node's keys shuffle around."""
        for seed in range(100):
            rng = random.Random(seed)
            nodes = [f"node-{seed}-{i}" for i in range(rng.randint(2, 6))]
            keys = [f"key-{seed}-{i}" for i in range(200)]
            ring = HashRing(nodes, vnodes=32)
            before = {k: ring.node(k) for k in keys}
            ring.add(f"node-{seed}-new")
            moved = 0
            for k in keys:
                after = ring.node(k)
                if after != before[k]:
                    assert after == f"node-{seed}-new", (
                        f"seed {seed}: key moved between surviving nodes"
                    )
                    moved += 1
            bound = 3 * len(keys) / (len(nodes) + 1)
            assert moved <= bound, f"seed {seed}: {moved} keys moved (> {bound:.0f})"

    def test_leave_moves_only_the_removed_nodes_keys(self):
        for seed in range(100):
            rng = random.Random(1000 + seed)
            nodes = [f"node-{seed}-{i}" for i in range(rng.randint(3, 6))]
            keys = [f"key-{seed}-{i}" for i in range(200)]
            ring = HashRing(nodes, vnodes=32)
            before = {k: ring.node(k) for k in keys}
            victim = rng.choice(nodes)
            ring.remove(victim)
            for k in keys:
                after = ring.node(k)
                if after != before[k]:
                    assert before[k] == victim, (
                        f"seed {seed}: a surviving node's key moved on leave"
                    )
                assert after != victim

    def test_exclude_reroutes_without_mutating_placement(self):
        ring = HashRing(["a", "b", "c"], vnodes=32)
        key = "some-program"
        owner = ring.node(key)
        fallback = ring.node(key, exclude={owner})
        assert fallback is not None and fallback != owner
        assert ring.node(key) == owner, "exclusion must not mutate the ring"
        assert ring.node(key, exclude={"a", "b", "c"}) is None

    def test_add_remove_and_validation(self):
        ring = HashRing(vnodes=4)
        assert len(ring) == 0 and ring.node("k") is None
        ring.add("a")
        ring.add("a")
        assert ring.nodes() == ["a"] and ring.node("k") == "a"
        ring.remove("a")
        ring.remove("a")
        assert len(ring) == 0
        with pytest.raises(ValueError, match="vnodes"):
            HashRing(["a"], vnodes=0)

    def test_routing_key_is_stable_and_chaos_safe(self):
        slice_a = resolve_spec({"kind": "slice", "workload": "matmul"})
        slice_b = resolve_spec({"kind": "slice", "workload": "matmul"})
        assert routing_key(slice_a) == routing_key(slice_b)
        chaos_a = resolve_spec(
            {"kind": "chaos", "params": {"mode": "exit"}}, allow_chaos=True
        )
        chaos_b = resolve_spec(
            {"kind": "chaos", "params": {"mode": "hang"}}, allow_chaos=True
        )
        assert routing_key(chaos_a).startswith("chaos:")
        assert routing_key(chaos_a) != routing_key(chaos_b)


# ---------------------------------------------------------------------------
# Fixtures: real backends, fake backends, routers
# ---------------------------------------------------------------------------
@pytest.fixture
def router_factory(tmp_path):
    routers = []
    counter = [0]

    def start(backends, **kwargs) -> RouterServer:
        counter[0] += 1
        kwargs.setdefault("socket_path", str(tmp_path / f"rt{counter[0]}.sock"))
        kwargs.setdefault("health_interval_s", 0.05)
        router = RouterServer(RouterConfig(backends=list(backends), **kwargs))
        router.start()
        routers.append(router)
        return router

    yield start
    for router in routers:
        router.stop(drain_timeout_s=2.0)


class FakeBackend(threading.Thread):
    """A scriptable frame-speaking daemon for chaos scenarios.

    Answers ``health`` like a healthy daemon; the first *job* frame on a
    connection is handed to ``on_job(conn, request)`` and the connection
    closed after it returns.  ``silent=True`` reads the request and then
    never answers anything — the hang variant the router must mark down
    by probe timeout rather than wait on.
    """

    def __init__(self, path: str, on_job=None, silent: bool = False):
        super().__init__(daemon=True)
        self.path = path
        self.on_job = on_job
        self.silent = silent
        self.job_requests = 0
        self._stopped = False
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(16)
        self.start()

    def run(self):
        while not self._stopped:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        try:
            while True:
                request = recv_frame(conn)
                if request is None:
                    return
                if self.silent:
                    time.sleep(30.0)
                    return
                if request.get("kind") == "health":
                    send_frame(conn, {"status": "ok", "health": {
                        "ok": True, "workers_alive": 1,
                        "queue_depth": 0, "queue_capacity": 8,
                    }})
                    continue
                self.job_requests += 1
                if self.on_job is not None:
                    self.on_job(conn, request)
                return
        except (OSError, ProtocolError):
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def stop(self):
        self._stopped = True
        self._listener.close()


def pick_workload_for(ring_backends: list[str], target: str, vnodes: int = 64,
                      kind: str = "slice") -> str:
    """A workload whose routing key lands on ``target`` — lets chaos
    tests steer a job onto the scripted backend deterministically."""
    ring = HashRing(ring_backends, vnodes=vnodes)
    for workload in WORKLOADS:
        spec = resolve_spec({"kind": kind, "workload": workload})
        if ring.node(routing_key(spec)) == target:
            return workload
    pytest.skip(f"no workload hashes onto {target} in this topology")


def true_ops(request: dict) -> list:
    """The exact op stream a faithful worker would emit for ``request``."""
    ops = []
    spec = resolve_spec(request, allow_chaos=True)
    execute_job_stream(spec.payload(), lambda op: ops.append(op))
    return ops


# ---------------------------------------------------------------------------
# Router integration over real daemons
# ---------------------------------------------------------------------------
class TestRouterIntegration:
    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="backend"):
            RouterServer(RouterConfig(backends=[],
                                      socket_path=str(tmp_path / "r.sock")))
        with pytest.raises(ValueError, match="exactly one"):
            RouterServer(RouterConfig(backends=["x.sock"]))
        with pytest.raises(ValueError, match="exactly one"):
            RouterServer(RouterConfig(backends=["x.sock"],
                                      socket_path=str(tmp_path / "r.sock"), port=0))

    def test_relays_jobs_and_health_reports_role(self, server_factory, router_factory):
        backends = [server_factory(workers=1).config.socket_path for _ in range(2)]
        router = router_factory(backends)
        address = router.config.socket_path
        health = wait_until_ready(address)
        assert health["role"] == "router"
        assert health["backends_routable"] == 2
        with ServiceClient(address) as client:
            for workload in ("matmul", "fsm"):
                response = client.submit("trace", workload=workload,
                                         fidelity="log", cache=False)
                assert response["status"] == "ok", response
            stats = client.stats()
            assert stats["health"]["backends_total"] == 2
            summary = client.metrics()["summary"]
            assert summary["jobs_received"] >= 2

    def test_placement_sticks_to_one_backend(self, server_factory, router_factory):
        backends = [server_factory(workers=1).config.socket_path for _ in range(3)]
        router = router_factory(backends)
        with ServiceClient(router.config.socket_path) as client:
            for _ in range(4):
                assert client.submit("slice", workload="sort",
                                     cache=False)["status"] == "ok"
            per_backend = {
                a: b["jobs_relayed"]
                for a, b in client.health()["backends"].items()
            }
        assert sorted(per_backend.values()) == [0, 0, 4], per_backend

    def test_streamed_relay_is_bit_identical(self, server_factory, router_factory):
        backend = server_factory(workers=1)
        router = router_factory([backend.config.socket_path])
        with ServiceClient(backend.config.socket_path) as direct:
            blocking = direct.submit("slice", workload="matmul", cache=False)
        with ServiceClient(router.config.socket_path) as client:
            response, ops = client.submit_stream("slice", workload="matmul",
                                                 cache=False)
        assert response["status"] == "ok"
        assert ops, "router relayed no partial frames"
        assert canonical(response["result"]) == canonical(blocking["result"])
        assert canonical(reassemble(ops)) == canonical(response["result"])
        assert router.registry.flat()["router.stream.frames"] == len(ops)

    def test_router_cache_skips_the_backend(self, server_factory, router_factory):
        backend = server_factory(workers=1)
        router = router_factory([backend.config.socket_path])
        with ServiceClient(router.config.socket_path) as client:
            cold = client.submit("attack", workload="fsm")
            relayed_after_cold = client.health()["backends"][
                backend.config.socket_path]["jobs_relayed"]
            warm = client.submit("attack", workload="fsm")
            relayed_after_warm = client.health()["backends"][
                backend.config.socket_path]["jobs_relayed"]
        assert warm.get("cached") is True
        assert canonical(warm["result"]) == canonical(cold["result"])
        assert relayed_after_warm == relayed_after_cold
        assert router.registry.flat()["router.cache.hits"] == 1

    def test_drain_diverts_new_jobs_and_undrain_restores(
        self, server_factory, router_factory
    ):
        backends = [server_factory(workers=1).config.socket_path for _ in range(2)]
        router = router_factory(backends)
        with ServiceClient(router.config.socket_path) as client:
            workload = pick_workload_for(backends, backends[0],
                                         vnodes=router.config.vnodes)
            assert client.submit("slice", workload=workload,
                                 cache=False)["status"] == "ok"
            drain = client.request({"kind": "drain", "backend": backends[0]})
            assert drain["drain"]["draining"] is True
            assert client.health()["backends_routable"] == 1
            before = client.health()["backends"][backends[0]]["jobs_relayed"]
            assert client.submit("slice", workload=workload,
                                 cache=False)["status"] == "ok"
            after = client.health()["backends"][backends[0]]["jobs_relayed"]
            assert after == before, "drained backend still received a job"
            client.request({"kind": "undrain", "backend": backends[0]})
            assert client.health()["backends_routable"] == 2
            bogus = client.request({"kind": "drain", "backend": "nope.sock"})
            assert bogus["status"] == "error" and "unknown backend" in bogus["error"]
        events = [e["kind"] for e in router.obs.flight.snapshot()]
        assert "router.backend.drain" in events
        assert "router.backend.undrain" in events

    def test_all_backends_drained_means_unroutable(
        self, server_factory, router_factory
    ):
        backend = server_factory(workers=1)
        router = router_factory([backend.config.socket_path])
        with ServiceClient(router.config.socket_path) as client:
            client.request({"kind": "drain",
                            "backend": backend.config.socket_path})
            assert client.health()["ok"] is False
            response = client.submit("trace", workload="rle", cache=False)
        assert response["status"] == "error"
        assert "no healthy backend" in response["error"]
        assert router.registry.flat()["router.jobs.unroutable"] == 1

    def test_markdown_markup_cycle(self, server_factory, router_factory):
        """Stopping a backend flips it down (flight event, probes) and
        jobs reroute; a fresh daemon on the same socket flips it up."""
        victim = server_factory(workers=1)
        victim_path = victim.config.socket_path
        survivor = server_factory(workers=1)
        router = router_factory([victim_path, survivor.config.socket_path],
                                down_after=2)
        victim.stop()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if router.registry.flat().get("router.backend.markdowns", 0) >= 1:
                break
            time.sleep(0.05)
        else:
            pytest.fail("backend never marked down after stop")
        events = [e["kind"] for e in router.obs.flight.snapshot()]
        assert "router.backend.down" in events
        with ServiceClient(router.config.socket_path) as client:
            assert client.health()["backends_routable"] == 1
            response = client.submit("trace", workload="bfs",
                                     fidelity="log", cache=False)
            assert response["status"] == "ok", response
        server_factory(socket_path=victim_path, workers=1)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if router.health()["backends_routable"] == 2:
                break
            time.sleep(0.05)
        else:
            pytest.fail("restarted backend never marked back up")
        assert "router.backend.up" in [
            e["kind"] for e in router.obs.flight.snapshot()
        ]

    def test_shutdown_verb_drains_and_stops_a_started_router(
        self, server_factory, router_factory
    ):
        """``shutdown`` stops a ``start()``ed router exactly as ``stop()``
        would: the in-flight job drains to its answer first, then the
        router stops; a later ``stop()`` is a no-op."""
        backend = server_factory(workers=1, allow_chaos=True)
        backend_path = backend.config.socket_path
        router = router_factory([backend_path])
        path = router.config.socket_path
        results = []

        def slow_job():
            with ServiceClient(path, timeout_s=30.0) as client:
                results.append(client.submit(
                    "chaos", params={"mode": "hang", "sleep_s": 1.0}, cache=False,
                ))

        job = threading.Thread(target=slow_job, daemon=True)
        job.start()
        deadline = time.monotonic() + 10.0
        while router.backends[backend_path].in_flight == 0:
            assert time.monotonic() < deadline, "the job never reached the backend"
            time.sleep(0.01)
        with ServiceClient(path) as client:
            assert client.shutdown()["shutting_down"] is True
        job.join(timeout=15.0)
        assert not job.is_alive()
        assert results[0]["status"] == "ok", results
        wait_stopped(path)
        assert "router.stop" in [e["kind"] for e in router.obs.flight.snapshot()]
        t0 = time.monotonic()
        router.stop()
        assert time.monotonic() - t0 < 1.0

    def test_second_router_refuses_a_live_socket(
        self, server_factory, router_factory, tmp_path
    ):
        backend = server_factory(workers=1)
        first = router_factory([backend.config.socket_path])
        path = first.config.socket_path
        second = RouterServer(RouterConfig(
            backends=[backend.config.socket_path], socket_path=path,
            obs_dir=str(tmp_path / "obs"),
        ))
        try:
            with pytest.raises(OSError) as excinfo:
                second.start()
        finally:
            second.stop(drain_timeout_s=2.0)
        assert excinfo.value.errno == errno.EADDRINUSE
        assert path in str(excinfo.value)
        assert os.path.exists(path)
        assert wait_until_ready(path)["role"] == "router"


# ---------------------------------------------------------------------------
# Chaos: crash-reroute, back-pressure, hangs, kill-mid-burst
# ---------------------------------------------------------------------------
class TestRouterChaos:
    def test_crash_mid_stream_reroutes_exactly_once(
        self, server_factory, router_factory, tmp_path
    ):
        """The flaky backend streams the TRUE first 3 ops, then dies.
        The replacement replays from seq 1; the router's monotone relay
        cursor drops the replayed prefix, so the client's op stream is
        gap-free, duplicate-free, and reassembles to the terminal
        result byte for byte."""
        real = server_factory(workers=1)
        flaky_path = str(tmp_path / "flaky.sock")

        def crash_after_three(conn, request):
            ops = true_ops(request)
            assert len(ops) > 3, "need a stream longer than the crash point"
            for seq, op in enumerate(ops[:3], start=1):
                send_frame(conn, {"status": STATUS_PARTIAL, "seq": seq, "op": op})
            # abrupt close mid-job: the router sees a torn exchange

        flaky = FakeBackend(flaky_path, on_job=crash_after_three)
        backends = [flaky_path, real.config.socket_path]
        router = router_factory(backends, retries=1)
        workload = pick_workload_for(backends, flaky_path,
                                     vnodes=router.config.vnodes)
        seen = []
        with ServiceClient(router.config.socket_path) as direct:
            response, ops = direct.submit_stream(
                "slice", workload=workload, cache=False,
                on_partial=lambda seq, op: seen.append(seq),
            )
        flaky.stop()
        assert response["status"] == "ok", response
        assert flaky.job_requests == 1
        assert seen == list(range(1, len(ops) + 1)), "stream has gaps or dupes"
        assert canonical(reassemble(ops)) == canonical(response["result"])
        flat = router.registry.flat()
        assert flat["router.jobs.rerouted"] == 1
        assert flat["router.stream.duplicates_dropped"] == 3
        assert "router.reroute" in [e["kind"] for e in router.obs.flight.snapshot()]

    def test_reroute_exhaustion_returns_error_not_hang(
        self, router_factory, tmp_path
    ):
        def crash(conn, request):
            pass  # close immediately: torn exchange on every attempt

        paths = [str(tmp_path / f"crash{i}.sock") for i in range(2)]
        fakes = [FakeBackend(p, on_job=crash) for p in paths]
        router = router_factory(paths, retries=1)
        t0 = time.monotonic()
        with ServiceClient(router.config.socket_path, timeout_s=30.0) as client:
            response = client.submit("trace", workload="sort", cache=False)
        for fake in fakes:
            fake.stop()
        assert response["status"] == "error"
        assert "failed mid-job" in response["error"]
        assert time.monotonic() - t0 < 20.0, "exhaustion must not stall"
        assert router.registry.flat()["router.jobs.failed"] == 1

    def test_rejected_backend_enters_cooldown(self, router_factory, tmp_path):
        """One REJECTED response puts the backend in cooldown: the next
        job for its keys is shed at the router — the saturated daemon
        sees exactly one request."""
        def reject(conn, request):
            send_frame(conn, {"status": "rejected", "reason": "saturated",
                              "retry_after_s": 5.0})

        path = str(tmp_path / "reject.sock")
        fake = FakeBackend(path, on_job=reject)
        router = router_factory([path])
        with ServiceClient(router.config.socket_path) as client:
            first = client.submit("trace", workload="matmul", cache=False)
            second = client.submit("trace", workload="matmul", cache=False)
        fake.stop()
        assert first["status"] == "rejected" and first["reason"] == "saturated"
        assert second["status"] == "rejected"
        assert "backpressure" in second["reason"]
        assert 0 < second["retry_after_s"] <= 5.0
        assert fake.job_requests == 1, "cooldown must shed locally"
        assert router.registry.flat()["router.backpressure.signals"] >= 1

    def test_hung_backend_is_never_routable(
        self, server_factory, router_factory, tmp_path
    ):
        """The hang variant: a backend that accepts but never answers
        must fail its probes by timeout and never attract jobs."""
        real = server_factory(workers=1)
        hung_path = str(tmp_path / "hung.sock")
        hung = FakeBackend(hung_path, silent=True)
        router = router_factory([hung_path, real.config.socket_path],
                                health_timeout_s=0.2)
        with ServiceClient(router.config.socket_path) as client:
            health = client.health()
            assert health["backends_routable"] == 1
            assert health["backends"][hung_path]["healthy"] is False
            for _ in range(3):
                assert client.submit("trace", workload="hashloop",
                                     fidelity="log",
                                     cache=False)["status"] == "ok"
        hung.stop()

    def test_kill_one_backend_mid_burst_zero_hangs(
        self, router_factory, tmp_path
    ):
        """The headline chaos run: 24 threaded clients against 1 router
        + 3 backends; one backend is SIGKILLed mid-burst (real daemon
        processes — a kill must close its sockets abruptly, which an
        in-process graceful stop never does).  Every client must get a
        terminal frame (zero hangs), rerouting keeps the success rate
        total, and the mark-down lands in the flight recorder."""
        import subprocess
        import sys

        procs, backends = [], []
        for i in range(3):
            path = str(tmp_path / f"kb{i}.sock")
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket", path,
                 "--workers", "2", "--queue", "32"],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ))
            backends.append(path)
        try:
            for path in backends:
                wait_until_ready(path, timeout_s=30.0)
            self._run_burst(router_factory, backends, procs)
        finally:
            for proc in procs:
                proc.kill()
                proc.wait(timeout=10.0)

    def _run_burst(self, router_factory, backends, procs):
        router = router_factory(backends, retries=2, down_after=2)
        address = router.config.socket_path
        results, latencies = [], []
        lock = threading.Lock()

        def one(i):
            t0 = time.monotonic()
            with ServiceClient(address, timeout_s=120.0) as client:
                response = client.submit(
                    "trace", workload=WORKLOADS[i % len(WORKLOADS)],
                    fidelity="log", scale=1 + i % 2, cache=False,
                )
            with lock:
                results.append(response)
                latencies.append(time.monotonic() - t0)

        threads = [threading.Thread(target=one, args=(i,), daemon=True)
                   for i in range(24)]
        for i, t in enumerate(threads):
            t.start()
            if i == 8:
                orphans = _children(procs[0].pid)  # the pool's workers
                procs[0].kill()  # the kill, mid-burst (SIGKILL, no drain)
                killed_at = time.monotonic()
        for t in threads:
            t.join(timeout=150.0)
        hung = [t for t in threads if t.is_alive()]
        assert not hung, f"{len(hung)} clients hung after backend kill"
        assert len(results) == 24
        ok = [r for r in results if r["status"] in ("ok", "degraded")]
        assert len(ok) == 24, [r for r in results if r not in ok][:3]
        latencies.sort()
        p99 = latencies[int(0.99 * (len(latencies) - 1))]
        assert p99 < 60.0, f"p99 {p99:.1f}s blew the chaos budget"
        # The probe loop notices the corpse asynchronously; a fast
        # burst can finish before the mark-down lands.
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            events = [e["kind"] for e in router.obs.flight.snapshot()]
            if "router.backend.down" in events:
                break
            time.sleep(0.1)
        else:
            pytest.fail("killed backend never marked down")
        # The killed daemon's workers notice they were orphaned and exit.
        assert orphans, "the killed backend had no pool workers"
        while time.monotonic() < killed_at + 10.0:
            if not any(map(_alive, orphans)):
                break
            time.sleep(0.1)
        alive = [pid for pid in orphans if _alive(pid)]
        assert not alive, f"workers {alive} outlived their killed daemon by 10 s"


# ---------------------------------------------------------------------------
# The observable surface
# ---------------------------------------------------------------------------
#: Metric keys (per registry section) and traced-job span names after
#: :func:`surface_exchange` against a daemon, then against a router in
#: front of it.  CI greps ``aserver.requests``; perfbench reads
#: ``router.latency.total_s`` and ``service.latency.*``; renaming any of
#: these breaks a reader outside the test suite.
DAEMON_METRIC_KEYS = {
    "counters": [
        "aserver.connections", "aserver.requests", "aserver.stream.frames",
        "service.jobs.admitted", "service.jobs.completed",
        "service.jobs.received", "service.stream.partials",
    ],
    "gauges": [
        "aserver.active_connections", "aserver.enabled",
        "aserver.peak_connections", "service.queue.depth",
        "service.queue.depth.peak", "service.workers",
    ],
    "histograms": [
        "service.latency.exec_s", "service.latency.queue_s",
        "service.latency.respond_s", "service.latency.total_s",
    ],
}
ROUTER_METRIC_KEYS = {
    "counters": [
        "router.backend.markups", "router.connections", "router.jobs.completed",
        "router.jobs.received", "router.requests", "router.stream.frames",
    ],
    "gauges": [
        "router.active_connections", "router.backends.healthy",
        "router.backends.total", "router.peak_connections",
    ],
    "histograms": ["router.latency.total_s"],
}
TRACED_JOB_SPANS = [
    "client.request", "pool.exec", "pool.queue", "server.admission",
    "server.handle", "t0 segment", "vm.run", "worker.execute",
]


def metric_keys(registry) -> dict:
    snapshot = registry.as_dict()
    return {section: sorted(snapshot[section])
            for section in ("counters", "gauges", "histograms")}


def surface_exchange(path: str) -> list[str]:
    """``health``, ``stats``, one traced ``trace`` job, one streamed
    ``slice`` and one malformed frame; returns the traced job's sorted
    span names."""
    with ServiceClient(path) as client:
        assert client.health()["ok"]
        client.stats()
        response, trace = client.submit_traced("trace", workload="hashloop",
                                               cache=False)
        assert response["status"] == "ok", response
        streamed, ops = client.submit_stream("slice", workload="sort", cache=False)
        assert streamed["status"] == "ok" and ops
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30.0)
        sock.connect(path)
        sock.sendall(struct.pack(">I", 8) + b"not json")
        assert recv_frame(sock)["status"] == "error"
    return sorted({e["name"] for e in trace["traceEvents"]})


class TestObservableSurface:
    def test_metric_keys_and_span_names_are_pinned(
        self, server_factory, router_factory
    ):
        daemon = server_factory(workers=1)
        router = router_factory([daemon.config.socket_path])
        assert surface_exchange(daemon.config.socket_path) == TRACED_JOB_SPANS
        assert surface_exchange(router.config.socket_path) == TRACED_JOB_SPANS
        assert metric_keys(daemon.registry) == DAEMON_METRIC_KEYS
        assert metric_keys(router.registry) == ROUTER_METRIC_KEYS
