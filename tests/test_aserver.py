"""Tests for the asyncio front door (``repro.service.aserver``).

The load-bearing contract is *structural bit-identity*: a streamed
job's terminal frame equals the blocking response byte for byte, and
reassembling every partial op reproduces that result exactly — for
every job kind, every fidelity rung, and across worker crash-retries
(where the partial ``seq`` dedup must make the replayed prefix
invisible).  The transport-free pieces (:class:`FrameAssembler`, the
stream-op fold) are unit-tested first; the integration layers stand up
real :class:`AsyncAnalysisServer` daemons on Unix/TCP sockets.
"""

import errno
import gc
import json
import os
import socket
import struct
import threading
import time
import warnings

import pytest

from repro.service import (
    AsyncAnalysisServer,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceProtocolError,
    wait_until_ready,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    STATUS_PARTIAL,
    FrameAssembler,
    ProtocolError,
    apply_stream_op,
    encode,
    reassemble,
    recv_frame,
    send_frame,
)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def wait_stopped(path: str, timeout_s: float = 15.0) -> None:
    """Wait until the server on ``path`` has stopped: unlinking its
    socket is the last step of a stop."""
    deadline = time.monotonic() + timeout_s
    while os.path.exists(path):
        if time.monotonic() > deadline:
            pytest.fail(f"{path} still exists {timeout_s}s after shutdown")
        time.sleep(0.05)


def stream_exchange(address: str, request: dict) -> tuple[list, dict]:
    """Raw streamed round trip; returns (partial frames, terminal frame)."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(60.0)
    sock.connect(address)
    try:
        send_frame(sock, dict(request, stream=True))
        partials = []
        while True:
            frame = recv_frame(sock)
            if frame.get("status") == STATUS_PARTIAL:
                partials.append(frame)
                continue
            return partials, frame
    finally:
        sock.close()


# ---------------------------------------------------------------------------
# FrameAssembler
# ---------------------------------------------------------------------------
class TestFrameAssembler:
    def test_reassembles_across_arbitrary_chunk_boundaries(self):
        frames = [{"n": i, "blob": "x" * (i * 7)} for i in range(5)]
        wire = b"".join(encode(f) for f in frames)
        for chunk_size in (1, 2, 3, 5, 64):
            assembler = FrameAssembler()
            decoded = []
            for i in range(0, len(wire), chunk_size):
                assembler.feed(wire[i : i + chunk_size])
                while True:
                    frame = assembler.next_frame()
                    if frame is None:
                        break
                    decoded.append(frame)
            assert decoded == frames
            assert assembler.pending_bytes == 0

    def test_incomplete_frame_stays_pending(self):
        assembler = FrameAssembler()
        wire = encode({"k": "v"})
        assembler.feed(wire[:-1])
        assert assembler.next_frame() is None
        assert assembler.pending_bytes == len(wire) - 1
        assembler.feed(wire[-1:])
        assert assembler.next_frame() == {"k": "v"}

    def test_oversized_length_prefix_is_protocol_error(self):
        assembler = FrameAssembler()
        assembler.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="cap"):
            assembler.next_frame()

    def test_undecodable_payload_is_protocol_error(self):
        assembler = FrameAssembler()
        payload = b"not json"
        assembler.feed(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError, match="undecodable"):
            assembler.next_frame()


# ---------------------------------------------------------------------------
# Stream-op folding
# ---------------------------------------------------------------------------
class TestStreamOps:
    def test_set_nests_dotted_paths(self):
        result = {}
        apply_stream_op(result, {"set": {"a.b.c": 1, "top": "x"}})
        assert result == {"a": {"b": {"c": 1}}, "top": "x"}

    def test_append_creates_and_extends(self):
        result = {}
        apply_stream_op(result, {"append": {"s.rows": [1, 2]}})
        apply_stream_op(result, {"append": {"s.rows": [3]}})
        assert result == {"s": {"rows": [1, 2, 3]}}

    def test_append_to_non_list_is_protocol_error(self):
        result = {"s": {"rows": 7}}
        with pytest.raises(ProtocolError, match="non-list"):
            apply_stream_op(result, {"append": {"s.rows": [1]}})

    def test_reassemble_folds_in_order(self):
        ops = [
            {"set": {"kind": "slice", "slice.pcs": []}},
            {"append": {"slice.pcs": [10, 11]}},
            {"append": {"slice.pcs": [12]}},
            {"set": {"slice.truncated": False}},
        ]
        assert reassemble(ops) == {
            "kind": "slice",
            "slice": {"pcs": [10, 11, 12], "truncated": False},
        }


# ---------------------------------------------------------------------------
# The async daemon
# ---------------------------------------------------------------------------
ALL_COMBOS = [
    ("trace", "full"), ("trace", "dift"), ("trace", "log"),
    ("slice", "full"), ("slice", "log"),
    ("attack", "full"), ("attack", "dift"), ("attack", "log"),
    ("lineage", "full"), ("lineage", "log"),
]


class TestAsyncServer:
    def test_control_verbs_and_ready(self, server_factory):
        server = server_factory(workers=1)
        health = wait_until_ready(server.config.socket_path)
        assert health["ok"] and health["workers_alive"] == 1
        with ServiceClient(server.config.socket_path) as client:
            stats = client.stats()
            assert stats["health"]["queue_capacity"] == 8
            metrics = client.metrics()
            assert "aserver.requests" in metrics["json"]["counters"]
            assert metrics["summary"]["reject_rate"] == 0.0

    @pytest.mark.parametrize("kind,fidelity", ALL_COMBOS)
    def test_streamed_equals_blocking_bit_for_bit(self, server_factory, kind, fidelity):
        server = server_factory(workers=1)
        address = server.config.socket_path
        request = {"kind": kind, "fidelity": fidelity, "workload": "matmul",
                   "cache": False}
        with ServiceClient(address) as client:
            blocking = client.submit(kind, workload="matmul", fidelity=fidelity,
                                     cache=False)
        assert blocking["status"] == "ok"
        partials, terminal = stream_exchange(address, request)
        assert terminal["status"] == "ok"
        assert canonical(terminal["result"]) == canonical(blocking["result"])
        assert partials, "streamed job produced no partial frames"
        seqs = [p["seq"] for p in partials]
        assert seqs == list(range(1, len(seqs) + 1)), "seq must be contiguous from 1"
        rebuilt = reassemble([p["op"] for p in partials])
        assert canonical(rebuilt) == canonical(terminal["result"])

    def test_streamed_cache_hit_has_no_partials(self, server_factory):
        server = server_factory(workers=1)
        address = server.config.socket_path
        request = {"kind": "slice", "workload": "sort"}
        _, cold = stream_exchange(address, request)
        partials, warm = stream_exchange(address, request)
        assert warm["cached"] and not partials
        assert canonical(warm["result"]) == canonical(cold["result"])

    def test_submit_stream_client_api(self, server_factory):
        server = server_factory(workers=1)
        seen = []
        with ServiceClient(server.config.socket_path) as client:
            response, ops = client.submit_stream(
                "slice", workload="matmul", cache=False,
                on_partial=lambda seq, op: seen.append(seq),
            )
        assert response["status"] == "ok"
        assert seen == list(range(1, len(ops) + 1))
        assert canonical(reassemble(ops)) == canonical(response["result"])

    def test_crash_retry_stream_is_exactly_once(self, server_factory, tmp_path):
        """A worker crash mid-stream must not duplicate or reorder ops:
        the retry replays seq from 1 and the server drops the replayed
        prefix, so the client still sees a contiguous exactly-once
        stream whose reassembly equals the terminal result."""
        server = server_factory(workers=1, allow_chaos=True)
        flag = str(tmp_path / "crash.flag")
        partials, terminal = stream_exchange(
            server.config.socket_path,
            {"kind": "chaos", "cache": False,
             "params": {"mode": "exit-once", "flag": flag}},
        )
        assert terminal["status"] == "ok"
        assert terminal["result"]["chaos"]["survived_retry"] is True
        seqs = [p["seq"] for p in partials]
        assert seqs == sorted(set(seqs)) == list(range(1, len(seqs) + 1))
        assert canonical(reassemble([p["op"] for p in partials])) == canonical(
            terminal["result"]
        )
        assert server.registry.flat().get("aserver.stream.duplicates_dropped", 0) >= 1

    def test_many_concurrent_blocking_clients(self, server_factory):
        server = server_factory(workers=2, queue_capacity=64)
        address = server.config.socket_path
        results, errors = [], []

        def one(i):
            try:
                with ServiceClient(address, timeout_s=60.0) as client:
                    results.append(client.submit("trace", workload="fsm",
                                                 fidelity="log", cache=False))
            except Exception as exc:  # noqa: BLE001 - collected for assertion
                errors.append(exc)

        threads = [threading.Thread(target=one, args=(i,)) for i in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not errors
        assert len(results) == 32
        assert all(r["status"] in ("ok", "degraded", "rejected") for r in results)
        flat = server.registry.flat()
        assert flat["aserver.connections"] >= 32

    def test_tcp_transport(self, server_factory):
        server = server_factory(port=0, workers=1)
        address = f"tcp://127.0.0.1:{server.config.port}"
        wait_until_ready(address)
        with ServiceClient(address) as client:
            response = client.submit("trace", workload="rle", fidelity="log",
                                     cache=False)
        assert response["status"] == "ok"

    def test_shutdown_verb_stops_serve_forever(self, server_factory):
        server = server_factory(workers=1)
        waiter = threading.Thread(target=server.serve_forever, daemon=True)
        waiter.start()
        with ServiceClient(server.config.socket_path) as client:
            assert client.shutdown()["shutting_down"] is True
        waiter.join(timeout=15.0)
        assert not waiter.is_alive()

    def test_shutdown_verb_stops_a_started_server(self, server_factory):
        """``shutdown`` stops a ``start()``ed daemon (no ``serve_forever``)
        exactly as ``stop()`` would, and a later ``stop()`` is a no-op."""
        server = server_factory(workers=1)
        path = server.config.socket_path
        with ServiceClient(path) as client:
            assert client.shutdown()["shutting_down"] is True
        wait_stopped(path)
        assert server.pool.alive_workers() == 0
        t0 = time.monotonic()
        server.stop()
        assert time.monotonic() - t0 < 1.0

    def test_stop_closes_every_accepted_transport(self, server_factory):
        """Connections accepted right before ``stop()`` whose handlers
        never got to run are still closed: no transport is left for
        the garbage collector to warn about."""
        server = server_factory(workers=1)
        path = server.config.socket_path
        connected, done = [], threading.Event()

        def connect_in_a_loop():
            while not done.is_set():
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                    try:
                        sock.connect(path)
                    except OSError:
                        continue
                    connected.append(True)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            connector = threading.Thread(target=connect_in_a_loop, daemon=True)
            connector.start()
            time.sleep(0.2)
            server.stop()
            done.set()
            connector.join(timeout=10.0)
            gc.collect()
        assert not connector.is_alive()
        assert connected
        leaked = [str(w.message) for w in caught
                  if issubclass(w.category, ResourceWarning)
                  and "transport" in str(w.message)]
        assert leaked == []

    def test_second_daemon_refuses_a_live_socket(self, server_factory, tmp_path):
        """A second daemon on a live daemon's path must fail to start,
        not take the socket over (and later unlink it) from under it."""
        first = server_factory(workers=1)
        path = first.config.socket_path
        second = AsyncAnalysisServer(ServiceConfig(
            socket_path=path, workers=1, obs_dir=str(tmp_path / "obs"),
        ))
        try:
            with pytest.raises(OSError) as excinfo:
                second.start()
        finally:
            second.stop()
        assert excinfo.value.errno == errno.EADDRINUSE
        assert path in str(excinfo.value)
        assert os.path.exists(path)
        assert wait_until_ready(path)["ok"]
        with ServiceClient(path) as client:
            assert client.submit("trace", workload="rle", fidelity="log",
                                 cache=False)["status"] == "ok"

    def test_restart_over_a_stale_socket_file(self, server_factory, tmp_path):
        """A socket file nobody listens on (what a SIGKILLed daemon
        leaves) refuses the probe's connect and is reclaimed."""
        path = str(tmp_path / "stale.sock")
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(path)
        dead.close()
        assert os.path.exists(path)
        server_factory(socket_path=path, workers=1)
        assert wait_until_ready(path)["ok"]


# ---------------------------------------------------------------------------
# ServiceProtocolError normalization (the regression this PR fixes)
# ---------------------------------------------------------------------------
class _BrokenServer(threading.Thread):
    """Accepts one connection, reads the request, sends ``junk``, closes."""

    def __init__(self, path: str, junk: bytes):
        super().__init__(daemon=True)
        self.path = path
        self.junk = junk
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.listener.bind(path)
        self.listener.listen(1)

    def run(self):
        conn, _ = self.listener.accept()
        try:
            recv_frame(conn)
            conn.sendall(self.junk)
        finally:
            conn.close()
            self.listener.close()


class TestProtocolErrorNormalization:
    def test_connection_dropped_mid_frame_is_typed(self, tmp_path):
        """A server dying between header and payload used to surface the
        raw short-read; the client must raise ServiceProtocolError."""
        path = str(tmp_path / "torn.sock")
        header_only = struct.pack(">I", 1024)  # announces 1 KiB, sends none
        _BrokenServer(path, header_only).start()
        client = ServiceClient(path, timeout_s=5.0)
        with pytest.raises(ServiceProtocolError):
            client.submit("trace", workload="matmul")

    def test_oversized_announcement_is_typed(self, tmp_path):
        path = str(tmp_path / "huge.sock")
        bad_header = struct.pack(">I", MAX_FRAME_BYTES + 7)
        _BrokenServer(path, bad_header).start()
        client = ServiceClient(path, timeout_s=5.0)
        with pytest.raises(ServiceProtocolError):
            client.submit("trace", workload="matmul")

    def test_clean_close_without_response_is_typed(self, tmp_path):
        path = str(tmp_path / "eof.sock")
        _BrokenServer(path, b"").start()
        client = ServiceClient(path, timeout_s=5.0)
        with pytest.raises(ServiceProtocolError, match="mid-request"):
            client.submit("trace", workload="matmul")

    def test_deeply_nested_response_is_typed(self, tmp_path):
        # Used to escape the client as a bare RecursionError.
        path = str(tmp_path / "deep.sock")
        nested = b"[" * 200_000
        _BrokenServer(path, struct.pack(">I", len(nested)) + nested).start()
        client = ServiceClient(path, timeout_s=5.0)
        with pytest.raises(ServiceProtocolError, match="nested too deeply"):
            client.submit("trace", workload="matmul")

    def test_refused_connect_closes_its_socket(self, tmp_path):
        """A refused connect used to leak its socket: one per refused
        poll of ``wait_until_ready``."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ServiceError, match="cannot connect"):
                ServiceClient(str(tmp_path / "missing.sock")).connect()
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)
                 and "socket" in str(w.message)]
        assert not leaks, leaks

    def test_typed_error_is_still_a_service_error(self):
        assert issubclass(ServiceProtocolError, ServiceError)
