"""Fuzzing the frame parsers and the servers' request handling.

Hostile bytes either decode or raise :class:`ProtocolError` — never an
untyped error, never a hang — and a live daemon or router answers every
hostile request with an ``error`` frame and stays healthy.

* The parsers: :class:`FrameAssembler` (fed in random chunk sizes) and
  :func:`recv_frame` (over a ``socketpair``) each take ``N_SEEDS``
  seeded mutations of a valid multi-frame stream — truncation, bit
  flips, length prefixes at ``MAX_FRAME_BYTES`` and ±1, garbage
  payloads and deeply nested JSON — and must agree frame for frame.
* The servers: one daemon and one router each receive every entry of
  :func:`hostile_requests` on a fresh connection.

The faults that once escaped are kept as named regressions: a deeply
nested payload raised a bare ``RecursionError`` from both parsers and
made the daemon and the router drop the connection without an answer;
a non-string ``workload`` raised ``TypeError``; a ``NaN`` or
``Infinity`` deadline was accepted; and ``params`` nested a few hundred
levels deep killed the pool thread that pickles jobs to its worker.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.service import RouterConfig, RouterServer, ServiceClient
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    STATUS_ERROR,
    FrameAssembler,
    ProtocolError,
    encode,
    recv_frame,
)
from repro.util.rng import DeterministicRng

N_SEEDS = 240
#: wall-clock bound for one parse or one hostile exchange.
CASE_SECONDS = 5.0
#: the payload that used to escape both parsers as ``RecursionError``.
NESTED = b"[" * 200_000


def frame(payload: bytes) -> bytes:
    """A frame with a correct length prefix around arbitrary bytes."""
    return struct.pack(">I", len(payload)) + payload


# --- the two parsers ---------------------------------------------------------
def assemble(wire: bytes, rng: DeterministicRng) -> tuple[list, str]:
    """Feed ``wire`` to a FrameAssembler in random chunks; returns
    (decoded frames, "clean" | "pending" | "error")."""
    assembler = FrameAssembler()
    frames = []
    pos = 0
    try:
        while pos < len(wire):
            step = rng.randint(1, 1 << rng.randint(0, 12))
            assembler.feed(wire[pos : pos + step])
            pos += step
            while (decoded := assembler.next_frame()) is not None:
                frames.append(decoded)
    except ProtocolError:
        return frames, "error"
    return frames, "pending" if assembler.pending_bytes else "clean"


def receive(wire: bytes) -> tuple[list, str]:
    """Read ``wire`` with recv_frame over a socketpair until EOF or a
    ProtocolError; returns (decoded frames, "clean" | "error")."""
    writer_end, reader_end = socket.socketpair()
    reader_end.settimeout(CASE_SECONDS)

    def write():
        try:
            writer_end.sendall(wire)
            writer_end.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the reader gave up early and closed its end

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    frames = []
    try:
        while (decoded := recv_frame(reader_end)) is not None:
            frames.append(decoded)
        verdict = "clean"
    except ProtocolError:
        verdict = "error"
    finally:
        reader_end.close()
        writer.join(timeout=CASE_SECONDS)
        writer_end.close()
    return frames, verdict


def checked(parse, label: str, *args):
    """Run one parse; anything but a decode or a ProtocolError fails."""
    t0 = time.perf_counter()
    try:
        outcome = parse(*args)
    except socket.timeout:
        pytest.fail(f"{label}: parser hung")
    except Exception as exc:  # pragma: no cover - the failure report
        pytest.fail(f"{label}: untyped {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    assert elapsed < CASE_SECONDS, f"{label}: took {elapsed:.2f}s"
    return outcome


# --- seeded mutations --------------------------------------------------------
def random_value(rng: DeterministicRng, depth: int = 0):
    roll = rng.randint(0, 7 if depth < 3 else 4)
    if roll == 0:
        return None
    if roll == 1:
        return rng.randint(-(1 << 40), 1 << 40)
    if roll == 2:
        return rng.randint(0, 1) == 1
    if roll == 3:
        return "".join(chr(rng.randint(32, 0x2FF)) for _ in range(rng.randint(0, 12)))
    if roll == 4:
        return rng.randint(-1000, 1000) / 8
    if roll in (5, 6):
        return [random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {f"k{i}": random_value(rng, depth + 1) for i in range(rng.randint(0, 4))}


def truncate(wire, rng):
    return wire[: rng.randint(0, len(wire) - 1)]


def flip_bits(wire, rng):
    data = bytearray(wire)
    for _ in range(rng.randint(1, 8)):
        data[rng.randint(0, len(data) - 1)] ^= 1 << rng.randint(0, 7)
    return bytes(data)


def length_at_cap(wire, rng):
    # A header announcing MAX_FRAME_BYTES - 1, exactly the cap, or one
    # past it, followed by a little of the real stream.
    announced = MAX_FRAME_BYTES + rng.randint(-1, 1)
    return struct.pack(">I", announced) + wire[: rng.randint(0, 64)]


def garbage(wire, rng):
    junk = bytes(rng.randint(0, 255) for _ in range(rng.randint(0, 64)))
    return frame(junk) if rng.randint(0, 1) else junk


def nested(wire, rng):
    depth = rng.choice((999, 1_000, 5_000, 200_000))
    opener = rng.choice((b"[", b'{"a":'))
    return frame(opener * depth)


MUTATIONS = (truncate, flip_bits, length_at_cap, garbage, nested)


def mutated_stream(seed: int) -> tuple[list, bytes, str]:
    """(original frames, damaged wire, label) for one seed.

    Garbage, nested and cap-length frames are spliced in at a frame
    boundary, so the frames before them must still decode."""
    rng = DeterministicRng(seed + 1)
    frames = [{"n": n, "v": random_value(rng, 1)} for n in range(rng.randint(1, 4))]
    mutation = MUTATIONS[seed % len(MUTATIONS)]
    wire = b"".join(encode(f) for f in frames)
    if mutation in (truncate, flip_bits):
        return frames, mutation(wire, rng), f"seed {seed} {mutation.__name__}"
    keep = rng.randint(0, len(frames))
    head = b"".join(encode(f) for f in frames[:keep])
    tail = b"".join(encode(f) for f in frames[keep:])
    return frames[:keep], head + mutation(tail, rng) + tail, f"seed {seed} {mutation.__name__}"


def test_frame_assembler_survives_mutations():
    for seed in range(N_SEEDS):
        originals, wire, label = mutated_stream(seed)
        rng = DeterministicRng(seed ^ 0xA55E)
        frames, verdict = checked(assemble, label, wire, rng)
        if label.endswith(("truncate", "garbage", "nested", "length_at_cap")):
            # Damage starts after the intact prefix: every frame before
            # it decodes unchanged.
            assert frames[: len(originals)] == originals[: len(frames)], label
        if label.endswith("truncate"):
            # A cut stream never errors; it ends mid-frame, or clean on
            # a frame boundary short of the last frame.
            assert verdict != "error" and len(frames) < len(originals), label


def test_recv_frame_agrees_with_assembler():
    for seed in range(N_SEEDS):
        _, wire, label = mutated_stream(seed)
        frames, verdict = checked(receive, label, wire)
        expected, assembled = assemble(wire, DeterministicRng(seed))
        assert frames == expected, label
        # The assembler holds a cut-short frame as pending bytes; a
        # socket reader sees EOF mid-frame, which is a ProtocolError.
        assert verdict == {"clean": "clean", "pending": "error", "error": "error"}[
            assembled
        ], label


# --- named parser regressions ------------------------------------------------
def test_nested_payload_is_protocol_error_in_assembler():
    assembler = FrameAssembler()
    assembler.feed(frame(NESTED))
    with pytest.raises(ProtocolError, match="nested too deeply"):
        assembler.next_frame()
    assert assembler.pending_bytes == 0


def test_nested_payload_is_protocol_error_in_recv_frame():
    assert receive(frame(NESTED)) == ([], "error")


# --- hostile requests against live servers -----------------------------------
VALID = {"kind": "trace", "workload": "matmul", "fidelity": "log", "cache": False}

#: field -> values resolve_spec must refuse for it.
BAD_FIELDS = {
    "kind": ["explode", [], {}, 1, None, "chaos"],
    "workload": ["quicksort3", ["x"], {}, 5, 1.5, True, [["matmul"]]],
    "fidelity": ["ultra", [], None, 3],
    "scale": [0, -1, "2", 1.5, [], {}],
    "params": [[1], "x", 7, {"x": json.loads("[" * 500 + "]" * 500)}],
    "deadline_s": [float("nan"), float("inf"), float("-inf"), -1, 0, "5", [], {}],
}


def hostile_requests() -> list[tuple[str, bytes, bool]]:
    """(label, wire bytes, half-close after sending) for every case."""
    cases = [
        ("garbage-payload", frame(b"not json"), False),
        ("invalid-utf8", frame(b"\xff\xfe\xfd"), False),
        ("empty-payload", frame(b""), False),
        ("nested-array", frame(NESTED), False),
        ("nested-object", frame(b'{"a":' * 100_000), False),
        ("oversized-announcement", struct.pack(">I", MAX_FRAME_BYTES + 1), False),
        ("truncated-frame", encode(VALID)[:-3], True),
        ("header-only", struct.pack(">I", 64), True),
    ]
    for value in ([], 1, "trace", None, True, 1.5):
        cases.append((f"non-object {value!r}", encode(value), False))
    for field, values in BAD_FIELDS.items():
        for value in values:
            label = f"{field}={json.dumps(value)[:24]}"
            cases.append((label, encode(dict(VALID, **{field: value})), False))
    source = "fn main() { out(1, 1); }"
    without_workload = {k: v for k, v in VALID.items() if k != "workload"}
    for value in (5, [source], {}, None):
        cases.append((f"source={value!r}", encode(dict(without_workload, source=value)), False))
    cases.append(("workload-and-source", encode(dict(VALID, source=source)), False))
    return cases


def exchange(address: str, wire: bytes, half_close: bool):
    """One hostile request on a fresh connection; returns the reply."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(CASE_SECONDS * 6)
    sock.connect(address)
    try:
        sock.sendall(wire)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        return recv_frame(sock)
    finally:
        sock.close()


def assert_every_request_errors(address: str, cases) -> None:
    assert len(cases) >= 50
    for label, wire, half_close in cases:
        try:
            reply = exchange(address, wire, half_close)
        except Exception as exc:  # pragma: no cover - the failure report
            pytest.fail(f"{label}: no error frame ({type(exc).__name__}: {exc})")
        assert isinstance(reply, dict) and reply.get("status") == STATUS_ERROR, (
            label, reply,
        )
    with ServiceClient(address, timeout_s=30.0) as client:
        assert client.health()["ok"]
        assert client.request(VALID)["status"] == "ok"


def router_config(backend, tmp_path) -> RouterConfig:
    return RouterConfig(
        backends=[backend.config.socket_path],
        socket_path=str(tmp_path / "router.sock"),
        health_interval_s=0.05,
        obs_dir=str(tmp_path / "obs"),
    )


def test_daemon_answers_nested_payload_with_error_frame(server_factory):
    # Used to drop the connection without a reply.
    server = server_factory(workers=1)
    reply = exchange(server.config.socket_path, frame(NESTED), False)
    assert reply["status"] == STATUS_ERROR
    assert "nested too deeply" in reply["error"]


def test_router_answers_nested_payload_with_error_frame(server_factory, tmp_path):
    config = router_config(server_factory(workers=1), tmp_path)
    with RouterServer(config):
        reply = exchange(config.socket_path, frame(NESTED), False)
    assert reply["status"] == STATUS_ERROR
    assert "nested too deeply" in reply["error"]


def test_null_frame_is_an_error_not_a_stall(server_factory):
    # A JSON null decoded to None, which the parsers also return for
    # "no frame yet", so the daemon waited on a request it had read.
    assembler = FrameAssembler()
    assembler.feed(encode(None))
    with pytest.raises(ProtocolError, match="null frame"):
        assembler.next_frame()
    server = server_factory(workers=1)
    reply = exchange(server.config.socket_path, encode(None), False)
    assert reply["status"] == STATUS_ERROR


def test_daemon_answers_every_hostile_request(server_factory):
    server = server_factory(workers=1)
    assert_every_request_errors(server.config.socket_path, hostile_requests())
    counters = server.registry.flat()
    assert counters.get("service.jobs.lost", 0) == 0
    assert counters.get("service.jobs.admitted", 0) == 1


def test_router_answers_every_hostile_request(server_factory, tmp_path):
    backend = server_factory(workers=1)
    cases = hostile_requests() + [
        ("drain-list-backend", encode({"kind": "drain", "backend": []}), False),
        ("drain-object-backend", encode({"kind": "undrain", "backend": {}}), False),
        ("drain-unknown-backend", encode({"kind": "drain", "backend": "nowhere"}), False),
    ]
    config = router_config(backend, tmp_path)
    with RouterServer(config):
        assert_every_request_errors(config.socket_path, cases)
    assert backend.registry.flat().get("service.jobs.lost", 0) == 0
