"""Wire protocol: length-prefixed JSON frames over a stream socket.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Requests and responses are both single frames; a
connection carries any number of request/response pairs in lockstep
(the client never pipelines), so framing is the only state.

JSON (rather than pickle) keeps the daemon safe to expose on a TCP
port: a malicious peer can at worst submit a weird job, never execute
code in the server process.  Frame size is capped so a corrupt or
hostile length prefix cannot make the server allocate unbounded
memory.

Response ``status`` values:

==============  =====================================================
``ok``          job ran at the requested fidelity; ``result`` attached
``degraded``    job ran, but admission shed fidelity first (overload);
                ``fidelity`` names the level that actually ran
``rejected``    admission refused the job (queue at capacity) —
                explicit backpressure, never a hang
``timeout``     the per-job deadline expired; the worker was cancelled
``error``       the job failed (bad spec, compile error, worker crash
                after retry); ``error`` holds a one-line message
``partial``     one incremental frame of a streamed job (``stream:
                true`` requests); carries an ``op`` to fold into
                the result under construction.
                The terminal frame of a streamed job is a normal
                ``ok``/``degraded``/... frame, byte-identical to the
                blocking response
==============  =====================================================

**Streamed partial ops.**  A streaming job's partial frames each carry
one *op* — ``{"set": {key: value, ...}}`` merges sections into the
result under construction (dotted keys address nested objects),
``{"append": {key: [items]}}`` extends a list at a dotted key.
:func:`apply_stream_op` / :func:`reassemble` fold them back into the
full result dict, and the contract (proven per job kind by
``tests/test_aserver.py``) is that reassembling every partial op yields
the terminal frame's ``result`` byte for byte.
"""

from __future__ import annotations

import json
import socket
import struct

#: frame header: one u32 (big-endian) payload length.
_LEN = struct.Struct(">I")

#: hard ceiling on one frame's payload (16 MiB is far beyond any job).
MAX_FRAME_BYTES = 16 << 20

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_REJECTED = "rejected"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"
STATUS_PARTIAL = "partial"

#: statuses that carry a ``result`` payload.
RESULT_STATUSES = (STATUS_OK, STATUS_DEGRADED)

#: statuses that end a streamed exchange (everything but ``partial``).
TERMINAL_STATUSES = (
    STATUS_OK, STATUS_DEGRADED, STATUS_REJECTED, STATUS_TIMEOUT, STATUS_ERROR
)


class ProtocolError(Exception):
    """Malformed frame or request payload."""


def encode(obj) -> bytes:
    """One canonical frame for ``obj`` (sorted keys: byte-stable)."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES")
    return _LEN.pack(len(payload)) + payload


def _decode_payload(payload: bytes):
    """Decode one frame's payload: the one place both parsers turn bytes
    into objects, so every malformed payload is a :class:`ProtocolError`.

    ``json.loads`` recurses once per nesting level, so a payload such
    as ``b"[" * 200000`` exhausts the interpreter's recursion limit
    before it can be rejected as JSON; that is a malformed frame too.
    So is ``null``: both parsers return None for "no frame" (clean EOF,
    incomplete buffer), and no request or response is ever null.
    """
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    except RecursionError:
        raise ProtocolError("undecodable frame: JSON nested too deeply") from None
    if obj is None:
        raise ProtocolError("null frame")
    return obj


def send_frame(sock: socket.socket, obj) -> None:
    sock.sendall(encode(obj))


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            if remaining == n:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket):
    """Read one frame; returns the decoded object, or None on clean EOF."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    try:
        (length,) = _LEN.unpack(header)
    except struct.error as exc:  # pragma: no cover - _recv_exact guards size
        raise ProtocolError(f"malformed frame header: {exc}") from None
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES})")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed between header and payload")
    return _decode_payload(payload)


class FrameAssembler:
    """Transport-free incremental frame parser.

    Feed it raw bytes from *any* source — an :mod:`asyncio` stream the
    daemon or the router reads, a router's backend connection — and
    pull decoded frames out.  It shares :func:`_decode_payload` with
    :func:`recv_frame`, so every transport raises one set of
    :class:`ProtocolError` messages (a corrupt header can never surface
    as a raw ``struct.error``, nor a deeply nested payload as a
    ``RecursionError``).
    """

    def __init__(self):
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame (0 = at a boundary)."""
        return len(self._buf)

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    def next_frame(self):
        """Decode and pop one buffered frame, or None if incomplete."""
        buf = self._buf
        if len(buf) < _LEN.size:
            return None
        try:
            (length,) = _LEN.unpack(bytes(buf[: _LEN.size]))
        except struct.error as exc:  # pragma: no cover - length checked above
            raise ProtocolError(f"malformed frame header: {exc}") from None
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES})"
            )
        end = _LEN.size + length
        if len(buf) < end:
            return None
        payload = bytes(buf[_LEN.size : end])
        del buf[:end]
        return _decode_payload(payload)



# ---------------------------------------------------------------------------
# Streamed-result reassembly
# ---------------------------------------------------------------------------
def _dig(result: dict, dotted: str) -> tuple[dict, str]:
    """Walk dotted path segments, creating nested dicts; returns
    (owning dict, final key)."""
    node = result
    parts = dotted.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    return node, parts[-1]


def apply_stream_op(result: dict, op: dict) -> dict:
    """Fold one partial frame's op into the result under construction.

    ``{"set": {path: value}}`` assigns (dotted paths nest);
    ``{"append": {path: [items]}}`` extends the list at the path
    (created empty on first append).  Mutates and returns ``result``.
    """
    if not isinstance(op, dict):
        raise ProtocolError("stream op must be a JSON object")
    for dotted, value in (op.get("set") or {}).items():
        node, key = _dig(result, dotted)
        node[key] = value
    for dotted, items in (op.get("append") or {}).items():
        node, key = _dig(result, dotted)
        bucket = node.get(key)
        if bucket is None:
            bucket = []
            node[key] = bucket
        if not isinstance(bucket, list):
            raise ProtocolError(f"stream op appends to non-list at {dotted!r}")
        bucket.extend(items)
    return result


def reassemble(ops: list) -> dict:
    """Fold a streamed job's partial ops into the full result dict.

    The daemon guarantees the reassembly of every partial op
    equals the terminal frame's ``result`` byte for byte.
    """
    result: dict = {}
    for op in ops:
        apply_stream_op(result, op)
    return result


__all__ = [
    "FrameAssembler",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "RESULT_STATUSES",
    "STATUS_DEGRADED",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_PARTIAL",
    "STATUS_REJECTED",
    "STATUS_TIMEOUT",
    "TERMINAL_STATUSES",
    "apply_stream_op",
    "encode",
    "reassemble",
    "recv_frame",
    "send_frame",
]
