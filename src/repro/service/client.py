"""Blocking client for the analysis service.

One :class:`ServiceClient` wraps one socket and speaks strict
request/response lockstep — no pipelining, so ``recv_frame`` after
``send_frame`` is the whole conversation.  The client is deliberately
thin: all policy (admission, degradation, deadlines) lives server-side
and is *reported* in responses, never re-implemented here.

``connect()`` accepts either a Unix socket path or a ``host:port``
string; :func:`wait_until_ready` spins on ``health`` until the daemon
answers, which is how the CLI, tests and CI smoke jobs synchronize
with a freshly forked ``repro serve``.
"""

from __future__ import annotations

import json
import os
import socket
import time

from ..telemetry.obs import chrome_trace, new_trace_id, span_event, wall_now_us
from .protocol import ProtocolError, recv_frame, send_frame


class ServiceError(Exception):
    """Client-side failure: connect, transport, or protocol trouble.

    Job-level failures (rejected / timeout / error statuses) are NOT
    raised — they come back as the response dict so callers can react
    to backpressure programmatically.
    """


class ServiceProtocolError(ServiceError):
    """The peer broke the frame protocol mid-conversation.

    Covers torn frames (connection dropped between header and payload),
    corrupt length prefixes, undecodable payloads, and a server that
    closes without answering.  These used to surface as the raw
    transport's ``struct.error`` / short-read artifacts; every client
    entry point now normalizes them to this one typed error so callers
    can distinguish "the wire broke" from "could not connect"
    (:class:`ServiceError`) without string matching.
    """


def _parse_address(address: str) -> tuple[str, str | tuple[str, int]]:
    """``unix:///path``, ``tcp://host:port``, ``host:port`` or a bare path."""
    if address.startswith("unix://"):
        return "unix", address[len("unix://"):]
    if address.startswith("tcp://"):
        address = address[len("tcp://"):]
        host, _, port = address.rpartition(":")
        return "tcp", (host or "127.0.0.1", int(port))
    if ":" in address and address.rsplit(":", 1)[1].isdigit() and "/" not in address:
        host, _, port = address.rpartition(":")
        return "tcp", (host or "127.0.0.1", int(port))
    return "unix", address


class ServiceClient:
    """A blocking, lockstep client for one daemon connection."""

    def __init__(self, address: str, timeout_s: float = 150.0):
        self.address = address
        self.timeout_s = timeout_s
        self._sock: socket.socket | None = None

    # -- lifecycle -----------------------------------------------------------
    def connect(self) -> "ServiceClient":
        family, target = _parse_address(self.address)
        sock = None
        try:
            if family == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout_s)
                sock.connect(target)
            else:
                sock = socket.create_connection(target, timeout=self.timeout_s)
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise ServiceError(f"cannot connect to {self.address}: {exc}") from None
        self._sock = sock
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- one round trip ------------------------------------------------------
    def _recv_response(self) -> dict:
        """One response frame, with transport faults normalized."""
        try:
            response = recv_frame(self._sock)
        except socket.timeout:
            self.close()
            raise ServiceError(
                f"no response from {self.address} within {self.timeout_s}s"
            ) from None
        except ProtocolError as exc:
            self.close()
            raise ServiceProtocolError(
                f"protocol error from {self.address}: {exc}"
            ) from None
        except OSError as exc:
            self.close()
            raise ServiceError(f"transport error: {exc}") from None
        if response is None:
            self.close()
            raise ServiceProtocolError(
                f"{self.address} closed the connection mid-request"
            )
        if not isinstance(response, dict):
            self.close()
            raise ServiceProtocolError(
                f"{self.address} sent a non-object response"
            )
        return response

    def request(self, payload: dict) -> dict:
        """Send one frame, receive one frame."""
        if self._sock is None:
            self.connect()
        try:
            send_frame(self._sock, payload)
        except OSError as exc:
            self.close()
            raise ServiceError(f"transport error: {exc}") from None
        return self._recv_response()

    # -- request helpers -----------------------------------------------------
    def submit(
        self,
        kind: str,
        *,
        workload: str | None = None,
        scale: int = 1,
        source: str | None = None,
        fidelity: str | None = None,
        params: dict | None = None,
        cache: bool = True,
        deadline_s: float | None = None,
        trace: bool = False,
        trace_id: str | None = None,
    ) -> dict:
        """Submit one analysis job; returns the raw response dict.

        ``trace=True`` asks the daemon to span-trace this job end to
        end; the response then carries ``trace.events`` (server +
        worker spans sharing ``trace.trace_id``).  Trace keys are
        transport metadata — they never reach the job spec or its
        cache key.
        """
        payload: dict = {"kind": kind, "scale": scale, "cache": cache}
        if workload is not None:
            payload["workload"] = workload
        if source is not None:
            payload["source"] = source
        if fidelity is not None:
            payload["fidelity"] = fidelity
        if params:
            payload["params"] = params
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        if trace:
            payload["trace"] = True
            payload["trace_id"] = trace_id or new_trace_id()
        return self.request(payload)

    def submit_stream(
        self,
        kind: str,
        *,
        on_partial=None,
        workload: str | None = None,
        scale: int = 1,
        source: str | None = None,
        fidelity: str | None = None,
        params: dict | None = None,
        cache: bool = True,
        deadline_s: float | None = None,
    ) -> tuple[dict, list]:
        """Submit with ``stream: true``; returns ``(response, ops)``.

        ``ops`` is the list of partial-result ops received before the
        terminal frame, already deduplicated server-side — folding them
        through :func:`~repro.service.protocol.reassemble` reproduces
        ``response["result"]`` byte for byte.  ``on_partial(seq, op)``
        (when given) fires as each partial frame arrives, which is the
        point of streaming: consumers render slice rows / attack alerts
        while the job is still running.  Against a server or job shape
        that emits no partials (cache hit, rejection, control-plane
        degradation) ``ops`` is empty and the terminal frame is the
        whole answer — byte-identical to a blocking :meth:`submit`.
        """
        payload: dict = {"kind": kind, "scale": scale, "cache": cache, "stream": True}
        if workload is not None:
            payload["workload"] = workload
        if source is not None:
            payload["source"] = source
        if fidelity is not None:
            payload["fidelity"] = fidelity
        if params:
            payload["params"] = params
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        if self._sock is None:
            self.connect()
        try:
            send_frame(self._sock, payload)
        except OSError as exc:
            self.close()
            raise ServiceError(f"transport error: {exc}") from None
        ops: list = []
        while True:
            frame = self._recv_response()
            if frame.get("status") == "partial":
                op = frame.get("op") or {}
                ops.append(op)
                if on_partial is not None:
                    on_partial(int(frame.get("seq") or 0), op)
                continue
            return frame, ops

    def submit_traced(self, kind: str, *, trace_path=None, **kwargs) -> tuple[dict, dict]:
        """Submit with tracing on; returns ``(response, chrome_trace)``.

        The client mints the trace id, times its own ``client.request``
        span around the round trip, and merges it with the server's and
        worker's spans from the response into one Chrome trace object
        (written to ``trace_path`` when given) — the single file whose
        lanes are the client process, the daemon and the worker process,
        all on the shared wall-epoch-µs timeline.
        """
        trace_id = new_trace_id()
        t0 = wall_now_us()
        response = self.submit(kind, trace=True, trace_id=trace_id, **kwargs)
        dur = wall_now_us() - t0
        events = list((response.get("trace") or {}).get("events") or [])
        events.append(
            span_event(
                "client.request", t0, dur, pid=os.getpid(), tid=0,
                trace_id=trace_id, kind=kind,
            )
        )
        trace = chrome_trace(events)
        if trace_path is not None:
            with open(trace_path, "w") as fh:
                json.dump(trace, fh, indent=1)
        return response, trace

    def stats(self) -> dict:
        return self.request({"kind": "stats"})["stats"]

    def metrics(self, dump: bool = False) -> dict:
        """The daemon's live metrics exposition (see ``repro stats``)."""
        request: dict = {"kind": "metrics"}
        if dump:
            request["dump"] = True
        return self.request(request)["metrics"]

    def health(self) -> dict:
        return self.request({"kind": "health"})["health"]

    def shutdown(self) -> dict:
        """Ask the daemon to exit after responding."""
        return self.request({"kind": "shutdown"})


def wait_until_ready(
    address: str, timeout_s: float = 10.0, interval_s: float = 0.05
) -> dict:
    """Poll ``health`` until the daemon answers; returns the health dict.

    Raises :class:`ServiceError` if the deadline passes without a
    healthy answer (connection refused counts as "not yet up").
    """
    deadline = time.monotonic() + timeout_s
    last_error = "never reached"
    while time.monotonic() < deadline:
        try:
            with ServiceClient(address, timeout_s=max(1.0, interval_s * 20)) as client:
                health = client.health()
            if health.get("ok"):
                return health
            last_error = f"unhealthy: {health}"
        except ServiceError as exc:
            last_error = str(exc)
        time.sleep(interval_s)
    raise ServiceError(f"service at {address} not ready after {timeout_s}s ({last_error})")


__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceProtocolError",
    "wait_until_ready",
]
