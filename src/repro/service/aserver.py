"""The analysis daemon's front door: coroutine per connection, streamed results.

:class:`AsyncAnalysisServer` is the DIFT-as-a-service daemon.  It owns
a listening socket (Unix-domain by default, TCP when given a port) and
wraps one :class:`~repro.service.server.ServiceCore` (admission ->
cache -> pool).  The accept side is one event loop: a coroutine per
connection reads length-prefixed frames through a
:class:`~repro.service.protocol.FrameAssembler`, control requests
(``stats`` / ``health`` / ``metrics`` / ``shutdown``) answer inline
from live state, and job requests hand off to the blocking
:class:`~repro.service.pool.WorkerPool` and *await* completion without
holding a thread.  The completion path is callback-shaped —
``Job.done_cb`` pokes an :class:`asyncio.Event` through
``loop.call_soon_threadsafe`` — so hundreds of concurrent waiters cost
hundreds of suspended coroutines, not hundreds of parked threads.  The
wait is bounded by the job deadline plus a grace period, so a client
is *never* left hanging even if the pool misbehaves.

**Streaming.**  A job request carrying ``"stream": true`` receives
incremental ``partial`` frames (``{"status": "partial", "seq": n,
"op": ...}``) as the worker produces result sections, followed by the
normal terminal frame.  The terminal frame is byte-identical to what a
blocking submit would have returned — it remains the canonical
cacheable result, so :class:`~repro.service.client.ServiceClient` and
the result cache work unchanged — and reassembling every op
(:func:`~repro.service.protocol.reassemble`) reproduces its ``result``
byte for byte.  Partial ``seq`` numbers restart at 1 on a crash-retry;
because re-execution is deterministic the replayed prefix is identical,
so the relay drops ``seq <= last-seen`` and the client observes an
exactly-once op stream.  A streamed exchange may legitimately carry
*zero* partial frames (cache hit, rejection) — consumers key off
``status`` alone.

The event loop runs in a daemon thread behind a synchronous
``start()`` / ``stop()`` / ``serve_forever()`` / context-manager
facade, which is how the CLI, the tests and the experiments drive it.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading

from ..telemetry import MetricsRegistry
from ..telemetry.obs import new_trace_id, wall_now_us
from .protocol import (
    ProtocolError,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_PARTIAL,
    FrameAssembler,
    encode,
)
from .server import ServiceConfig, ServiceCore

#: read granularity for the per-connection frame loop.
_READ_BYTES = 1 << 16


class AsyncAnalysisServer:
    """Event-loop analysis daemon; see the module docstring."""

    def __init__(self, config: ServiceConfig, registry: MetricsRegistry | None = None):
        if (config.socket_path is None) == (config.port is None):
            raise ValueError("configure exactly one of socket_path or port")
        self.config = config
        self.core = ServiceCore(config, registry=registry)
        self.registry = self.core.registry
        self.admission = self.core.admission
        self.cache = self.core.cache
        self.obs = self.core.obs
        self.pool = self.core.pool
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stop_event: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._running = False
        self._shutdown_requested = threading.Event()

    # -- sync facade ---------------------------------------------------------
    def start(self) -> "AsyncAnalysisServer":
        """Spin up the event loop in a daemon thread; returns once bound."""
        self._running = True
        self._thread = threading.Thread(
            target=self._run_loop, name="aserver-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=15.0):
            self._running = False
            raise RuntimeError("async server failed to start in time")
        if self._startup_error is not None:
            self._running = False
            raise self._startup_error
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`stop` or a ``shutdown`` request."""
        if not self._running:
            self.start()
        try:
            while self._running and not self._shutdown_requested.wait(timeout=0.2):
                pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain handlers, stop the pool."""
        if not self._running:
            return
        self._running = False
        loop = self._loop
        if loop is not None and self._stop_event is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self.config.socket_path:
            with contextlib.suppress(OSError):
                os.unlink(self.config.socket_path)

    def __enter__(self) -> "AsyncAnalysisServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
        finally:
            self._ready.set()

    # -- event loop ----------------------------------------------------------
    async def _amain(self) -> None:
        config = self.config
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if config.port is not None:
            server = await asyncio.start_server(
                self._handle_connection, config.host, config.port
            )
            if config.port == 0:  # ephemeral: record what the OS picked
                config.port = server.sockets[0].getsockname()[1]
        else:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(config.socket_path)
            server = await asyncio.start_unix_server(
                self._handle_connection, path=config.socket_path
            )
        self.core.start()
        self.registry.gauge("aserver.enabled").set(1)
        self._ready.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            self.core.stop()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        registry = self.registry
        registry.counter("aserver.connections").inc()
        # All connection tasks live on the one loop thread, so the task
        # set's size *is* the live-connection gauge.
        registry.gauge("aserver.active_connections").set(len(self._conn_tasks))
        registry.gauge("aserver.peak_connections").set_max(len(self._conn_tasks))
        assembler = FrameAssembler()
        try:
            while True:
                request = assembler.next_frame()
                if request is None:
                    data = await reader.read(_READ_BYTES)
                    if not data:
                        if assembler.pending_bytes:
                            raise ProtocolError("connection closed mid-frame")
                        return  # client closed cleanly
                    assembler.feed(data)
                    continue
                await self._serve_request(request, writer)
                if isinstance(request, dict) and request.get("kind") == "shutdown":
                    self._shutdown_requested.set()
                    return
        except ProtocolError as exc:
            with contextlib.suppress(OSError, ConnectionError):
                writer.write(encode({"status": STATUS_ERROR, "error": str(exc)}))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conn_tasks.discard(task)
            registry.gauge("aserver.active_connections").set(len(self._conn_tasks))
            with contextlib.suppress(OSError, ConnectionError):
                writer.close()

    async def _serve_request(self, request, writer: asyncio.StreamWriter) -> None:
        if not isinstance(request, dict):
            raise ProtocolError("request must be a JSON object")
        self.registry.counter("aserver.requests").inc()
        kind = request.get("kind")
        if kind == "stats":
            response = {"status": STATUS_OK, "stats": self.core.stats()}
        elif kind == "health":
            response = {"status": STATUS_OK, "health": self.core.health()}
        elif kind == "metrics":
            response = {
                "status": STATUS_OK,
                "metrics": self.core.metrics(dump=bool(request.get("dump"))),
            }
        elif kind == "shutdown":
            response = {"status": STATUS_OK, "shutting_down": True}
        else:
            response = await self._dispatch_job(request, writer)
        writer.write(encode(response))
        await writer.drain()

    async def _dispatch_job(self, request: dict, writer: asyncio.StreamWriter) -> dict:
        w0 = wall_now_us()
        want_trace = bool(request.get("trace")) and self.obs.enabled
        trace_id = ""
        if want_trace:
            trace_id = str(request.get("trace_id") or "") or new_trace_id()
        stream = bool(request.get("stream"))
        response, worker_events = await self._admit_and_run(
            request, trace_id, stream, writer
        )
        if want_trace:
            self.obs.span_at(
                "server.handle", w0, wall_now_us() - w0,
                trace_id=trace_id, status=response.get("status"),
            )
            response["trace"] = {
                "trace_id": trace_id,
                "events": self.obs.trace_events(trace_id) + list(worker_events),
            }
        return response

    async def _admit_and_run(
        self, request: dict, trace_id: str, stream: bool,
        writer: asyncio.StreamWriter,
    ) -> tuple[dict, list]:
        loop = asyncio.get_running_loop()
        response, prepared = self.core.prepare(request, trace_id)
        if response is not None:
            return response, []

        done = asyncio.Event()
        queue: asyncio.Queue | None = asyncio.Queue() if stream else None

        # Both callbacks fire on pool slot threads; call_soon_threadsafe
        # serializes them into the loop in causal order, so by the time
        # the sentinel (or the bare done-set) runs, every partial that
        # preceded job completion is already queued.
        def done_cb() -> None:
            loop.call_soon_threadsafe(done.set)
            if queue is not None:
                loop.call_soon_threadsafe(queue.put_nowait, None)

        partial_cb = None
        if stream:
            def partial_cb(seq: int, op: dict) -> None:
                loop.call_soon_threadsafe(queue.put_nowait, (seq, op))

        job = self.core.make_job(
            prepared, done_cb, trace_id, partial_cb=partial_cb
        )
        self.pool.submit(job)

        if stream:
            lost = await self._relay_partials(queue, writer, prepared.grace_deadline_s)
            if lost:
                return self.core.lost_response(), []
        else:
            try:
                await asyncio.wait_for(done.wait(), timeout=prepared.grace_deadline_s)
            except asyncio.TimeoutError:
                return self.core.lost_response(), []
        return self.core.finish(prepared, job), job.worker_events

    async def _relay_partials(
        self, queue: asyncio.Queue, writer: asyncio.StreamWriter, budget_s: float,
    ) -> bool:
        """Forward partial frames until the done sentinel; True if lost.

        ``seq`` restarts per pool attempt; deterministic re-execution
        makes a crash-retry replay the identical prefix, so dropping
        ``seq <= last_seq`` turns at-least-once delivery into the
        exactly-once stream the protocol promises.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + budget_s
        last_seq = 0
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                return True
            try:
                item = await asyncio.wait_for(queue.get(), timeout=remaining)
            except asyncio.TimeoutError:
                return True
            if item is None:
                return False  # job finished; terminal frame follows
            seq, op = item
            if seq <= last_seq:
                self.registry.counter("aserver.stream.duplicates_dropped").inc()
                continue
            last_seq = seq
            self.registry.counter("aserver.stream.frames").inc()
            writer.write(encode({"status": STATUS_PARTIAL, "seq": seq, "op": op}))
            await writer.drain()

    # -- introspection -------------------------------------------------------
    def health(self) -> dict:
        return self.core.health()

    def stats(self) -> dict:
        return self.core.stats()

    def metrics(self, dump: bool = False) -> dict:
        return self.core.metrics(dump=dump)


__all__ = ["AsyncAnalysisServer"]
