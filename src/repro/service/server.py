"""The front door shared by the analysis daemon and the router.

Both tiers speak the same length-prefixed frame protocol
(:mod:`~repro.service.protocol`) on one Unix or TCP socket, so the
transport lives here once, in :class:`FrameServer`:

* **The listener.**  Exactly one of ``socket_path`` / ``port``; an
  ephemeral ``port=0`` is resolved after bind.  A Unix path is probed
  with a connect before binding: a path a live listener still answers
  is refused with ``EADDRINUSE`` (a second server must not steal the
  socket, and later unlink it, from under a running one), while a
  refused connect means a stale file left by a killed process, which is
  reclaimed.
* **The facade.**  The event loop runs in a daemon thread behind a
  synchronous ``start()`` / ``serve_forever()`` / ``stop()`` /
  context-manager facade, which is how the CLI, the tests, the
  experiments and perfbench drive it.
* **The connection loop.**  One coroutine per connection reads frames
  through a :class:`~repro.service.protocol.FrameAssembler`
  (:func:`read_frame`) and answers each with one terminal frame.
* **The control verbs.**  ``stats`` / ``health`` / ``metrics`` answer
  inline from live state; ``shutdown`` stops the server exactly as
  :meth:`FrameServer.stop` does, however the server was started.
* **The exactly-once stream cursor** (:meth:`FrameServer.partial_relay`).

A subclass supplies only what differs: its metric prefix (``aserver`` /
``router``), its ``health()`` body, what it starts and stops around the
listener, every other request kind (``_dispatch``) and, for the router,
a drain before stop.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import os
import threading
import time
from dataclasses import dataclass

from ..telemetry import MetricsRegistry
from ..telemetry.obs import latency_summary, render_prometheus
from .observe import NULL_OBSERVABILITY, ServiceObservability
from .protocol import (
    ProtocolError,
    STATUS_ERROR,
    STATUS_OK,
    FrameAssembler,
    encode,
)

#: fallback deadline for jobs that don't carry one.
DEFAULT_DEADLINE_S = 120.0

#: read granularity for every frame loop (client and backend side).
_READ_BYTES = 1 << 16

#: how long ``stop()`` / ``shutdown`` lets in-flight work drain.
_DRAIN_TIMEOUT_S = 10.0

#: a live listener whose accept backlog is full leaves the probe's
#: connect pending; past this, the path counts as live.
_PROBE_TIMEOUT_S = 2.0


@dataclass
class ListenConfig:
    """Where a front door listens and how it observes itself.

    :class:`~repro.service.aserver.ServiceConfig` and
    :class:`~repro.service.router.RouterConfig` extend it; CLI flags map
    1:1 onto the fields.
    """

    socket_path: str | None = None
    host: str = "127.0.0.1"
    port: int | None = None
    #: flight recorder, metrics sampler and per-job traces
    #: (``--no-observe`` clears).
    observe: bool = True
    #: where flight-recorder dumps land (default: the server's cwd).
    obs_dir: str | None = None
    #: metrics-window sampling period for the background sampler.
    sample_interval_s: float = 1.0

    def address(self) -> str:
        if self.port is not None:
            return f"tcp://{self.host}:{self.port}"
        return f"unix://{self.socket_path}"


async def read_frame(reader: asyncio.StreamReader, assembler: FrameAssembler):
    """The next decoded frame from ``reader``, or None once the peer closes.

    After None, ``assembler.pending_bytes`` tells a close at a frame
    boundary from one mid-frame.
    """
    while True:
        frame = assembler.next_frame()
        if frame is not None:
            return frame
        data = await reader.read(_READ_BYTES)
        if not data:
            return None
        assembler.feed(data)


async def _refuse_live_socket(path: str) -> None:
    """Raise ``EADDRINUSE`` if a listener accepts connections on ``path``."""
    try:
        _, writer = await asyncio.wait_for(
            asyncio.open_unix_connection(path), timeout=_PROBE_TIMEOUT_S
        )
        writer.close()
    except (FileNotFoundError, ConnectionRefusedError):
        return  # nothing there, or a stale file nobody listens on
    except asyncio.TimeoutError:
        pass  # connect pending: a live listener with a full backlog
    raise OSError(errno.EADDRINUSE, "a live server already listens on", path)


class FrameServer:
    """Listener, facade, connection loop and control verbs; see the module
    docstring.  Subclasses set :attr:`prefix` and :attr:`summary_prefix`,
    own a result ``cache``, and implement ``_dispatch`` and ``health``."""

    #: prefix of the front-door metrics (``<prefix>.requests``, ...).
    prefix = ""
    #: prefix of the ``jobs.*`` / ``latency.total_s`` metrics the
    #: ``metrics`` verb's summary is derived from.
    summary_prefix = ""

    def __init__(self, config: ListenConfig, registry: MetricsRegistry | None = None):
        if (config.socket_path is None) == (config.port is None):
            raise ValueError(
                "configure exactly one of socket_path (--socket) or port (--port)"
            )
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry(enabled=True)
        if config.observe:
            self.obs = ServiceObservability(
                self.registry,
                dump_dir=config.obs_dir,
                sample_interval_s=config.sample_interval_s,
            )
        else:
            self.obs = NULL_OBSERVABILITY
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stop_event: asyncio.Event | None = None
        self._shutdown_task: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._started_at = 0.0

    # -- what a subclass supplies --------------------------------------------
    async def _on_start(self) -> None:
        """After bind, before ``start()`` returns: start the pipeline."""

    async def _on_stop(self) -> None:
        """After the listener closed and every connection ended."""

    async def _drain(self, timeout_s: float) -> None:
        """Before stopping: let in-flight work finish, bounded."""

    async def _dispatch(self, request: dict, writer: asyncio.StreamWriter) -> dict:
        """Answer a request that is not a control verb."""
        raise NotImplementedError

    def health(self) -> dict:
        raise NotImplementedError

    # -- sync facade ---------------------------------------------------------
    def start(self):
        """Spin up the event loop in a daemon thread; returns once bound."""
        self._thread = threading.Thread(
            target=self._run_loop, name=f"{self.prefix}-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=15.0):
            self._thread = None
            raise RuntimeError(f"{self.prefix} server failed to start in time")
        if self._startup_error is not None:
            self._thread = None
            raise self._startup_error
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`stop` or a ``shutdown`` request."""
        if self._thread is None:
            self.start()
        thread = self._thread
        try:
            while thread.is_alive():
                thread.join(timeout=0.2)
        finally:
            self.stop()

    def stop(self, drain_timeout_s: float = _DRAIN_TIMEOUT_S) -> None:
        """Graceful shutdown: drain (bounded), stop accepting, end every
        connection, stop the pipeline, unlink the socket.  A no-op once
        stopped, by this or by a ``shutdown`` request."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        with contextlib.suppress(RuntimeError):  # the loop already ended
            self._loop.call_soon_threadsafe(self._begin_shutdown, drain_timeout_s)
        thread.join(timeout=drain_timeout_s + 10.0)

    def __enter__(self):
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
            await _refuse_live_socket(config.socket_path)
            server = await asyncio.start_unix_server(
                self._handle_connection, path=config.socket_path
            )
        self._started_at = time.monotonic()
        self.obs.start()
        await self._on_start()
        self._ready.set()
        try:
            async with server:
                await self._stop_event.wait()
                # Stop accepting, then let the accepts already queued
                # attach their transports: one that runs after close()
                # fails to attach and leaks its transport unclosed.
                for sock in server.sockets:
                    self._loop.remove_reader(sock.fileno())
                await asyncio.sleep(0)
        finally:
            for task in list(self._conn_tasks):
                task.cancel()
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            await self._on_stop()
            self.obs.stop()
            if config.socket_path:
                with contextlib.suppress(OSError):
                    os.unlink(config.socket_path)

    def _begin_shutdown(self, drain_timeout_s: float = _DRAIN_TIMEOUT_S) -> None:
        """On the loop: drain, then end :meth:`_amain` (first call wins)."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self._shutdown(drain_timeout_s))

    async def _shutdown(self, drain_timeout_s: float) -> None:
        await self._drain(drain_timeout_s)
        self._stop_event.set()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        registry, prefix = self.registry, self.prefix
        registry.counter(f"{prefix}.connections").inc()
        # All connection tasks live on the one loop thread, so the task
        # set's size *is* the live-connection gauge.
        registry.gauge(f"{prefix}.active_connections").set(len(self._conn_tasks))
        registry.gauge(f"{prefix}.peak_connections").set_max(len(self._conn_tasks))
        assembler = FrameAssembler()
        try:
            while (request := await read_frame(reader, assembler)) is not None:
                await self._serve_request(request, writer)
                if request.get("kind") == "shutdown":
                    self._begin_shutdown()
                    return
            if assembler.pending_bytes:
                raise ProtocolError("connection closed mid-frame")
        except ProtocolError as exc:
            with contextlib.suppress(OSError, ConnectionError):
                writer.write(encode({"status": STATUS_ERROR, "error": str(exc)}))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conn_tasks.discard(task)
            registry.gauge(f"{prefix}.active_connections").set(len(self._conn_tasks))
            with contextlib.suppress(OSError, ConnectionError):
                writer.close()

    async def _serve_request(self, request, writer: asyncio.StreamWriter) -> None:
        if not isinstance(request, dict):
            raise ProtocolError("request must be a JSON object")
        self.registry.counter(f"{self.prefix}.requests").inc()
        kind = request.get("kind")
        if kind == "stats":
            response = {"status": STATUS_OK, "stats": self.stats()}
        elif kind == "health":
            response = {"status": STATUS_OK, "health": self.health()}
        elif kind == "metrics":
            response = {
                "status": STATUS_OK,
                "metrics": self.metrics(dump=bool(request.get("dump"))),
            }
        elif kind == "shutdown":
            response = {"status": STATUS_OK, "shutting_down": True}
        else:
            response = await self._dispatch(request, writer)
        writer.write(encode(response))
        await writer.drain()

    def partial_relay(self, writer: asyncio.StreamWriter):
        """A ``relay(frame)`` coroutine function forwarding one job's
        ``partial`` frames to ``writer`` exactly once.

        ``seq`` restarts at 1 whenever the job is re-executed (a pool
        crash-retry, a router reroute).  Re-execution is deterministic,
        so the replayed prefix is identical, and dropping ``seq <=
        last-forwarded`` turns at-least-once delivery into the gap-free,
        exactly-once op stream the protocol promises.
        """
        last_seq = 0

        async def relay(frame: dict) -> None:
            nonlocal last_seq
            seq = int(frame.get("seq") or 0)
            if seq <= last_seq:
                self.registry.counter(f"{self.prefix}.stream.duplicates_dropped").inc()
                return
            last_seq = seq
            self.registry.counter(f"{self.prefix}.stream.frames").inc()
            writer.write(encode(frame))
            await writer.drain()

        return relay

    # -- introspection -------------------------------------------------------
    def stats(self) -> dict:
        return {
            "health": self.health(),
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "entries": len(self.cache),
            },
            "metrics": self.registry.as_dict(),
        }

    def metrics(self, dump: bool = False) -> dict:
        """The ``metrics`` request body: exposition + derived summary.

        The JSON snapshot, Prometheus text and p50/p95/p99 + shed-rate
        summary come straight off the live registry, so they work even
        with observability disabled; the observability extras (sample
        series, flight-dump paths, session id) ride along when the seam
        is on.  ``dump=True`` additionally writes a flight-recorder
        artifact and reports its path.
        """
        payload = {
            "json": self.registry.as_dict(),
            "prometheus": render_prometheus(self.registry),
            "summary": latency_summary(self.registry, prefix=self.summary_prefix),
        }
        payload.update(self.obs.metrics_payload(dump=dump))
        return payload


__all__ = [
    "DEFAULT_DEADLINE_S",
    "FrameServer",
    "ListenConfig",
    "read_frame",
]
