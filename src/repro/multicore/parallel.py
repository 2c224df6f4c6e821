"""True out-of-process DIFT helper over a shared-memory ring buffer.

:class:`~repro.multicore.helper.HelperCoreDIFT` *models* the paper's
§2.1 helper-core design on one timeline; this module *realizes* it: the
application (parent) process executes the guest while a real
``multiprocessing`` worker runs a
:class:`~repro.dift.kernel.PropagationKernel` against a replicated
shadow store.  The two communicate over a fixed-size ring buffer in
``multiprocessing.shared_memory`` carrying struct-packed 24-byte
records — the software shared-memory channel of the paper, with the
enqueue cost paid in real wall-clock time instead of modeled cycles.

Keeping the per-instruction message small is the whole game (the paper
ships "registers and flags"; we ship less).  Register *numbers* are
static per pc, so the parent sends each pc's operand template exactly
once (through the result pipe, strictly before the first ring record
that references it) and every subsequent message carries only the
dynamic fields the engine actually reads:

==========  ========================================================
kind        dynamic payload (fields ``a``, ``b``)
==========  ========================================================
K_SKIP      run-length of consecutive engine-no-op instructions
            (branches, calls, sync — the engine only counts them)
K_GENERIC   none (ALU/move/LI: shadow update is template-static)
K_LOAD      effective address (LOAD/POP)
K_STORE     effective address (STORE/PUSH)
K_ALLOC     block base, block size
K_SPAWN     child thread id
K_IN        input value, input index
K_SINK      sink operand value, io value (ICALL/OUT)
==========  ========================================================

The records come from the one
:class:`~repro.dift.kernel.RecordEncoder`, the same encoder the inline
engine batches with, so the ring carries byte for byte the stream the
inline kernels consume.  Its per-record work is the whole
application-core DIFT cost in this mode.  An address (or ALLOC block)
too wide for the i64 fields is never clamped: its record carries the
``_WIDE`` flag and the true payload rides the template pipe as a
``(seq, payload)`` message, again strictly before the ring record that
needs it.

The worker feeds drained ring chunks straight to a pluggable
:class:`~repro.dift.kernel.PropagationKernel` — no per-record Python
loop in the worker: the reference kernel rebuilds per-pc template
events and runs the taint rules record by record, while the array
kernel (the default when numpy is importable) propagates each chunk
vectorized.  Either way the differential suite asserts the returned
alerts, taint sets and stats equal an inline reference run.

The channel is always batched: it flushes ``batch_size`` records per
ring publish to amortize the position updates (default
:data:`DEFAULT_PARALLEL_BATCH`; ``--batch-size`` on the CLI).  No
modeled cycles are charged to the machine — this helper trades *host*
time, and its equivalence contract covers observables (alerts / taint
/ stats), not the cycle model, which is what :class:`HelperCoreDIFT`
is for.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing import shared_memory

from ..telemetry.obs import wall_now_us
# The 24-byte wire format is canonically defined next to the kernels
# that consume it; re-exported here for backward compatibility.
from ..dift.kernel import (
    K_ALLOC,
    K_GENERIC,
    K_IN,
    K_LOAD,
    K_SINK,
    K_SKIP,
    K_SPAWN,
    K_STORE,
    RECORD,
    RECORD_SIZE,
    DIFTStats,
    RecordEncoder,
    SinkRule,
    TaintAlert,
    build_kernel,
    classify_opcode,
    publish_taint_metrics,
    select_kernel,
)
from ..dift.summaries import SummaryKernel, summarizable
from ..dift.policy import TaintPolicy
from ..dift.shadow import ShadowState
from ..vm.errors import AttackDetected
from ..vm.events import Hook, InstrEvent
from ..vm.machine import Machine

#: shm layout: wpos u64 @0, rpos u64 @8, done u8 @16; data follows.
_HEADER = 32
_WPOS = slice(0, 8)
_RPOS = slice(8, 16)
_DONE = 16

#: how long (s) the producer sleeps when the ring is full / empty.
_POLL_S = 0.00002

#: worker busy-burst spans: coalesce bursts closer than this gap (µs)
#: and never ship more than this many — the side pipe carries a coarse,
#: bounded summary, not a per-chunk firehose.
_SPAN_GAP_US = 2_000
_MAX_WORKER_SPANS = 256

#: messages per ring flush of the out-of-process DIFT helper.
DEFAULT_PARALLEL_BATCH = 256


def parallel_batch_size(explicit: int | None = None) -> int:
    """Resolve the helper's messages-per-flush: an explicit positive
    argument (``batch_size=`` / ``--batch-size``), else
    :data:`DEFAULT_PARALLEL_BATCH`."""
    if explicit is None:
        return DEFAULT_PARALLEL_BATCH
    if explicit < 1:
        raise ValueError("batch size must be >= 1")
    return explicit


_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


@dataclass
class ParallelReport:
    """Outcome of one out-of-process helper run (host-side costs)."""

    instructions: int  # guest instructions observed by the hook
    messages: int  # data records written to the ring
    skipped: int  # instructions compressed into K_SKIP runs
    defs: int  # per-pc templates shipped
    batches: int  # ring publishes
    bytes_shipped: int
    ring_stalls: int  # producer waits for the consumer
    wall_s: float  # parent: attach -> finish
    worker_busy_s: float  # worker: time spent inside the engine
    worker_wall_s: float  # worker: process loop lifetime
    attack: str | None = None  # AttackDetected message, if one fired
    culprit_pc: int = -1
    #: coarse worker-side spans (wall-epoch-µs event dicts) shipped
    #: back over the side pipe: one whole-lifetime "helper.worker" span
    #: plus coalesced "helper.busy" bursts (see _SPAN_GAP_US).
    spans: list = None
    #: function-summary counters from the worker's kernel
    #: ({learned,hits,invalidations,records_elided}), None when off.
    summaries: dict | None = None
    #: zero-weight CALL/RET marker records shipped (summary mode only);
    #: excluded from ``messages``.
    markers: int = 0

    @property
    def worker_utilization(self) -> float:
        if self.worker_wall_s <= 0:
            return 0.0
        return min(1.0, self.worker_busy_s / self.worker_wall_s)


def _worker_main(
    shm_name: str,
    data_size: int,
    conn,
    policy: TaintPolicy,
    source_channels,
    sinks,
    propagate_addresses: bool,
    kernel_name: str,
    summaries: bool = False,
) -> None:
    """Consume the ring and feed drained chunks to a propagation kernel.

    Runs in the helper process.  Sends one result payload back through
    ``conn`` when the producer marks the stream done (or an attack
    freezes the kernel, after which the ring is drained unprocessed so
    the producer never blocks on a full ring).
    """
    shm = shared_memory.SharedMemory(name=shm_name)
    buf = shm.buf
    base = build_kernel(
        kernel_name,
        policy,
        source_channels=source_channels,
        sinks=sinks,
        propagate_addresses=propagate_addresses,
    )
    kern = SummaryKernel(base) if summaries else base
    wide = base.wide

    def register_def() -> None:
        msg = conn.recv()
        if len(msg) == 2:  # (seq, payload) of a wide record
            wide[msg[0]] = msg[1]
            return
        tpc, instr, reg_reads, reg_writes, channel = msg
        kern.register_template(tpc, instr, reg_reads, reg_writes, channel)

    def template_provider(pc: int) -> None:
        # The producer sends a pc's template strictly before the first
        # ring record referencing it, so ``pc``'s def is already in the
        # pipe; defs arrive in first-need order but the idle loop may
        # have drained past it, hence the membership check.
        templates = kern.templates
        while pc not in templates:
            register_def()

    def wide_provider(seq: int) -> None:
        # Same ordering contract as template defs.
        while seq not in wide:
            register_def()

    kern.template_provider = template_provider
    base.wide_provider = wide_provider
    stats = kern.stats
    attack: str | None = None
    culprit = -1
    busy = 0.0
    rpos = 0
    started = time.perf_counter()
    started_us = wall_now_us()
    #: coalesced busy bursts as [start_us, end_us] pairs (bounded).
    bursts: list[list[int]] = []
    perf_counter = time.perf_counter
    propagate = kern.propagate_batch

    try:
        while True:
            wpos = int.from_bytes(buf[_WPOS], "little")
            if wpos == rpos:
                if buf[_DONE]:
                    # done is set after the final wpos update; re-read to
                    # close the race between the two stores.
                    if int.from_bytes(buf[_WPOS], "little") == rpos:
                        break
                    continue
                if conn.poll():
                    # Drain queued template defs while the ring is idle.
                    # A template-heavy program can push more def bytes
                    # than the pipe holds before its records reach the
                    # ring; if nothing recv'd here the producer's
                    # blocking send and this idle loop would deadlock.
                    register_def()
                    continue
                time.sleep(_POLL_S)
                continue
            off = rpos % data_size
            n = min(wpos - rpos, data_size - off)
            chunk = bytes(buf[_HEADER + off : _HEADER + off + n])
            rpos += n
            buf[_RPOS] = rpos.to_bytes(8, "little")
            if attack is not None:
                continue  # drain without processing; state is frozen
            t0 = perf_counter()
            try:
                propagate(chunk)
            except AttackDetected as exc:
                # Same stopping point as the inline engine: stats, taint
                # and alerts freeze exactly where the raise happened.
                attack = str(exc)
                culprit = exc.culprit_pc
            t1 = perf_counter()
            busy += t1 - t0
            s_us = started_us + int((t0 - started) * 1e6)
            e_us = started_us + int((t1 - started) * 1e6)
            if bursts and (
                s_us - bursts[-1][1] <= _SPAN_GAP_US
                or len(bursts) >= _MAX_WORKER_SPANS
            ):
                bursts[-1][1] = e_us
            else:
                bursts.append([s_us, e_us])
        if summaries and attack is None:
            # Resolve a region still buffered for matching (a frozen
            # attack keeps everything exactly where the raise left it).
            kern.settle()
        shadow = kern.shadow
        # perf_counter-derived burst ends can skew a few µs past the
        # wall clock; stretch the lifetime span so bursts always nest.
        ended_us = wall_now_us()
        if bursts:
            ended_us = max(ended_us, bursts[-1][1])
        spans = [
            {
                "name": "helper.worker",
                "ts": started_us,
                "dur": ended_us - started_us,
                "args": {"busy_s": round(busy, 6)},
            }
        ] + [
            {"name": "helper.busy", "ts": s, "dur": e - s, "args": {}}
            for s, e in bursts
        ]
        conn.send(
            {
                "stats": stats,
                "alerts": kern.alerts,
                "regs": dict(shadow.regs),
                "mem": shadow.mem_items(),
                "peak_locations": shadow.peak_locations,
                "attack": attack,
                "culprit_pc": culprit,
                "busy_s": busy,
                "wall_s": time.perf_counter() - started,
                "spans": spans,
                "summaries": kern.counters() if summaries else None,
            }
        )
    finally:
        conn.close()
        buf.release()
        shm.close()


class ParallelHelperDIFT(Hook):
    """Offload DIFT to a real worker process; mirrors ``HelperCoreDIFT``.

    Attach to a machine like the inline engine, run the guest, then call
    :meth:`finish` (or just read :attr:`alerts` / :attr:`shadow` /
    :attr:`stats`, which finish implicitly) to collect the worker's
    results.  ``batch_size=None`` resolves through
    :func:`parallel_batch_size`; ``kernel=None`` resolves the worker's
    propagation kernel through
    :func:`~repro.dift.kernel.select_kernel` (resolved parent-side so
    the availability probe and fallback accounting happen in one
    process).  ``summaries=True`` runs the worker's kernel under the
    function-summary layer.
    """

    def __init__(
        self,
        policy: TaintPolicy,
        source_channels: frozenset[int] | None = None,
        sinks: list[SinkRule] | None = None,
        propagate_addresses: bool = False,
        batch_size: int | None = None,
        ring_records: int = 1 << 15,
        kernel: str | None = None,
        summaries: bool = False,
    ):
        if ring_records < 64:
            raise ValueError("ring_records must be >= 64")
        self.policy = policy
        self.batch_size = parallel_batch_size(batch_size)
        self.kernel_name, _ = select_kernel(kernel, policy)
        self.summaries = summaries and summarizable(policy)
        self.machine: Machine | None = None
        self._sinks = sinks if sinks is not None else [SinkRule(kind="icall")]
        self._source_channels = source_channels
        self._propagate_addresses = propagate_addresses
        self._data_size = ring_records * RECORD_SIZE
        # The hook is the encoder's closure, whose state lives in cells
        # and bound methods: the interpreter calls it once per guest
        # instruction, so no ``self._x`` lookup sits on that path.
        self._encoder = RecordEncoder(
            self._register,
            self._ship_wide,
            self._publish,
            min(self.batch_size * RECORD_SIZE, self._data_size // 2),
            markers=self.summaries,
        )
        self._batch = self._encoder.batch
        self.on_instruction = self._encoder.on_instruction
        self._wpos = 0
        self._rpos_cache = 0
        self._defs = 0
        self._batches = 0
        self._bytes = 0
        self._stalls = 0
        self._t0 = 0.0
        self._shm: shared_memory.SharedMemory | None = None
        self._proc = None
        self._conn = None
        self._report: ParallelReport | None = None
        self._stats: DIFTStats | None = None
        self._alerts: list[TaintAlert] = []
        self._shadow: ShadowState | None = None

    # -- lifecycle -----------------------------------------------------------
    def attach(self, machine: Machine) -> "ParallelHelperDIFT":
        self.machine = machine
        self._shm = shared_memory.SharedMemory(
            create=True, size=_HEADER + self._data_size
        )
        self._shm.buf[:_HEADER] = bytes(_HEADER)
        self._conn, child_conn = _CTX.Pipe(duplex=True)
        self._proc = _CTX.Process(
            target=_worker_main,
            args=(
                self._shm.name,
                self._data_size,
                child_conn,
                self.policy,
                self._source_channels,
                self._sinks,
                self._propagate_addresses,
                self.kernel_name,
                self.summaries,
            ),
            daemon=True,
        )
        self._proc.start()
        child_conn.close()
        self._t0 = time.perf_counter()
        machine.hooks.subscribe(self)
        return self

    # -- encoder callbacks ---------------------------------------------------
    def _register(self, ev: InstrEvent) -> tuple[int, bool]:
        kind = classify_opcode(ev.instr, ev.reg_writes)
        if kind != K_SKIP:
            # Ship the static operand template before any ring record
            # can reference this pc.
            self._conn.send((ev.pc, ev.instr, ev.reg_reads, ev.reg_writes, ev.channel))
            self._defs += 1
        # Sink verdicts arrive with the worker's results, never as a
        # raise in the guest, so no record forces an early publish.
        return kind, False

    def _ship_wide(self, seq: int, payload) -> None:
        self._conn.send((seq, payload))

    # -- ring producer -------------------------------------------------------
    def _publish(self) -> None:
        data = self._batch
        n = len(data)
        if not n:
            return
        shm = self._shm
        assert shm is not None
        buf = shm.buf
        size = self._data_size
        wpos = self._wpos
        pos = 0
        while pos < n:
            avail = size - (wpos - self._rpos_cache)
            if avail < RECORD_SIZE:
                self._rpos_cache = int.from_bytes(buf[_RPOS], "little")
                avail = size - (wpos - self._rpos_cache)
                spins = 0
                while avail < RECORD_SIZE:
                    self._stalls += 1
                    time.sleep(_POLL_S)
                    spins += 1
                    if spins % 2000 == 0 and not self._proc.is_alive():
                        raise RuntimeError(
                            "parallel DIFT worker died with the ring full"
                        )
                    self._rpos_cache = int.from_bytes(buf[_RPOS], "little")
                    avail = size - (wpos - self._rpos_cache)
            take = min(avail, n - pos)
            take -= take % RECORD_SIZE  # publishes stay record-aligned
            off = wpos % size
            first = min(take, size - off)
            buf[_HEADER + off : _HEADER + off + first] = data[pos : pos + first]
            if first < take:
                buf[_HEADER : _HEADER + take - first] = data[pos + first : pos + take]
            wpos += take
            pos += take
            # Data is in place before the position becomes visible.
            buf[_WPOS] = wpos.to_bytes(8, "little")
        self._wpos = wpos
        self._batches += 1
        self._bytes += n
        # Clear in place: the hot-path closure holds this bytearray.
        del data[:]

    # -- completion ----------------------------------------------------------
    def finish(self, timeout_s: float = 300.0) -> ParallelReport:
        """Flush, signal end-of-stream, and collect the worker's state.

        Idempotent; returns the same :class:`ParallelReport` afterwards.
        """
        if self._report is not None:
            return self._report
        self._encoder.cut()
        self._publish()
        shm = self._shm
        assert shm is not None and self._proc is not None and self._conn is not None
        shm.buf[_DONE] = 1
        deadline = time.monotonic() + timeout_s
        payload = None
        while payload is None:
            if self._conn.poll(0.05):
                try:
                    payload = self._conn.recv()
                except EOFError:
                    self._cleanup()
                    raise RuntimeError(
                        "parallel DIFT worker closed the pipe without results"
                    ) from None
                break
            if not self._proc.is_alive():
                self._cleanup()
                raise RuntimeError(
                    f"parallel DIFT worker exited (code {self._proc.exitcode}) "
                    "without returning results"
                )
            if time.monotonic() > deadline:
                self._proc.terminate()
                self._cleanup()
                raise RuntimeError("parallel DIFT worker timed out")
        self._proc.join(timeout=10.0)
        wall = time.perf_counter() - self._t0
        self._cleanup()

        self._stats = payload["stats"]
        self._alerts = payload["alerts"]
        self._encoder.patch(self._alerts)
        shadow = ShadowState(self.policy, regs=payload["regs"], mem=payload["mem"])
        shadow.peak_locations = payload["peak_locations"]
        self._shadow = shadow
        # Counters are derived at completion rather than maintained per
        # event: every record is RECORD_SIZE bytes, so the shipped byte
        # count gives the record total, and each skip record carries its
        # run length (counted by the encoder when the run is cut).
        # Zero-weight CALL/RET markers (summary mode) are reported on
        # their own so messages keeps meaning weight-bearing records.
        _, skipped, skip_records, markers = self._encoder.counts
        messages = self._bytes // RECORD_SIZE - markers
        self._report = ParallelReport(
            instructions=(messages - skip_records) + skipped,
            messages=messages,
            markers=markers,
            skipped=skipped,
            defs=self._defs,
            batches=self._batches,
            bytes_shipped=self._bytes,
            ring_stalls=self._stalls,
            wall_s=wall,
            worker_busy_s=payload["busy_s"],
            worker_wall_s=payload["wall_s"],
            attack=payload["attack"],
            culprit_pc=payload["culprit_pc"],
            spans=payload.get("spans") or [],
            summaries=payload.get("summaries"),
        )
        return self._report

    def _cleanup(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self._shm is not None:
            self._shm.close()
            self._shm.unlink()
            self._shm = None

    def __del__(self):  # pragma: no cover - best-effort safety net
        try:
            if self._proc is not None and self._proc.is_alive():
                self._proc.terminate()
            self._cleanup()
        except Exception:
            pass

    # -- results (mirror HelperCoreDIFT / DIFTEngine surface) ---------------
    @property
    def alerts(self) -> list[TaintAlert]:
        self.finish()
        return self._alerts

    @property
    def shadow(self) -> ShadowState:
        self.finish()
        assert self._shadow is not None
        return self._shadow

    @property
    def stats(self) -> DIFTStats:
        self.finish()
        assert self._stats is not None
        return self._stats

    def report(self) -> ParallelReport:
        return self.finish()

    def publish_spans(self, tracer) -> int:
        """Emit the worker's spans into a wall-clock tracer.

        ``tracer`` is anything with the
        :meth:`~repro.telemetry.obs.WallSpanTracer.span_at` retroactive
        interface; returns the number of spans emitted (0 for tracers
        without it, e.g. the engine's cycle-clock ``SpanTracer``).
        """
        rep = self.finish()
        span_at = getattr(tracer, "span_at", None)
        if span_at is None or not rep.spans:
            return 0
        for s in rep.spans:
            span_at(s["name"], s["ts"], s["dur"], cat="helper", **(s.get("args") or {}))
        return len(rep.spans)

    def publish_telemetry(self, registry) -> None:
        """Dump channel + propagation metrics into a registry (the
        ``dift.*`` keys mirror ``DIFTEngine.publish_telemetry``)."""
        rep = self.finish()
        publish_taint_metrics(registry, self.stats, self.alerts, self.shadow)
        registry.counter("multicore.parallel.messages").inc(rep.messages)
        registry.counter("multicore.parallel.instructions").inc(rep.instructions)
        registry.counter("multicore.parallel.skipped").inc(rep.skipped)
        registry.counter("multicore.parallel.defs").inc(rep.defs)
        registry.counter("multicore.parallel.batches").inc(rep.batches)
        registry.counter("multicore.parallel.bytes_shipped").inc(rep.bytes_shipped)
        registry.counter("multicore.parallel.ring_stalls").inc(rep.ring_stalls)
        registry.gauge("multicore.parallel.batch_size").set(self.batch_size)
        registry.gauge("multicore.parallel.worker_utilization").set(
            rep.worker_utilization
        )
        if rep.summaries is not None:
            for key, value in rep.summaries.items():
                registry.counter(f"dift.summaries.{key}").inc(value)


__all__ = [
    "DEFAULT_PARALLEL_BATCH",
    "K_ALLOC",
    "K_GENERIC",
    "K_IN",
    "K_LOAD",
    "K_SINK",
    "K_SKIP",
    "K_SPAWN",
    "K_STORE",
    "RECORD",
    "RECORD_SIZE",
    "ParallelHelperDIFT",
    "ParallelReport",
    "parallel_batch_size",
]
