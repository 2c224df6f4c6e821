"""Instrumentation hook bus — the reproduction's stand-in for DBT.

Pin/valgrind-style frameworks let a tool observe every executed
instruction with resolved operand values.  Here the interpreter
publishes one :class:`InstrEvent` per executed guest instruction to
every subscribed :class:`Hook`, carrying the resolved register reads
and writes, memory reads and writes (with addresses), branch outcome,
and call targets — everything any of the paper's tools consume.

All consumers (ONTRAC tracer, DIFT policies, the event logger, the TM
monitor, the race detector) share this one bus, mirroring how the
paper's tools share one DBT substrate.  A hook may also *intervene*
(predicate switching, value replacement) through the machine's
``intervention`` object rather than through the bus, keeping observation
and perturbation separate.
"""

from __future__ import annotations

from ..isa.instructions import Instruction


class InstrEvent:
    """One executed instruction with resolved dataflow.

    ``reg_reads``/``reg_writes`` are tuples of ``(register, value)``;
    ``mem_reads``/``mem_writes`` are tuples of ``(address, value)``.
    ``seq`` is the global dynamic instruction number (monotone across
    threads), the timestamp every tool keys on.
    """

    __slots__ = (
        "seq",
        "tid",
        "pc",
        "instr",
        "reg_reads",
        "reg_writes",
        "mem_reads",
        "mem_writes",
        "taken",
        "callee",
        "alloc",
        "channel",
        "io_value",
        "input_index",
    )

    def __init__(
        self,
        seq: int,
        tid: int,
        pc: int,
        instr: Instruction,
        reg_reads: tuple = (),
        reg_writes: tuple = (),
        mem_reads: tuple = (),
        mem_writes: tuple = (),
        taken: bool | None = None,
        callee: int | None = None,
        alloc: tuple | None = None,
        channel: int | None = None,
        io_value: int | None = None,
        input_index: int = -1,
    ):
        self.seq = seq
        self.tid = tid
        self.pc = pc
        self.instr = instr
        self.reg_reads = reg_reads
        self.reg_writes = reg_writes
        self.mem_reads = mem_reads
        self.mem_writes = mem_writes
        self.taken = taken
        self.callee = callee
        self.alloc = alloc
        self.channel = channel
        self.io_value = io_value
        self.input_index = input_index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ev#{self.seq} t{self.tid} pc={self.pc} {self.instr.format()}>"


class Hook:
    """Base class for instrumentation consumers; override what you need.

    ``on_instruction`` is the firehose; the named callbacks fire for the
    corresponding guest operations *in addition to* the instruction
    event, so sparse consumers (the logger, the race detector) don't pay
    for full decoding.
    """

    def on_instruction(self, ev: InstrEvent) -> None: ...

    def on_thread_start(self, tid: int, fid: int, arg: int, parent: int) -> None: ...

    def on_thread_exit(self, tid: int, result: int) -> None: ...

    def on_join(self, tid: int, target: int, seq: int) -> None:
        """Thread ``tid`` completed a join on ``target``."""

    def on_schedule(self, tid: int, seq: int) -> None:
        """A context switch: thread ``tid`` starts running at ``seq``."""

    def on_lock(self, tid: int, lock_id: int, seq: int) -> None: ...

    def on_unlock(self, tid: int, lock_id: int, seq: int) -> None: ...

    def on_barrier(self, tid: int, barrier_id: int, seq: int) -> None:
        """Thread ``tid`` released from barrier ``barrier_id``."""

    def on_input(self, tid: int, channel: int, value: int, index: int, seq: int) -> None: ...

    def on_output(self, tid: int, channel: int, value: int, seq: int) -> None: ...

    def on_alloc(self, tid: int, base: int, size: int, seq: int) -> None: ...

    def on_free(self, tid: int, base: int, seq: int) -> None: ...

    def on_failure(self, info) -> None:
        """The guest failed; ``info`` is a FailureInfo."""

    def on_run_end(self) -> None:
        """The machine's run loop finished (any status), before the
        RunResult is built — batching hooks flush pending work here so
        the result's cycle counters are final."""


class HookBus:
    """Dispatches machine events to subscribed hooks.

    The machine checks :attr:`active` before building event objects, so
    un-instrumented runs (the paper's "native" baseline) pay nothing.
    """

    def __init__(self) -> None:
        self.hooks: list[Hook] = []

    def subscribe(self, hook: Hook) -> Hook:
        self.hooks.append(hook)
        return hook

    def unsubscribe(self, hook: Hook) -> None:
        self.hooks.remove(hook)

    @property
    def active(self) -> bool:
        return bool(self.hooks)

    # Dispatch helpers for the named callbacks.  Instruction events go
    # straight to each hook's on_instruction (repro.vm.dispatch).
    def thread_start(self, tid: int, fid: int, arg: int, parent: int) -> None:
        for h in self.hooks:
            h.on_thread_start(tid, fid, arg, parent)

    def thread_exit(self, tid: int, result: int) -> None:
        for h in self.hooks:
            h.on_thread_exit(tid, result)

    def join(self, tid: int, target: int, seq: int) -> None:
        for h in self.hooks:
            h.on_join(tid, target, seq)

    def schedule(self, tid: int, seq: int) -> None:
        for h in self.hooks:
            h.on_schedule(tid, seq)

    def lock(self, tid: int, lock_id: int, seq: int) -> None:
        for h in self.hooks:
            h.on_lock(tid, lock_id, seq)

    def unlock(self, tid: int, lock_id: int, seq: int) -> None:
        for h in self.hooks:
            h.on_unlock(tid, lock_id, seq)

    def barrier(self, tid: int, barrier_id: int, seq: int) -> None:
        for h in self.hooks:
            h.on_barrier(tid, barrier_id, seq)

    def input(self, tid: int, channel: int, value: int, index: int, seq: int) -> None:
        for h in self.hooks:
            h.on_input(tid, channel, value, index, seq)

    def output(self, tid: int, channel: int, value: int, seq: int) -> None:
        for h in self.hooks:
            h.on_output(tid, channel, value, seq)

    def alloc(self, tid: int, base: int, size: int, seq: int) -> None:
        for h in self.hooks:
            h.on_alloc(tid, base, size, seq)

    def free(self, tid: int, base: int, seq: int) -> None:
        for h in self.hooks:
            h.on_free(tid, base, seq)

    def failure(self, info) -> None:
        for h in self.hooks:
            h.on_failure(info)

    def run_end(self) -> None:
        for h in self.hooks:
            h.on_run_end()
