"""The mini-ISA interpreter (the "processor" under the DBT layer).

Design constraints, in priority order:

1. **Determinism** — two runs with equal programs, inputs and scheduler
   state are bit-identical, including lock-grant order.  Every replay,
   slicing and fault-avoidance technique in this repo leans on that.
2. **Observability** — with hooks subscribed, every executed instruction
   publishes an :class:`repro.vm.events.InstrEvent` with resolved
   register/memory reads and writes.  An analysis that instruments the
   machine (:meth:`Machine.instrument`) gets a call to its pc's stub
   instead, at the same point and with no event object.  With neither,
   no event objects are built (the "native run" baseline).
3. **Interventions** — predicate switching and value replacement
   (§3.1) perturb execution through a :class:`Intervention` object that
   can flip branch outcomes and rewrite defined values at chosen dynamic
   occurrences, without the tools touching interpreter internals.

Execution: the machine compiles its program once into a per-pc step
table (:mod:`repro.vm.dispatch`), and every opcode runs only as its
generated step; the machine itself decodes nothing.

Cycle accounting: guest instructions accrue ``cycles.base`` via the
cost model; tools add ``cycles.overhead`` through :meth:`Machine.add_overhead`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from ..isa.instructions import Instruction, Opcode
from ..isa.program import Program
from ..telemetry import NULL_TELEMETRY, Telemetry
from .cost import OPCODE_CLASSES, CostModel, CycleCounters
from .dispatch import compile_program
from .errors import FailureInfo, ProgramFailure, VMError
from .events import HookBus
from .io import IOSystem
from .memory import Memory
from .scheduler import RoundRobinScheduler, Scheduler
from .sync import Barrier, Mutex
from .threads import ThreadContext, ThreadStatus


class RunStatus(enum.Enum):
    HALTED = "halted"  # guest executed HALT
    EXITED = "exited"  # every thread returned from its entry function
    FAILED = "failed"  # ProgramFailure (assert, div-zero, attack, ...)
    LIMIT = "limit"  # instruction budget exhausted
    DEADLOCK = "deadlock"  # all live threads blocked


class Intervention:
    """Execution-perturbation interface (predicate switching / value
    replacement).  The default implementation perturbs nothing."""

    def branch_outcome(self, instr: Instruction, occurrence: int, default: bool) -> bool:
        """Return the outcome the branch should take (default = natural)."""
        return default

    def transform_def(self, instr: Instruction, occurrence: int, value: int) -> int:
        """Rewrite the value about to be written to the destination register."""
        return value


@dataclass
class RunResult:
    status: RunStatus
    instructions: int
    cycles: CycleCounters
    failure: FailureInfo | None = None
    #: executed schedule as (tid, instruction count) segments.
    schedule: list[tuple[int, int]] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.status is RunStatus.FAILED


class Machine:
    """One guest machine: program + memory + threads + I/O + hooks."""

    def __init__(
        self,
        program: Program,
        scheduler: Scheduler | None = None,
        cost_model: CostModel | None = None,
        args: tuple[int, ...] = (),
        telemetry: Telemetry | None = None,
    ):
        # ``link`` validated the program; a linked program never changes.
        self.program = program
        self.scheduler = scheduler or RoundRobinScheduler()
        self.cost_model = cost_model or CostModel()
        self._cost_table = self.cost_model.table()
        self.telemetry = telemetry or NULL_TELEMETRY
        # One bool, checked like `hooks.active`: the no-op path costs a
        # single attribute load and never touches the cycle model.
        self._tel = self.telemetry.enabled
        if self._tel:
            self.telemetry.tracer.bind_clock(lambda: self.cycles.total)
            self._op_counts = [0] * len(self._cost_table)
            self._events_published = 0
            self._blocked_attempts = 0
        self.memory = Memory()
        self.io = IOSystem()
        self.hooks = HookBus()
        self.intervention: Intervention | None = None
        self.cycles = CycleCounters()
        self.seq = 0  # dynamic instruction counter (monotone, global)
        self.halted = False
        self.failure: FailureInfo | None = None
        self.schedule_trace: list[tuple[int, int]] = []
        self.mutexes: dict[int, Mutex] = {}
        self.barriers: dict[int, Barrier] = {}
        self._joiners: dict[int, list[int]] = {}  # target tid -> waiting tids
        self._occurrences: dict[int, int] = {}  # instr index -> executions
        #: the instrumenting analysis's per-pc stubs (see instrument).
        self._stubs: list[Callable[[int, int, int], None]] | None = None
        entry = program.entry_function
        self.threads: list[ThreadContext] = [ThreadContext.create(0, entry.entry, tuple(args))]
        # One generated step per static instruction (repro.vm.dispatch).
        self._dispatch = compile_program(self)

    # -- tool API -------------------------------------------------------
    def instrument(self, translate: Callable[[int], Callable[[int, int, int], None]]) -> None:
        """Translate an analysis into the machine's step table.

        ``translate(pc)`` returns the analysis's stub for static
        instruction ``pc``, specialized on what the pc fixes
        (:func:`~repro.vm.dispatch.access_shape` gives its register and
        memory sides).  Every completed execution of ``pc`` then calls
        ``stub(tid, seq, addr)`` where it would publish its
        ``InstrEvent``, before the event is built for any hook: ``addr``
        is the memory cell a LOAD, STORE, PUSH or POP touches, the child
        tid for SPAWN and 0 otherwise.  The analysis receives no
        events.  One analysis per machine, instrumented before it runs.
        """
        if self._stubs is not None:
            raise VMError("machine is already instrumented")
        self._stubs = [translate(pc) for pc in range(len(self.program.code))]
        self._dispatch = compile_program(self)

    def add_overhead(self, cycles: int) -> None:
        """Charge tool overhead cycles (instrumentation, tracing, logging)."""
        self.cycles.overhead += cycles

    def mutex(self, lock_id: int) -> Mutex:
        m = self.mutexes.get(lock_id)
        if m is None:
            m = self.mutexes[lock_id] = Mutex(lock_id)
        return m

    def occurrence_of(self, instr_index: int) -> int:
        """How many times instruction ``instr_index`` has executed."""
        return self._occurrences.get(instr_index, 0)

    # -- execution -------------------------------------------------------
    def run(self, max_instructions: int = 10_000_000) -> RunResult:
        """Run until halt/exit/failure/deadlock or the instruction budget."""
        pick = self.scheduler.pick
        threads = self.threads
        status: RunStatus | None = None
        current: int | None = None
        tel = self._tel
        tracer = self.telemetry.tracer
        run_span = tracer.span("vm.run", cat="vm") if tel else None
        while status is None:
            if self.halted:
                status = RunStatus.HALTED
                break
            runnable = [t.tid for t in threads if t.status is ThreadStatus.READY]
            if not runnable:
                if all(t.done for t in threads):
                    status = RunStatus.EXITED
                else:
                    status = RunStatus.DEADLOCK
                break
            tid, quantum = pick(runnable, current)
            current = tid
            thread = threads[tid]
            executed = 0
            seg_start_seq = self.seq
            seg_span = tracer.span(f"t{tid} segment", cat="schedule", tid=tid) if tel else None
            while executed < quantum:
                if not thread.runnable or self.halted:
                    break
                if not self._step(thread):
                    if tel:
                        self._blocked_attempts += 1
                    break  # blocked without progress
                executed += 1
                if self.failure is not None:
                    break
                if self.seq >= max_instructions:
                    break
            if seg_span is not None:
                seg_span.end(instructions=executed)
            if executed:
                self.schedule_trace.append((tid, executed))
                self.hooks.schedule(tid, seg_start_seq)
            if self.failure is not None:
                status = RunStatus.FAILED
            elif self.seq >= max_instructions and not self.halted:
                status = RunStatus.LIMIT
        # Let batching hooks flush before the counters are snapshotted.
        if self.hooks.active:
            self.hooks.run_end()
        result = RunResult(
            status=status,
            instructions=self.seq,
            cycles=self.cycles,
            failure=self.failure,
            schedule=list(self.schedule_trace),
        )
        if tel:
            if run_span is not None:
                run_span.end(instructions=self.seq, status=status.value)
            self._publish_telemetry(result)
        return result

    def _fail(self, thread: ThreadContext, exc: ProgramFailure) -> None:
        info = FailureInfo(
            kind=exc.kind, tid=thread.tid, pc=thread.pc, seq=self.seq, message=exc.message
        )
        self.failure = info
        if self._tel:
            self.telemetry.tracer.instant(
                f"failure: {info.kind}", cat="vm", tid=thread.tid, pc=info.pc, seq=info.seq
            )
        self.hooks.failure(info)

    def _step(self, thread: ThreadContext) -> bool:
        """Execute one instruction of ``thread``.

        Returns False when the thread blocked without completing the
        instruction (LOCK on a held mutex, JOIN on a live thread,
        BARWAIT before the barrier trips) — such attempts consume no
        sequence number and emit no event, so recorded schedules count
        only completed instructions.
        """
        try:
            return self._dispatch[thread.pc](thread)
        except ProgramFailure as exc:
            self._fail(thread, exc)
            return True

    def _publish_telemetry(self, result: RunResult) -> None:
        """Dump this run's VM metrics into the telemetry registry."""
        reg = self.telemetry.registry
        reg.counter("vm.instructions").inc(self.seq)
        class_totals: dict[str, int] = {}
        for op in Opcode:
            count = self._op_counts[int(op)]
            if count:
                cls = OPCODE_CLASSES[op]
                class_totals[cls] = class_totals.get(cls, 0) + count
        for cls, count in sorted(class_totals.items()):
            reg.counter(f"vm.instructions.{cls}").inc(count)
        reg.counter("vm.events.published").inc(self._events_published)
        reg.counter("vm.scheduler.segments").inc(len(self.schedule_trace))
        reg.counter("vm.scheduler.blocked_attempts").inc(self._blocked_attempts)
        reg.gauge("vm.threads.total").set(len(self.threads))
        reg.gauge("vm.cycles.base").set(self.cycles.base)
        reg.gauge("vm.cycles.overhead").set(self.cycles.overhead)
        reg.gauge("vm.cycles.total").set(self.cycles.total)
        hist = reg.histogram("vm.scheduler.segment_instructions")
        for _, executed in self.schedule_trace:
            hist.observe(executed)
        for t in self.threads:
            self.telemetry.tracer.name_thread(t.tid, f"guest thread {t.tid}")
