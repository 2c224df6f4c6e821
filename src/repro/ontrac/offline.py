"""The two-phase offline baseline ONTRAC replaces (§2.1, citing [18,19]).

Phase 1 runs the instrumented program and streams a full address +
control-flow trace "to a file" (modeled at 16 bytes per executed
instruction with file-I/O cycle costs).  Phase 2 post-processes the
collected trace into the compact dynamic dependence graph — the step
the paper measured at up to an hour for seconds of execution, i.e. the
~540x overall slowdown that motivated ONTRAC.

The post-processing here performs the real dependence computation and
appends its rows — one INSTR row per trace entry, then the entry's
REG/MEM/CONTROL edges — into a :class:`~repro.ontrac.packed.PackedTraceBuffer`
whose capacity never evicts; the result is the same
:class:`~repro.ontrac.packed.PackedDDG` every slicing client reads.  The
cycle charges model the paper's cost regime so E1 can report the
19x-vs-540x shape.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ..isa.instructions import Opcode
from ..isa.program import Program
from ..vm.events import Hook, InstrEvent
from ..vm.machine import Machine
from .control_dep import ControlDependenceTracker
from .packed import PackedDDG, PackedTraceBuffer
from .records import KIND_CODES, DepKind


@dataclass
class OfflineConfig:
    stub_cycles: int = 25  # DBT dispatch + stubs during collection
    bytes_per_instruction: int = 16  # raw address+control trace entry
    io_cycles_per_byte: int = 6  # streaming the trace to a file
    postprocess_cycles_per_instruction: int = 800  # graph build + compaction


_INSTR, _REG, _MEM, _CONTROL = (
    KIND_CODES[k] for k in (DepKind.INSTR, DepKind.REG, DepKind.MEM, DepKind.CONTROL)
)

# One raw trace entry per executed instruction, kept as a plain tuple
# (collection runs inline with the guest; a constructor call per
# instruction would dominate the modeled "write to file" phase):
# (seq, pc, tid, reg_reads, reg_writes, mem_reads, mem_writes,
#  parent_seq, parent_pc, spawn_child)  — spawn_child is -1 for
# non-spawn instructions.
_RawEntry = tuple


@dataclass
class OfflineStats:
    instructions: int = 0
    trace_bytes: int = 0
    collection_cycles: int = 0
    postprocess_cycles: int = 0

    @property
    def total_overhead_cycles(self) -> int:
        return self.collection_cycles + self.postprocess_cycles


class OfflineTracer(Hook):
    """Collects the raw trace during execution; ``postprocess()`` builds
    the full (unbounded) DDG afterwards."""

    def __init__(self, program: Program, config: OfflineConfig | None = None):
        self.program = program
        self.config = config or OfflineConfig()
        self.entries: list[_RawEntry] = []
        self.stats = OfflineStats()
        self._control = ControlDependenceTracker(program)
        self.machine: Machine | None = None

    def attach(self, machine: Machine) -> "OfflineTracer":
        self.machine = machine
        machine.hooks.subscribe(self)
        return self

    def on_instruction(self, ev: InstrEvent) -> None:
        cfg = self.config
        parent = self._control.observe(ev)
        is_spawn = ev.instr.opcode is Opcode.SPAWN
        self.entries.append(
            (
                ev.seq,
                ev.pc,
                ev.tid,
                ev.reg_reads,
                ev.reg_writes,
                ev.mem_reads,
                ev.mem_writes,
                parent.branch_seq if parent else -1,
                parent.branch_pc if parent else -1,
                ev.reg_writes[0][1] if is_spawn else -1,
            )
        )
        stats = self.stats
        stats.instructions += 1
        stats.trace_bytes += cfg.bytes_per_instruction
        cycles = cfg.stub_cycles + cfg.bytes_per_instruction * cfg.io_cycles_per_byte
        stats.collection_cycles += cycles
        if self.machine is not None:
            self.machine.add_overhead(cycles)

    def postprocess(self) -> PackedDDG:
        """Phase 2: turn the raw trace into the full DDG.

        Charges ``postprocess_cycles_per_instruction`` per trace entry
        to :attr:`stats` (not to the machine — the program is no longer
        running; E1 adds collection and post-processing cycles together
        the way the paper's end-to-end numbers do).
        """
        last_reg: dict[tuple[int, int], tuple[int, int]] = {}
        last_mem: dict[int, tuple[int, int]] = {}
        reg_get = last_reg.get
        mem_get = last_mem.get
        # (kind code, consumer seq, consumer pc, producer seq, producer
        # pc, tid) rows, already in consumer-seq order.
        rows: list[tuple[int, int, int, int, int, int]] = []
        add_row = rows.append
        for seq, pc, tid, reg_reads, reg_writes, mem_reads, mem_writes, parent_seq, parent_pc, spawn_child in self.entries:
            add_row((_INSTR, seq, pc, -1, -1, tid))
            seen: set[int] = set()
            for reg, _ in reg_reads:
                if reg in seen:
                    continue
                seen.add(reg)
                producer = reg_get((tid, reg))
                if producer is not None:
                    add_row((_REG, seq, pc, producer[0], producer[1], tid))
            for addr, _ in mem_reads:
                producer = mem_get(addr)
                if producer is not None:
                    add_row((_MEM, seq, pc, producer[0], producer[1], tid))
            if parent_seq >= 0:
                add_row((_CONTROL, seq, pc, parent_seq, parent_pc, tid))
            node = (seq, pc)
            for reg, _ in reg_writes:
                last_reg[(tid, reg)] = node
            for addr, _ in mem_writes:
                last_mem[addr] = node
            if spawn_child >= 0:
                last_reg[(spawn_child, 0)] = node
        self.stats.postprocess_cycles = (
            len(self.entries) * self.config.postprocess_cycles_per_instruction
        )
        buf = PackedTraceBuffer(capacity_bytes=sys.maxsize)
        if rows:
            buf.extend_rows(*zip(*rows))
        return PackedDDG(buf)
