"""ONTRAC: the online dependence tracer (§2.1).

Computes dynamic dependences *during* execution and stores them in a
fixed-size circular buffer, eliminating the offline post-processing
step of the earlier two-phase pipeline (see
:mod:`repro.ontrac.offline` for that baseline).

Optimizations, exactly the paper's list:

Generic
  1. **Intra-block static inference** — a register dependence whose
     producer executed in the same dynamic basic-block instance is
     fully determined by the static code; store nothing.
  2. **Trace (super-block) inference** — the same across basic blocks
     on frequently executed paths: once a block transition has run
     ``hot_trace_threshold`` times, the blocks fuse into one inference
     region (a one-time 16-byte trace registration is charged).
  3. **Redundant-load elision** — a load at the same pc from the same
     address with the same producing store repeats the previously
     stored dependence; skip it.

Targeted (debugging-specific)
  4. **Selective tracing** — only dependences of user-specified
     functions are stored, but dataflow through *unspecified* code is
     still summarized (each location remembers the set of traced
     ancestors feeding it) so dependence chains through traced code are
     never broken — the paper's point that naively uninstrumenting
     other functions is unsound.
  5. **Forward-slice-of-input filtering** — only dependences whose
     consumer is (transitively) input-derived are stored, because root
     causes usually sit in the forward slice of the inputs [1].

Overhead model: every observed instruction costs ``stub_cycles``
(DBT dispatch + inline stubs) plus ``cycles_per_byte`` for each stored
byte, charged to the machine's overhead counter.

Host implementation: like the paper's DBT, the tracer is translated
into the code it traces.  :meth:`OnlineTracer.attach` instruments the
machine (:meth:`~repro.vm.machine.Machine.instrument`): each static
instruction gets a stub with that pc's static facts and operand shape
bound in, and the VM's step for the pc calls it with the thread, the
sequence number and the memory address; the tracer receives no
``InstrEvent``.  Stubs stage rows that are
sealed into the packed store a chunk at a time (see
:meth:`OnlineTracer._translator` and :meth:`OnlineTracer._seal`).  The
class-level :meth:`OnlineTracer.on_instruction` is the event-driven
reference the stubs are tested against.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import count

from ..isa.cfg import build_cfgs
from ..isa.instructions import Opcode
from ..isa.program import Program
from ..vm.dispatch import access_shape
from ..vm.events import Hook, InstrEvent
from ..vm.machine import Machine
from .control_dep import ControlDependenceTracker
from .packed import _MAX_CHUNK_ROWS, PackedDDG, PackedTraceBuffer
from .records import (
    KIND_BY_CODE,
    KIND_CODES,
    RECORD_BYTES,
    TRACE_FORMATION_BYTES,
    DepKind,
)

#: cap on how many traced ancestors an untraced-code summary carries.
SUMMARY_FANIN_CAP = 16

#: staged rows that trigger a seal into the buffer: one full chunk.
SEAL_ROWS = _MAX_CHUNK_ROWS
#: ints per staged row: code, cseq, cpc, pseq, ppc, tid.
_ROW = 6

# Kind codes and modeled bytes the stubs stage rows with.
_C_INSTR = KIND_CODES[DepKind.INSTR]
_C_REG = KIND_CODES[DepKind.REG]
_C_IREG = KIND_CODES[DepKind.IREG]
_C_MEM = KIND_CODES[DepKind.MEM]
_C_IMEM = KIND_CODES[DepKind.IMEM]
_C_SUMMARY = KIND_CODES[DepKind.SUMMARY]
_C_CONTROL = KIND_CODES[DepKind.CONTROL]
_C_BRANCH = KIND_CODES[DepKind.BRANCH]
_C_WAR = KIND_CODES[DepKind.WAR]
_C_WAW = KIND_CODES[DepKind.WAW]
_B_INSTR = RECORD_BYTES[DepKind.INSTR]
_B_BRANCH = RECORD_BYTES[DepKind.BRANCH]
_B_REG = RECORD_BYTES[DepKind.REG]
_B_MEM = RECORD_BYTES[DepKind.MEM]
_B_SUMMARY = RECORD_BYTES[DepKind.SUMMARY]
_B_WAR = RECORD_BYTES[DepKind.WAR]
_B_WAW = RECORD_BYTES[DepKind.WAW]

# Opcode facts the translation reads once per pc, from tables and module
# constants: loading an ``Opcode`` member costs ~0.2 us on CPython 3.11.
#: the call-depth step of each opcode: +1 for calls, -1 for returns.
_DEPTH_STEP = {op: 0 for op in Opcode} | {Opcode.CALL: 1, Opcode.ICALL: 1, Opcode.RET: -1}
#: conditional branches, which open control-dependence regions.
_BRANCHES = frozenset({Opcode.BR, Opcode.BRZ})
_SPAWN = Opcode.SPAWN
_IN = Opcode.IN


@dataclass
class OntracConfig:
    """Tracer configuration; see the module docstring for semantics."""

    buffer_bytes: int = 16 * 1024 * 1024
    naive: bool = False  # store per-instruction records, disable all opts
    infer_intra_block: bool = True
    infer_traces: bool = True
    hot_trace_threshold: int = 50
    elide_redundant_loads: bool = True
    selective_functions: frozenset[str] | None = None
    input_forward_slice: bool = False
    record_control: bool = True
    record_war_waw: bool = False
    charge_overhead: bool = True
    stub_cycles: int = 25
    cycles_per_byte: int = 3
    #: spill sink (trace lake): when set, sealed packed chunks are
    #: appended to this file as the run executes so the full stream
    #: survives the process (even a SIGKILLed one — the readable
    #: prefix recovers).  The hot emit path is unchanged (spilling
    #: happens only when a chunk seals).  Seal with
    #: :meth:`OnlineTracer.finish_spill` (the runner does this
    #: automatically after a traced run).
    spill_path: str | None = None

    @classmethod
    def unoptimized(cls, **overrides) -> "OntracConfig":
        """The paper's 16 B/instruction baseline."""
        cfg = cls(
            naive=True,
            infer_intra_block=False,
            infer_traces=False,
            elide_redundant_loads=False,
            input_forward_slice=False,
        )
        for key, value in overrides.items():
            setattr(cfg, key, value)
        return cfg

    @classmethod
    def generic_optimizations(cls, **overrides) -> "OntracConfig":
        cfg = cls()
        for key, value in overrides.items():
            setattr(cfg, key, value)
        return cfg


@dataclass
class OntracStats:
    instructions: int = 0
    stored: dict[str, int] = field(default_factory=dict)
    stored_bytes: int = 0
    skipped: dict[str, int] = field(default_factory=dict)
    hot_traces: int = 0

    def _bump(self, table: dict[str, int], key: str) -> None:
        table[key] = table.get(key, 0) + 1

    @property
    def bytes_per_instruction(self) -> float:
        return self.stored_bytes / self.instructions if self.instructions else 0.0


# A producer is either a concrete dynamic instruction
# ("n", seq, pc, block_instance, tid) or a summary of traced ancestors
# flowing through untraced code ("s", frozenset({(seq, pc), ...})).
_NODE = "n"
_SUMMARY = "s"


def _summarize(tid: int, regs, addrs, last_reg: dict, last_mem: dict) -> tuple:
    """Last-writer entry of an untraced instruction reading registers
    ``regs`` and memory cells ``addrs``: the traced ancestors of every
    input it reads, so chains are not broken."""
    ancestors: set[tuple[int, int]] = set()
    for reg in regs:
        producer = last_reg.get((tid, reg))
        if producer is None:
            continue
        if producer[0] == _NODE:
            ancestors.add((producer[1], producer[2]))
        else:
            ancestors.update(producer[1])
    for addr in addrs:
        producer = last_mem.get(addr)
        if producer is None:
            continue
        if producer[0] == _NODE:
            ancestors.add((producer[1], producer[2]))
        else:
            ancestors.update(producer[1])
    if len(ancestors) > SUMMARY_FANIN_CAP:
        ancestors = set(sorted(ancestors)[-SUMMARY_FANIN_CAP:])
    return (_SUMMARY, frozenset(ancestors))


class OnlineTracer(Hook):
    """ONTRAC attached to one machine run."""

    def __init__(self, program: Program, config: OntracConfig | None = None):
        self.program = program
        self.config = config or OntracConfig()
        self._stats = OntracStats()
        self.machine: Machine | None = None
        if self.config.spill_path:
            # Local import: repro.lake sits above ontrac in the
            # layering and is only needed when spilling is on.
            from ..lake.format import SpillingPackedTraceBuffer

            self._buffer: PackedTraceBuffer = SpillingPackedTraceBuffer(
                self.config.buffer_bytes, self.config.spill_path
            )
        else:
            self._buffer = PackedTraceBuffer(self.config.buffer_bytes)
        #: rows the stubs staged since the last seal, flat: ``_ROW``
        #: ints per row (see :meth:`_seal`).
        self._staged: list[int] = []
        # Static structure: block leaders per global pc.
        self._leaders: set[int] = set()
        for cfg in build_cfgs(program).values():
            for block in cfg.blocks:
                self._leaders.add(block.start)
        self._control = ControlDependenceTracker(program) if self.config.record_control else None
        # Dynamic state.
        self._last_reg: dict[tuple[int, int], tuple] = {}
        self._last_mem: dict[int, tuple] = {}
        self._block_instance: dict[int, int] = {}
        self._instances = count(1)
        self._prev_call_ret: dict[int, bool] = {}
        self._prev_leader: dict[int, int] = {}
        self._transition_counts: dict[tuple[int, int], int] = {}
        self._hot_transitions: set[tuple[int, int]] = set()
        self._redundant_load: dict[int, tuple[int, int]] = {}
        self._derived_reg: set[tuple[int, int]] = set()
        self._derived_mem: set[int] = set()
        self._last_readers: dict[int, list[tuple[int, int, int]]] = {}
        # The stubs' open-region stacks and call depths per thread (the
        # reference hook keeps its own in ``self._control``).
        self._regions: defaultdict[int, list[tuple[int, int, int, int]]] = defaultdict(list)
        self._depths: dict[int, int] = {}

    # -- lifecycle -----------------------------------------------------------
    def attach(self, machine: Machine) -> "OnlineTracer":
        """Translate the tracer into ``machine``'s steps: each executed
        instruction calls its pc's stub, and no event reaches the tracer."""
        self.machine = machine
        machine.instrument(self._translator())
        return self

    def finish_spill(self) -> str | None:
        """Seal the spill file (tail chunk + footer index) if this
        tracer is spilling; no-op otherwise.  Idempotent; returns the
        spill path when spilling."""
        buffer = self.buffer
        close = getattr(buffer, "close", None)
        if close is not None and getattr(buffer, "spill_path", None):
            return close()
        return None

    def dependence_graph(self) -> PackedDDG:
        """DDG over the records currently in the buffer: an O(1)
        :class:`PackedDDG` view whose queries run straight off the
        columns (and which materializes the dict graph lazily)."""
        return PackedDDG(self.buffer)

    # -- staged rows -----------------------------------------------------------
    @property
    def buffer(self) -> PackedTraceBuffer:
        """The dependence store, with every staged row sealed into it."""
        self._seal()
        return self._buffer

    @property
    def stats(self) -> OntracStats:
        """Tracer statistics, with the staged rows' kinds counted in."""
        self._seal()
        return self._stats

    def _seal(self) -> None:
        """Write the staged rows into the buffer with one bulk
        :meth:`~PackedTraceBuffer.extend_rows` and count their kinds.

        The stubs call this once a chunk's worth of rows is staged;
        :meth:`dependence_graph`, :meth:`finish_spill` and the
        :attr:`buffer` / :attr:`stats` accessors call it too, so no
        reader sees a partial store.  ``extend_rows`` is exact, which
        makes the store's state independent of when sealing happens.
        """
        staged = self._staged
        if not staged:
            return
        kinds = bytes(staged[0::_ROW])
        self._buffer.extend_rows(
            kinds, staged[1::_ROW], staged[2::_ROW], staged[3::_ROW],
            staged[4::_ROW], staged[5::_ROW],
        )
        staged.clear()
        stats = self._stats
        stored = stats.stored
        for code in sorted(set(kinds), key=kinds.find):  # first-seen order
            key = KIND_BY_CODE[code].value
            stored[key] = stored.get(key, 0) + kinds.count(code)
        skipped = stats.skipped
        # IREG rows are the statically inferred register dependences and
        # IMEM rows the elided redundant loads.  The stub that forms the
        # first hot trace seals before it, so one attribution holds for
        # every row staged since the last seal.
        inferred = kinds.count(_C_IREG)
        if inferred:
            key = (
                "static_trace"
                if self.config.infer_traces and self._hot_transitions
                else "static_block"
            )
            skipped[key] = skipped.get(key, 0) + inferred
        elided = kinds.count(_C_IMEM)
        if elided:
            skipped["redundant_load"] = skipped.get("redundant_load", 0) + elided

    def _emit_packed(
        self,
        kind: DepKind,
        consumer_seq: int,
        consumer_pc: int,
        producer_seq: int = -1,
        producer_pc: int = -1,
        tid: int = 0,
    ) -> int:
        """Append one columnar row (the buffer does the byte/eviction
        accounting) and count it in the tracer's per-kind stats; the
        class-level :meth:`on_instruction` emits through this."""
        b = self._buffer.append_row(
            KIND_CODES[kind], consumer_seq, consumer_pc, producer_seq, producer_pc, tid
        )
        stats = self._stats
        stored = stats.stored
        key = kind.value
        stored[key] = stored.get(key, 0) + 1
        stats.stored_bytes += b
        return b

    # -- per-pc tracing stubs ----------------------------------------------------
    def _translator(self):
        """The translation step :meth:`attach` hands to
        :meth:`Machine.instrument <repro.vm.machine.Machine.instrument>`:
        ``translate(pc)`` returns static instruction ``pc``'s stub, which
        the machine's step for that pc calls as ``stub(tid, seq, addr)``.

        The class-level :meth:`on_instruction` stays the reference the
        stubs are held to (the differential suite checks records, stats,
        buffer stats and graphs bit for bit).  Stubs read the config
        flags and the machine when they are translated; the reference
        re-reads them every event.
        """
        cfg = self.config
        code = self.program.code
        leaders = self._leaders
        control = self._control is not None
        ipdoms = self._control.ipdom_pc if control else None
        ipdom_targets = set(ipdoms.values()) if control else set()
        naive = cfg.naive
        sel = cfg.selective_functions
        infer_intra = not naive and cfg.infer_intra_block
        elide_loads = not naive and cfg.elide_redundant_loads
        infer_traces = cfg.infer_traces
        threshold = cfg.hot_trace_threshold
        input_forward_slice = cfg.input_forward_slice
        record_war_waw = cfg.record_war_waw
        machine = self.machine
        cycles = machine.cycles if cfg.charge_overhead and machine is not None else None
        stub_cycles = cfg.stub_cycles
        cycles_per_byte = cfg.cycles_per_byte
        stats = self._stats
        skipped = stats.skipped
        staged = self._staged
        stage = staged.extend
        seal_len = SEAL_ROWS * _ROW
        seal = self._seal
        instances = self._instances
        block_instance = self._block_instance
        prev_call_ret = self._prev_call_ret
        prev_leader = self._prev_leader
        transition_counts = self._transition_counts
        hot_transitions = self._hot_transitions
        regions = self._regions
        depths = self._depths
        last_reg = self._last_reg
        last_mem = self._last_mem
        last_readers = self._last_readers
        derived_reg = self._derived_reg
        derived_mem = self._derived_mem

        def translate(pc):
            """The stub of static instruction ``pc``.

            Everything static about the pc is decided here and bound
            into the stub: its :func:`~repro.vm.dispatch.access_shape`
            (registers read and written, whether ``addr`` is a memory
            cell it reads or writes), whether it leads a block or is a
            call/ret, the branch's immediate post-dominator, whether its
            function is traced, whether it is a LOAD/POP eligible for
            redundant-load elision, SPAWN (whose ``addr`` is the child
            tid).  The stub walks the control-dependence regions inline
            (regions are ``(branch_seq, branch_pc, ipdom_pc, depth)``
            tuples, the fields of
            :class:`~repro.ontrac.control_dep.Region`) and stages its
            rows as ``code, cseq, cpc, pseq, ppc, tid`` runs; modeled
            bytes are summed once per instruction.
            """
            instr = code[pc]
            op = instr.opcode
            reads, writes, mem_read, mem_write = access_shape(instr)
            leader = pc in leaders
            depth_step = _DEPTH_STEP[op]
            callret = depth_step != 0
            traced = sel is None or instr.function in sel
            elide = elide_loads and mem_read  # LOAD and POP
            spawn = op == _SPAWN
            filter_input = input_forward_slice and op != _IN
            branch = control and op in _BRANCHES
            ipdom = ipdoms.get(pc, -1) if branch else -1
            walk_always = branch or (control and callret)
            # A region closes at its branch's ipdom or when its invocation
            # returns, and returns close theirs at once (below), so at any
            # other pc the innermost open region is the control parent.
            walk = walk_always or pc in ipdom_targets
            naive_row = naive and traced
            branch_row = branch and traced
            node_bytes = (_B_INSTR if naive_row else 0) + (_B_BRANCH if branch_row else 0)
            defines = bool(writes) or mem_write
            war_read = record_war_waw and mem_read
            war_write = record_war_waw and mem_write
            # this pc's redundant-load cache: the last (address, producer seq).
            load_addr = load_pseq = None

            def stub(tid, seq, addr):
                nonlocal load_addr, load_pseq
                stats.instructions += 1
                b = node_bytes

                # --- dynamic block (inference region) instance ---------------
                if prev_call_ret.get(tid, True):
                    # After call/ret (or thread start): always a new region,
                    # the callee may have clobbered registers.
                    prev_call_ret[tid] = callret
                    instance = block_instance[tid] = next(instances)
                    if leader:
                        prev_leader[tid] = pc
                elif leader:
                    if callret:
                        prev_call_ret[tid] = True
                    fused = False
                    if infer_traces:
                        prev = prev_leader.get(tid, -1)
                        if prev >= 0:
                            key = (prev, pc)
                            times = transition_counts.get(key, 0) + 1
                            transition_counts[key] = times
                            if key in hot_transitions:
                                fused = True
                            elif times >= threshold:
                                if not hot_transitions:
                                    seal()  # IREG attribution turns to traces
                                hot_transitions.add(key)
                                stats.hot_traces += 1
                                b += TRACE_FORMATION_BYTES
                                fused = True
                    if fused:
                        instance = block_instance.get(tid, 0)
                    else:
                        instance = block_instance[tid] = next(instances)
                    prev_leader[tid] = pc
                else:
                    if callret:
                        prev_call_ret[tid] = True
                    instance = block_instance.get(tid, 0)

                # --- control dependence: the open-region walk ----------------
                parent = None
                if control:
                    stack = regions[tid]
                    if not walk:
                        if stack:
                            parent = stack[-1]
                    elif stack or walk_always:
                        depth = depths.get(tid, 0)
                        while stack:
                            top = stack[-1]
                            top_depth = top[3]
                            if top_depth > depth or (top_depth == depth and top[2] == pc):
                                stack.pop()
                            else:
                                parent = top
                                break
                        if branch:
                            # A re-executed loop branch replaces its own stale
                            # region, so the stack stays bounded.
                            if parent is not None and parent[1] == pc and parent[3] == depth:
                                stack.pop()
                            stack.append((seq, pc, ipdom, depth))
                        elif depth_step:
                            depth += depth_step
                            depths[tid] = depth
                            while stack and stack[-1][3] > depth:  # a return's
                                stack.pop()

                # --- input-derived flag --------------------------------------
                derived = True
                if filter_input:
                    derived = False
                    for reg in reads:
                        if (tid, reg) in derived_reg:
                            derived = True
                            break
                    else:
                        if mem_read and addr in derived_mem:
                            derived = True
                store = traced and derived
                if traced and not derived:
                    skipped["input_filter"] = skipped.get("input_filter", 0) + 1

                if naive_row:
                    stage((_C_INSTR, seq, pc, -1, -1, tid))

                # --- register dependences ------------------------------------
                if store:
                    for reg in reads:
                        producer = last_reg.get((tid, reg))
                        if producer is None:
                            continue
                        if producer[0] == _SUMMARY:
                            for pseq, ppc in producer[1]:
                                stage((_C_SUMMARY, seq, pc, pseq, ppc, tid))
                                b += _B_SUMMARY
                            continue
                        _, pseq, ppc, pinstance, ptid = producer
                        if infer_intra and ptid == tid and pinstance == instance:
                            stage((_C_IREG, seq, pc, pseq, ppc, tid))
                        else:
                            stage((_C_REG, seq, pc, pseq, ppc, tid))
                            b += _B_REG

                # --- memory dependence ---------------------------------------
                if mem_read:
                    producer = last_mem.get(addr)
                    if war_read:
                        readers = last_readers.setdefault(addr, [])
                        if len(readers) < 8:
                            readers.append((seq, pc, tid))
                    if producer is not None and store:
                        if producer[0] == _SUMMARY:
                            for pseq, ppc in producer[1]:
                                stage((_C_SUMMARY, seq, pc, pseq, ppc, tid))
                                b += _B_SUMMARY
                        else:
                            pseq = producer[1]
                            if elide and addr == load_addr and pseq == load_pseq:
                                stage((_C_IMEM, seq, pc, pseq, producer[2], tid))
                            else:
                                if elide:
                                    load_addr = addr
                                    load_pseq = pseq
                                stage((_C_MEM, seq, pc, pseq, producer[2], tid))
                                b += _B_MEM

                # --- control dependence rows ---------------------------------
                if parent is not None and store:
                    stage((_C_CONTROL, seq, pc, parent[0], parent[1], tid))
                if branch_row:
                    stage((_C_BRANCH, seq, pc, -1, -1, tid))

                # --- WAR/WAW (multithreaded slicing extension) ---------------
                if war_write:
                    prev_writer = last_mem.get(addr)
                    if prev_writer is not None and prev_writer[0] == _NODE:
                        if prev_writer[4] != tid:
                            stage((_C_WAW, seq, pc, prev_writer[1], prev_writer[2], tid))
                            b += _B_WAW
                    for rseq, rpc, rtid in last_readers.pop(addr, ()):
                        if rtid != tid:
                            stage((_C_WAR, seq, pc, rseq, rpc, tid))
                            b += _B_WAR

                # --- last-writer metadata ------------------------------------
                if defines:
                    if traced:
                        entry = (_NODE, seq, pc, instance, tid)
                    else:
                        entry = _summarize(
                            tid, reads, (addr,) if mem_read else (), last_reg, last_mem
                        )
                    for reg in writes:
                        last_reg[(tid, reg)] = entry
                        if input_forward_slice:
                            if derived:
                                derived_reg.add((tid, reg))
                            else:
                                derived_reg.discard((tid, reg))
                    if mem_write:
                        last_mem[addr] = entry
                        if input_forward_slice:
                            if derived:
                                derived_mem.add(addr)
                            else:
                                derived_mem.discard(addr)
                    if spawn:
                        # The child's r0 is defined by the spawn's argument flow.
                        last_reg[(addr, 0)] = entry
                        if input_forward_slice and derived:
                            derived_reg.add((addr, 0))

                if b:
                    stats.stored_bytes += b
                if cycles is not None:
                    cycles.overhead += stub_cycles + b * cycles_per_byte
                if len(staged) >= seal_len:
                    seal()

            return stub

        return translate

    def _bump_instance(self, tid: int) -> None:
        self._block_instance[tid] = next(self._instances)

    def _maintain_blocks(self, ev: InstrEvent) -> int:
        """Track dynamic basic-block (or hot-trace) instances; returns the
        extra bytes charged for newly formed traces."""
        tid = ev.tid
        extra = 0
        if self._prev_call_ret.get(tid, True):
            # Entering code after call/ret (or thread start): always a new
            # inference region — the callee may have clobbered registers.
            self._bump_instance(tid)
            if ev.pc in self._leaders:
                self._prev_leader[tid] = ev.pc
        elif ev.pc in self._leaders:
            fused = False
            if self.config.infer_traces:
                prev = self._prev_leader.get(tid, -1)
                if prev >= 0:
                    key = (prev, ev.pc)
                    count = self._transition_counts.get(key, 0) + 1
                    self._transition_counts[key] = count
                    if key in self._hot_transitions:
                        fused = True
                    elif count >= self.config.hot_trace_threshold:
                        self._hot_transitions.add(key)
                        self._stats.hot_traces += 1
                        extra = TRACE_FORMATION_BYTES
                        self._stats.stored_bytes += extra
                        fused = True
            if not fused:
                self._bump_instance(tid)
            self._prev_leader[tid] = ev.pc
        op = ev.instr.opcode
        self._prev_call_ret[tid] = (
            op is Opcode.CALL or op is Opcode.ICALL or op is Opcode.RET
        )
        return extra

    # -- the hook --------------------------------------------------------------
    def on_instruction(self, ev: InstrEvent) -> None:
        cfg = self.config
        stats = self._stats
        stats.instructions += 1
        tid = ev.tid
        seq = ev.seq
        pc = ev.pc
        instr = ev.instr
        op = instr.opcode
        _emit = self._emit_packed

        bytes_stored = self._maintain_blocks(ev)
        instance = self._block_instance.get(tid, 0)

        parent = self._control.observe(ev) if self._control is not None else None

        sel = cfg.selective_functions
        traced = sel is None or instr.function in sel

        # --- input-derived flag of this instruction -------------------------
        if cfg.input_forward_slice:
            derived = op is Opcode.IN
            if not derived:
                for reg, _ in ev.reg_reads:
                    if (tid, reg) in self._derived_reg:
                        derived = True
                        break
            if not derived:
                for addr, _ in ev.mem_reads:
                    if addr in self._derived_mem:
                        derived = True
                        break
        else:
            derived = True

        store_deps = traced and derived
        if traced and not derived:
            stats._bump(stats.skipped, "input_filter")

        # --- per-instruction record (naive mode only) ------------------------
        if cfg.naive and traced:
            bytes_stored += _emit(DepKind.INSTR, seq, pc, -1, -1, tid)

        # --- register dependences ---------------------------------------------
        reg_reads = ev.reg_reads
        if reg_reads:
            last_reg_get = self._last_reg.get
            seen_regs: set[int] = set()
            for reg, _ in reg_reads:
                if reg in seen_regs:
                    continue
                seen_regs.add(reg)
                producer = last_reg_get((tid, reg))
                if producer is None:
                    continue
                if not store_deps:
                    continue
                if producer[0] == _SUMMARY:
                    for pseq, ppc in producer[1]:
                        bytes_stored += _emit(DepKind.SUMMARY, seq, pc, pseq, ppc, tid)
                    continue
                _, pseq, ppc, pinstance, ptid = producer
                if (
                    not cfg.naive
                    and cfg.infer_intra_block
                    and ptid == tid
                    and pinstance == instance
                ):
                    key = "static_block" if not self._was_fused(instance) else "static_trace"
                    skipped = stats.skipped
                    skipped[key] = skipped.get(key, 0) + 1
                    # The edge is recoverable from the binary at query time:
                    # keep it in the buffer at zero modeled cost.
                    bytes_stored += _emit(DepKind.IREG, seq, pc, pseq, ppc, tid)
                    continue
                bytes_stored += _emit(DepKind.REG, seq, pc, pseq, ppc, tid)

        # --- memory dependences --------------------------------------------------
        mem_reads = ev.mem_reads
        if mem_reads:
            record_war_waw = cfg.record_war_waw
            for addr, _ in mem_reads:
                producer = self._last_mem.get(addr)
                if record_war_waw:
                    readers = self._last_readers.setdefault(addr, [])
                    if len(readers) < 8:
                        readers.append((seq, pc, tid))
                if producer is None or not store_deps:
                    continue
                if producer[0] == _SUMMARY:
                    for pseq, ppc in producer[1]:
                        bytes_stored += _emit(DepKind.SUMMARY, seq, pc, pseq, ppc, tid)
                    continue
                _, pseq, ppc, _, ptid = producer
                if (
                    not cfg.naive
                    and cfg.elide_redundant_loads
                    and (op is Opcode.LOAD or op is Opcode.POP)
                ):
                    cached = self._redundant_load.get(pc)
                    if cached == (addr, pseq):
                        skipped = stats.skipped
                        skipped["redundant_load"] = skipped.get("redundant_load", 0) + 1
                        # Recoverable from the previously stored identical
                        # dependence: keep the edge at zero modeled cost.
                        bytes_stored += _emit(DepKind.IMEM, seq, pc, pseq, ppc, tid)
                        continue
                    self._redundant_load[pc] = (addr, pseq)
                bytes_stored += _emit(DepKind.MEM, seq, pc, pseq, ppc, tid)

        # --- control dependence ------------------------------------------------
        if parent is not None and store_deps:
            bytes_stored += _emit(
                DepKind.CONTROL, seq, pc, parent.branch_seq, parent.branch_pc, tid
            )
        if (op is Opcode.BR or op is Opcode.BRZ) and self._control is not None and traced:
            bytes_stored += _emit(DepKind.BRANCH, seq, pc, -1, -1, tid)

        # --- WAR/WAW (multithreaded slicing extension) ----------------------------
        if cfg.record_war_waw and ev.mem_writes:
            for addr, _ in ev.mem_writes:
                prev_writer = self._last_mem.get(addr)
                if prev_writer is not None and prev_writer[0] == _NODE:
                    _, pseq, ppc, _, ptid = prev_writer
                    if ptid != tid:
                        bytes_stored += _emit(DepKind.WAW, seq, pc, pseq, ppc, tid)
                for rseq, rpc, rtid in self._last_readers.pop(addr, []):
                    if rtid != tid:
                        bytes_stored += _emit(DepKind.WAR, seq, pc, rseq, rpc, tid)

        # --- update last-writer metadata --------------------------------------------
        if traced:
            entry = (_NODE, seq, pc, instance, tid)
        else:
            entry = _summarize(
                tid, [reg for reg, _ in ev.reg_reads], [addr for addr, _ in ev.mem_reads],
                self._last_reg, self._last_mem,
            )

        for reg, _ in ev.reg_writes:
            self._last_reg[(tid, reg)] = entry
            if cfg.input_forward_slice:
                if derived:
                    self._derived_reg.add((tid, reg))
                else:
                    self._derived_reg.discard((tid, reg))
        for addr, _ in ev.mem_writes:
            self._last_mem[addr] = entry
            if cfg.input_forward_slice:
                if derived:
                    self._derived_mem.add(addr)
                else:
                    self._derived_mem.discard(addr)

        if op is Opcode.SPAWN:
            # The child's r0 is defined by the spawn's argument flow.
            child = ev.reg_writes[0][1]
            self._last_reg[(child, 0)] = entry
            if cfg.input_forward_slice and derived:
                self._derived_reg.add((child, 0))

        # --- overhead accounting --------------------------------------------------
        if cfg.charge_overhead and self.machine is not None:
            self.machine.add_overhead(cfg.stub_cycles + bytes_stored * cfg.cycles_per_byte)

    def publish_telemetry(self, registry) -> None:
        """Dump tracer stats (the paper's B/instr figures) into a
        :class:`~repro.telemetry.MetricsRegistry`; call after the run."""
        stats = self.stats
        registry.counter("ontrac.instructions").inc(stats.instructions)
        registry.counter("ontrac.stored_bytes").inc(stats.stored_bytes)
        registry.counter("ontrac.hot_traces").inc(stats.hot_traces)
        for kind, count in sorted(stats.stored.items()):
            registry.counter(f"ontrac.records.stored.{kind}").inc(count)
        for reason, count in sorted(stats.skipped.items()):
            registry.counter(f"ontrac.records.elided.{reason}").inc(count)
        registry.gauge("ontrac.bytes_per_instruction").set(stats.bytes_per_instruction)
        buf = self.buffer
        registry.gauge("ontrac.buffer.capacity_bytes").set(buf.capacity_bytes)
        registry.gauge("ontrac.buffer.peak_bytes").set_max(buf.stats.peak_bytes)
        registry.gauge("ontrac.buffer.window_instructions").set(buf.window_instructions())
        registry.counter("ontrac.buffer.evicted_records").inc(buf.stats.evicted)
        # Deterministic column-payload figure (allocated chunk bytes),
        # NOT process residency — tracemalloc-measured residency lives
        # in benchmarks/bench_slicing.py where determinism is not
        # required for golden comparisons.
        registry.gauge("ontrac.store.resident_bytes").set(buf.resident_bytes())
        registry.gauge("ontrac.store.chunks").set(buf.chunk_count)

    def _was_fused(self, instance: int) -> bool:
        """Attribution only: whether this inference region spans a trace.

        We do not track fusion per instance (it would cost memory for a
        stat); attribute to traces whenever trace inference is on and at
        least one hot trace exists.
        """
        return self.config.infer_traces and bool(self._hot_transitions)
