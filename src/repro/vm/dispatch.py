"""Precompiled instruction dispatch — the VM's interpreter for the hot
opcodes.

Like a DBT translating each basic block once, this module compiles
each :class:`~repro.isa.instructions.Instruction` once, at machine
construction, into a closure with its operands, cost, fall-through pc
and branch target already bound.  ``Machine._step`` dispatches
``table[thread.pc](thread)``; nothing decodes an opcode per step.

The 31 hot opcodes — the ALU (16 three-register ops, ADDI, MULI,
NOT, NEG, MOV, LI), LOAD/STORE/PUSH/POP, JMP/BR/BRZ, NOP and ASSERT —
run only here.  The 15 cold opcodes touch the heap, the call stack,
I/O or the scheduler: their table entry is the bound
``Machine._execute`` itself, which handles nothing else.

Each closure performs the instruction's state transitions in a fixed
order: intervention transforms, occurrence counting, cycle accrual,
telemetry op counts and then the event point.  The reference they are
held to is the spec table in ``tests/vm_oracle.py``, which the
differential suite runs against this module.

Host implementation of the event point: on a machine an analysis has
instrumented (:meth:`~repro.vm.machine.Machine.instrument`) the
translation binds that analysis's stub for the pc into the closure,
and the event point calls ``stub(tid, seq, addr)`` with the one
dynamic fact the pc's :func:`access_shape` leaves open, the memory
address.  Then, as on every machine, it builds the exact
``InstrEvent`` tuples the subscribed hooks observe if there are any.
A machine nobody instrumented tests only its hook list there.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..isa.instructions import OP_TABLE, SP, Instruction, Opcode
from .errors import ProgramFailure
from .events import InstrEvent

if TYPE_CHECKING:
    from .machine import Machine

StepFn = Callable[..., bool]


def _shl(a: int, b: int) -> int:
    if not 0 <= b <= 64:
        raise ProgramFailure("bad_shift", f"shift by {b}")
    return a << b


def _shr(a: int, b: int) -> int:
    if not 0 <= b <= 64:
        raise ProgramFailure("bad_shift", f"shift by {b}")
    return a >> b


#: binary ALU semantics, except DIV and MOD (see :func:`_alu_fn`).
_ALU = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: _shl,
    Opcode.SHR: _shr,
    Opcode.SEQ: lambda a, b: 1 if a == b else 0,
    Opcode.SNE: lambda a, b: 1 if a != b else 0,
    Opcode.SLT: lambda a, b: 1 if a < b else 0,
    Opcode.SLE: lambda a, b: 1 if a <= b else 0,
    Opcode.SGT: lambda a, b: 1 if a > b else 0,
    Opcode.SGE: lambda a, b: 1 if a >= b else 0,
}

_UNARY = {
    Opcode.NOT: lambda a: 1 if a == 0 else 0,
    Opcode.NEG: lambda a: -a,
    Opcode.MOV: lambda a: a,
}


def _alu_fn(op: Opcode, pc: int):
    """Binary ALU semantics of ``op``; DIV and MOD bind ``pc`` into
    their failure messages."""
    if op is Opcode.DIV:

        def div(a: int, b: int) -> int:
            if b == 0:
                raise ProgramFailure("div_zero", f"at pc={pc}")
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q

        return div
    if op is Opcode.MOD:

        def mod(a: int, b: int) -> int:
            if b == 0:
                raise ProgramFailure("div_zero", f"mod at pc={pc}")
            q = abs(a) // abs(b)
            q = q if (a >= 0) == (b >= 0) else -q
            return a - q * b

        return mod
    return _ALU[op]


def _operand_shape(op: Opcode) -> tuple:
    spec = OP_TABLE[op]
    implicit_sp = (SP,) if op is Opcode.PUSH or op is Opcode.POP else ()
    return (
        spec.use_positions, spec.def_positions, implicit_sp,
        spec.reads_memory, spec.writes_memory,
    )


#: the closure form of each hot opcode (the cold ones have none), looked
#: up once per pc: comparing against ``Opcode`` members one by one costs
#: ~0.2 us each on CPython 3.11, and instrumenting recompiles every pc.
_FORM = {
    **dict.fromkeys(_ALU, "alu"),
    Opcode.DIV: "alu",
    Opcode.MOD: "alu",
    Opcode.ADDI: "ri",
    Opcode.MULI: "ri",
    **dict.fromkeys(_UNARY, "unary"),
    Opcode.LI: "li",
    Opcode.LOAD: "load",
    Opcode.STORE: "store",
    Opcode.PUSH: "push",
    Opcode.POP: "pop",
    Opcode.JMP: "jmp",
    Opcode.BR: "br",
    Opcode.BRZ: "br",
    Opcode.NOP: "nop",
    Opcode.ASSERT: "assert",
}

#: per opcode: operand positions read and written, implicit registers
#: (``sp`` for PUSH/POP, read and written), memory read, memory write.
_OPERAND_SHAPES = {op: _operand_shape(op) for op in Opcode}


def access_shape(instr: Instruction) -> tuple[tuple[int, ...], tuple[int, ...], bool, bool]:
    """The static shape of what executing ``instr`` publishes: the
    registers it reads (deduplicated, in first-read order), the
    registers it writes (deduplicated), and whether it reads or writes
    memory (at most one cell, whose address the step passes to a stub).

    These are exactly the register and memory sides of the
    ``InstrEvent`` the step builds, values aside; PUSH and POP also read
    and write ``sp``.  An instrumented analysis specializes each pc's
    stub on this shape instead of walking events.
    """
    uses, defs, implicit, mem_read, mem_write = _OPERAND_SHAPES[instr.opcode]
    operand = instr.operands.__getitem__
    reads = dict.fromkeys((*map(operand, uses), *implicit))
    writes = dict.fromkeys((*map(operand, defs), *implicit))
    return tuple(reads), tuple(writes), mem_read, mem_write


def compile_program(m: "Machine") -> list[StepFn]:
    """One step closure per static instruction, with ``m._stubs[pc]``
    bound in when the machine is instrumented; the cold opcodes get the
    bound ``m._execute``."""
    return [_compile_instr(m, pc, instr) for pc, instr in enumerate(m.program.code)]


def _compile_instr(m: "Machine", pc: int, instr: Instruction) -> StepFn:
    op = instr.opcode
    ops = instr.operands
    opi = int(op)
    cost = m._cost_table[opi]
    cycles = m.cycles  # mutated in place, never reassigned
    hooks = m.hooks.hooks  # the live subscriber list (same object forever)
    stub = m._stubs[pc] if m._stubs is not None else None
    # The event point's gate: a plain machine tests only its hook list,
    # an instrumented one always calls its stub.
    observed = hooks if stub is None else True
    tel = m._tel
    op_counts = m._op_counts if tel else None
    next_pc = pc + 1
    form = _FORM.get(op)

    # --- three-register ALU --------------------------------------------
    if form == "alu":
        fn = _alu_fn(op, pc)
        d, s1, s2 = ops

        def step_alu(thread, _fn=fn):
            regs = thread.regs
            a = regs[s1]
            b = regs[s2]
            r = _fn(a, b)
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
                r = iv.transform_def(instr, occ, r)
            regs[d] = r
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if observed:
                if stub is not None:
                    stub(thread.tid, m.seq, 0)
                if tel:
                    m._events_published += 1
                if hooks:
                    ev = InstrEvent(m.seq, thread.tid, pc, instr, ((s1, a), (s2, b)), ((d, r),))
                    for h in hooks:
                        h.on_instruction(ev)
            m.seq += 1
            return True

        return step_alu

    # --- reg/imm ALU and moves ------------------------------------------
    if form == "ri":
        d, s, imm = ops
        add = op is Opcode.ADDI

        def step_ri(thread):
            regs = thread.regs
            a = regs[s]
            r = a + imm if add else a * imm
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
                r = iv.transform_def(instr, occ, r)
            regs[d] = r
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if observed:
                if stub is not None:
                    stub(thread.tid, m.seq, 0)
                if tel:
                    m._events_published += 1
                if hooks:
                    ev = InstrEvent(m.seq, thread.tid, pc, instr, ((s, a),), ((d, r),))
                    for h in hooks:
                        h.on_instruction(ev)
            m.seq += 1
            return True

        return step_ri

    if form == "unary":
        fn = _UNARY[op]
        d, s = ops

        def step_un(thread, _fn=fn):
            regs = thread.regs
            a = regs[s]
            r = _fn(a)
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
                r = iv.transform_def(instr, occ, r)
            regs[d] = r
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if observed:
                if stub is not None:
                    stub(thread.tid, m.seq, 0)
                if tel:
                    m._events_published += 1
                if hooks:
                    ev = InstrEvent(m.seq, thread.tid, pc, instr, ((s, a),), ((d, r),))
                    for h in hooks:
                        h.on_instruction(ev)
            m.seq += 1
            return True

        return step_un

    if form == "li":
        d, imm = ops

        def step_li(thread):
            r = imm
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
                r = iv.transform_def(instr, occ, r)
            thread.regs[d] = r
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if observed:
                if stub is not None:
                    stub(thread.tid, m.seq, 0)
                if tel:
                    m._events_published += 1
                if hooks:
                    ev = InstrEvent(m.seq, thread.tid, pc, instr, (), ((d, r),))
                    for h in hooks:
                        h.on_instruction(ev)
            m.seq += 1
            return True

        return step_li

    # --- memory -----------------------------------------------------------
    if form == "load":
        d, s, off = ops

        def step_load(thread):
            regs = thread.regs
            base = regs[s]
            addr = base + off
            value = m.memory.load(addr)
            r = value
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
                r = iv.transform_def(instr, occ, r)
            regs[d] = r
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if observed:
                if stub is not None:
                    stub(thread.tid, m.seq, addr)
                if tel:
                    m._events_published += 1
                if hooks:
                    ev = InstrEvent(
                        m.seq, thread.tid, pc, instr,
                        ((s, base),), ((d, r),), ((addr, value),), (),
                    )
                    for h in hooks:
                        h.on_instruction(ev)
            m.seq += 1
            return True

        return step_load

    if form == "store":
        src, base_reg, off = ops

        def step_store(thread):
            regs = thread.regs
            value = regs[src]
            base = regs[base_reg]
            addr = base + off
            m.memory.store(addr, value)
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if observed:
                if stub is not None:
                    stub(thread.tid, m.seq, addr)
                if tel:
                    m._events_published += 1
                if hooks:
                    ev = InstrEvent(
                        m.seq, thread.tid, pc, instr,
                        ((src, value), (base_reg, base)), (), (), ((addr, value),),
                    )
                    for h in hooks:
                        h.on_instruction(ev)
            m.seq += 1
            return True

        return step_store

    if form == "push":
        (src,) = ops

        def step_push(thread):
            regs = thread.regs
            value = regs[src]
            sp = regs[SP] - 1
            regs[SP] = sp
            m.memory.store(sp, value)
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if observed:
                if stub is not None:
                    stub(thread.tid, m.seq, sp)
                if tel:
                    m._events_published += 1
                if hooks:
                    ev = InstrEvent(
                        m.seq, thread.tid, pc, instr,
                        ((src, value), (SP, sp + 1)), ((SP, sp),), (), ((sp, value),),
                    )
                    for h in hooks:
                        h.on_instruction(ev)
            m.seq += 1
            return True

        return step_push

    if form == "pop":
        (d,) = ops

        def step_pop(thread):
            regs = thread.regs
            sp = regs[SP]
            value = m.memory.load(sp)
            regs[SP] = sp + 1
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
                value = iv.transform_def(instr, occ, value)
            regs[d] = value
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if observed:
                if stub is not None:
                    stub(thread.tid, m.seq, sp)
                if tel:
                    m._events_published += 1
                if hooks:
                    ev = InstrEvent(
                        m.seq, thread.tid, pc, instr,
                        ((SP, sp),), ((d, value), (SP, sp + 1)), ((sp, value),), (),
                    )
                    for h in hooks:
                        h.on_instruction(ev)
            m.seq += 1
            return True

        return step_pop

    # --- control -----------------------------------------------------------
    if form == "jmp":
        target = ops[0]

        def step_jmp(thread):
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
            thread.pc = target
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if observed:
                if stub is not None:
                    stub(thread.tid, m.seq, 0)
                if tel:
                    m._events_published += 1
                if hooks:
                    ev = InstrEvent(m.seq, thread.tid, pc, instr)
                    for h in hooks:
                        h.on_instruction(ev)
            m.seq += 1
            return True

        return step_jmp

    if form == "br":
        src, target = ops
        on_nonzero = op is Opcode.BR

        def step_br(thread):
            cond = thread.regs[src]
            natural = (cond != 0) if on_nonzero else (cond == 0)
            taken = natural
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
                taken = iv.branch_outcome(instr, occ, natural)
            thread.pc = target if taken else next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if observed:
                if stub is not None:
                    stub(thread.tid, m.seq, 0)
                if tel:
                    m._events_published += 1
                if hooks:
                    ev = InstrEvent(
                        m.seq, thread.tid, pc, instr, ((src, cond),), (), (), (), taken
                    )
                    for h in hooks:
                        h.on_instruction(ev)
            m.seq += 1
            return True

        return step_br

    if form == "nop":

        def step_nop(thread):
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if observed:
                if stub is not None:
                    stub(thread.tid, m.seq, 0)
                if tel:
                    m._events_published += 1
                if hooks:
                    ev = InstrEvent(m.seq, thread.tid, pc, instr)
                    for h in hooks:
                        h.on_instruction(ev)
            m.seq += 1
            return True

        return step_nop

    if form == "assert":
        (src,) = ops

        def step_assert(thread):
            value = thread.regs[src]
            if value == 0:
                raise ProgramFailure("assert", f"assertion failed at pc={pc}")
            iv = m.intervention
            if iv is not None:
                occ = m._occurrences.get(pc, 0)
            thread.pc = next_pc
            thread.instructions += 1
            cycles.base += cost
            if tel:
                op_counts[opi] += 1
            if iv is not None:
                m._occurrences[pc] = occ + 1
            if observed:
                if stub is not None:
                    stub(thread.tid, m.seq, 0)
                if tel:
                    m._events_published += 1
                if hooks:
                    ev = InstrEvent(m.seq, thread.tid, pc, instr, ((src, value),))
                    for h in hooks:
                        h.on_instruction(ev)
            m.seq += 1
            return True

        return step_assert

    # Everything touching the heap, scheduler, call stack or I/O is cold.
    return m._execute
