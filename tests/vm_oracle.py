"""Reference semantics for the VM's 31 hot opcodes (test side only): ``SPEC`` maps each
to a pure function of ``(operands, pc, regs, load)`` returning an ``Effect``, and
:func:`install_oracle` swaps a machine's compiled steps (:mod:`repro.vm.dispatch`) for it."""

from collections import namedtuple
from functools import partial

from repro.isa.instructions import SP, Opcode
from repro.vm.errors import ProgramFailure
from repro.vm.events import InstrEvent

#: ``value`` defines operands[0] (None: nothing); ``target`` is the jump target (JMP
#: always, BR/BRZ when ``taken``); ``sp`` the SP writes; the rest are InstrEvent tuples.
Effect = namedtuple("Effect", "value target taken reads sp mreads mwrites",
                    defaults=(None, None, None, (), (), (), ()))


def _trap(ok, kind, message):
    if not ok:
        raise ProgramFailure(kind, message)


def _tdiv(a, b):  # C division truncates toward zero; // floors
    return -(-a // b) if (a < 0) != (b < 0) else a // b


def _rd(r, *regs):
    return tuple((k, r[k]) for k in regs)


ALU = {
    Opcode.ADD: lambda a, b, pc: a + b, Opcode.SUB: lambda a, b, pc: a - b,
    Opcode.MUL: lambda a, b, pc: a * b, Opcode.AND: lambda a, b, pc: a & b,
    Opcode.OR: lambda a, b, pc: a | b, Opcode.XOR: lambda a, b, pc: a ^ b,
    Opcode.DIV: lambda a, b, pc: _trap(b, "div_zero", f"at pc={pc}") or _tdiv(a, b),
    Opcode.MOD: lambda a, b, pc: _trap(b, "div_zero", f"mod at pc={pc}") or a - _tdiv(a, b) * b,
    Opcode.SHL: lambda a, b, pc: _trap(0 <= b <= 64, "bad_shift", f"shift by {b}") or a << b,
    Opcode.SHR: lambda a, b, pc: _trap(0 <= b <= 64, "bad_shift", f"shift by {b}") or a >> b,
    Opcode.SEQ: lambda a, b, pc: int(a == b), Opcode.SNE: lambda a, b, pc: int(a != b),
    Opcode.SLT: lambda a, b, pc: int(a < b), Opcode.SLE: lambda a, b, pc: int(a <= b),
    Opcode.SGT: lambda a, b, pc: int(a > b), Opcode.SGE: lambda a, b, pc: int(a >= b),
}
SPEC = {
    **{op: lambda o, pc, r, ld, f=f: Effect(f(r[o[1]], r[o[2]], pc), reads=_rd(r, o[1], o[2]))
       for op, f in ALU.items()},
    Opcode.ADDI: lambda o, pc, r, ld: Effect(r[o[1]] + o[2], reads=_rd(r, o[1])),
    Opcode.MULI: lambda o, pc, r, ld: Effect(r[o[1]] * o[2], reads=_rd(r, o[1])),
    Opcode.NOT: lambda o, pc, r, ld: Effect(int(r[o[1]] == 0), reads=_rd(r, o[1])),
    Opcode.NEG: lambda o, pc, r, ld: Effect(-r[o[1]], reads=_rd(r, o[1])),
    Opcode.MOV: lambda o, pc, r, ld: Effect(r[o[1]], reads=_rd(r, o[1])),
    Opcode.LI: lambda o, pc, r, ld: Effect(o[1]),
    Opcode.LOAD: lambda o, pc, r, ld: Effect(
        ld(r[o[1]] + o[2]), reads=_rd(r, o[1]), mreads=((r[o[1]] + o[2], ld(r[o[1]] + o[2])),)),
    Opcode.STORE: lambda o, pc, r, ld: Effect(
        reads=_rd(r, o[0], o[1]), mwrites=((r[o[1]] + o[2], r[o[0]]),)),
    Opcode.PUSH: lambda o, pc, r, ld: Effect(
        reads=_rd(r, o[0], SP), sp=((SP, r[SP] - 1),), mwrites=((r[SP] - 1, r[o[0]]),)),
    Opcode.POP: lambda o, pc, r, ld: Effect(
        ld(r[SP]), reads=_rd(r, SP), sp=((SP, r[SP] + 1),), mreads=((r[SP], ld(r[SP])),)),
    Opcode.JMP: lambda o, pc, r, ld: Effect(target=o[0]),
    Opcode.BR: lambda o, pc, r, ld: Effect(target=o[1], taken=r[o[0]] != 0, reads=_rd(r, o[0])),
    Opcode.BRZ: lambda o, pc, r, ld: Effect(target=o[1], taken=r[o[0]] == 0, reads=_rd(r, o[0])),
    Opcode.NOP: lambda o, pc, r, ld: Effect(),
    Opcode.ASSERT: lambda o, pc, r, ld: _trap(
        r[o[0]] != 0, "assert", f"assertion failed at pc={pc}") or Effect(reads=_rd(r, o[0])),
}


def _oracle_step(m, pc, instr, ops, op, thread):
    value, target, taken, reads, sp, mreads, mwrites = SPEC[op](ops, pc, thread.regs, m.memory.load)
    if (iv := m.intervention) is not None:
        occ = m._occurrences.get(pc, 0)
        value = value if value is None else iv.transform_def(instr, occ, value)
        taken = taken if taken is None else iv.branch_outcome(instr, occ, taken)
        m._occurrences[pc] = occ + 1
        if op is Opcode.POP:  # POP's event reports the rewritten value as the one read
            mreads = ((mreads[0][0], value),)
    writes = sp if value is None else ((ops[0], value),) + sp
    for reg, v in reversed(writes):  # POP moves SP before it defines its register
        thread.regs[reg] = v
    m.memory.cells.update(mwrites)
    thread.pc = target if target is not None and (taken is None or taken) else pc + 1
    thread.instructions += 1
    m.cycles.base += m._cost_table[op]
    if m._tel:
        m._op_counts[op] += 1
        m._events_published += bool(m.hooks.hooks)
    if m.hooks.hooks:
        ev = InstrEvent(m.seq, thread.tid, pc, instr, reads, writes, mreads, mwrites, taken)
        for h in m.hooks.hooks:
            h.on_instruction(ev)
    m.seq += 1
    return True


def install_oracle(m):
    """Swap every hot pc's compiled step in ``m`` for a ``SPEC``-driven one."""
    for pc, instr in enumerate(m.program.code):
        if instr.opcode in SPEC:
            m._dispatch[pc] = partial(_oracle_step, m, pc, instr, instr.operands, instr.opcode)
    return m
