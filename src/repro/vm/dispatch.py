"""Precompiled instruction dispatch — the VM's interpreter.

Like a DBT translating each instruction once, this module compiles
each :class:`~repro.isa.instructions.Instruction` once, at machine
construction, into a step closure with its operands, cost,
fall-through pc and branch target already bound.  ``Machine._step``
dispatches ``table[thread.pc](thread)``; nothing decodes an opcode per
step.

Every opcode has a form, and the steps are generated from the forms'
templates.  ``_FORMS`` holds one source per form: its operands, the
step's signature, a body that reads the operands, performs the effect
and applies the intervention's rewrite, the next pc, the stub's address
operand and the event's fields.  The hot opcodes share twelve forms
(alu, ri, unary, li, load, store, push, pop, jmp, br, nop, assert); each
cold opcode, which touches the heap, the call stack, I/O or the
scheduler, has its own.  A cold body reads the intervention and the
pc's occurrence first, then performs the effect, rewrites the register
it defines and calls the hooks' named callback (``on_alloc``,
``on_input``, ...).  One shared epilogue, ``_EPILOGUE``, follows every
body and fixes the order in which a completed instruction is accounted:

1. ``thread.pc``, the thread's instruction count, ``cycles.base``;
2. telemetry's per-opcode count;
3. the intervention's occurrence count for the pc;
4. the event point: the instrumenting analysis's stub, telemetry's
   event count, then the ``InstrEvent`` for the subscribed hooks;
5. ``m.seq += 1``.

The event point, ``_EVENT_POINT``, is written once too: the epilogue
expands it, and so does ICALL's bad-target path, which publishes its
read and raises without completing.  JOIN, LOCK and BARWAIT return
False before the epilogue when they block, and RET at thread exit
leaves the thread at its pc.

Each form is compiled on first use, into a factory ``make_<form>`` that
a machine calls once per pc, so a process that builds no machine
compiles nothing.  Its source is registered in :mod:`linecache` as
``<repro.vm.dispatch:<form>>``, so tracebacks and
:func:`inspect.getsource` show the generated step.  The reference the
hot steps are held to is the spec table in ``tests/vm_oracle.py``,
which the differential suite runs against this module.

Host implementation of the event point: on a machine an analysis has
instrumented (:meth:`~repro.vm.machine.Machine.instrument`) the
translation binds that analysis's stub for the pc into the step, and
the event point calls ``stub(tid, seq, addr)`` with the one dynamic
fact the pc's :func:`access_shape` leaves open, the memory address (the
child tid for SPAWN).  Then, as on every machine, it builds the exact
``InstrEvent`` tuples the subscribed hooks observe if there are any.  A
machine nobody instrumented tests only its hook list there.
"""

from __future__ import annotations

import linecache
import re
import textwrap
from typing import TYPE_CHECKING, Callable, NamedTuple

from ..isa.instructions import OP_TABLE, SP, Instruction, Opcode
from .errors import ProgramFailure
from .events import InstrEvent
from .sync import Barrier
from .threads import Frame, ThreadContext, ThreadStatus

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


#: the form of each opcode, looked up once per pc: comparing against
#: ``Opcode`` members one by one costs ~0.2 us each on CPython 3.11,
#: and instrumenting recompiles every pc.
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
    # each cold opcode is its own form
    **{op: op.name.lower() for op in (
        Opcode.ALLOC, Opcode.FREE, Opcode.CALL, Opcode.ICALL, Opcode.RET, Opcode.HALT,
        Opcode.IN, Opcode.OUT, Opcode.SPAWN, Opcode.JOIN, Opcode.LOCK, Opcode.UNLOCK,
        Opcode.BARINIT, Opcode.BARWAIT, Opcode.FAIL,
    )},
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


class _Form(NamedTuple):
    """One form's source: everything its steps do before the shared
    epilogue, and the epilogue's per-form expressions."""

    step: str  # the generated step's name
    operands: str  # the factory's parameters after the shared ones
    params: str  # the step's parameters
    body: str  # operand reads, the effect, the intervention's rewrite
    next_pc: str  # the pc the thread continues at
    addr: str  # the stub's dynamic operand
    event: str  # the InstrEvent's fields after (seq, tid, pc, instr)
    #: ``(op, pc)`` -> the factory's last operand, a value the
    #: instruction's own operands do not give.
    extra: Callable[[Opcode, int], object] | None = None


#: what every cold body starts with: the intervention and the pc's
#: occurrence, read before the effect and the hooks' named callback.
_READ_OCCURRENCE = """\
iv = m.intervention
if iv is not None:
    occ = m._occurrences.get(pc, 0)
"""


def _cold(step: str, operands: str, body: str, next_pc: str = "next_pc", addr: str = "0",
          event: str = "") -> _Form:
    body = _READ_OCCURRENCE + textwrap.dedent(body).lstrip("\n")
    return _Form(step, operands, "thread", body, next_pc, addr, event)


_FORMS = {
    "alu": _Form("step_alu", "d, s1, s2, fn", "thread, _fn=fn", """
        regs = thread.regs
        a = regs[s1]
        b = regs[s2]
        r = _fn(a, b)
        iv = m.intervention
        if iv is not None:
            occ = m._occurrences.get(pc, 0)
            r = iv.transform_def(instr, occ, r)
        regs[d] = r
        """, "next_pc", "0", "((s1, a), (s2, b)), ((d, r),)", _alu_fn),
    "ri": _Form("step_ri", "d, s, imm, add", "thread", """
        regs = thread.regs
        a = regs[s]
        r = a + imm if add else a * imm
        iv = m.intervention
        if iv is not None:
            occ = m._occurrences.get(pc, 0)
            r = iv.transform_def(instr, occ, r)
        regs[d] = r
        """, "next_pc", "0", "((s, a),), ((d, r),)", lambda op, pc: op is Opcode.ADDI),
    "unary": _Form("step_un", "d, s, fn", "thread, _fn=fn", """
        regs = thread.regs
        a = regs[s]
        r = _fn(a)
        iv = m.intervention
        if iv is not None:
            occ = m._occurrences.get(pc, 0)
            r = iv.transform_def(instr, occ, r)
        regs[d] = r
        """, "next_pc", "0", "((s, a),), ((d, r),)", lambda op, pc: _UNARY[op]),
    "li": _Form("step_li", "d, imm", "thread", """
        r = imm
        iv = m.intervention
        if iv is not None:
            occ = m._occurrences.get(pc, 0)
            r = iv.transform_def(instr, occ, r)
        thread.regs[d] = r
        """, "next_pc", "0", "(), ((d, r),)"),
    "load": _Form("step_load", "d, s, off", "thread", """
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
        """, "next_pc", "addr", "((s, base),), ((d, r),), ((addr, value),), ()"),
    "store": _Form("step_store", "src, base_reg, off", "thread", """
        regs = thread.regs
        value = regs[src]
        base = regs[base_reg]
        addr = base + off
        m.memory.store(addr, value)
        iv = m.intervention
        if iv is not None:
            occ = m._occurrences.get(pc, 0)
        """, "next_pc", "addr", "((src, value), (base_reg, base)), (), (), ((addr, value),)"),
    "push": _Form("step_push", "src", "thread", """
        regs = thread.regs
        value = regs[src]
        sp = regs[SP] - 1
        regs[SP] = sp
        m.memory.store(sp, value)
        iv = m.intervention
        if iv is not None:
            occ = m._occurrences.get(pc, 0)
        """, "next_pc", "sp", "((src, value), (SP, sp + 1)), ((SP, sp),), (), ((sp, value),)"),
    "pop": _Form("step_pop", "d", "thread", """
        regs = thread.regs
        sp = regs[SP]
        value = m.memory.load(sp)
        regs[SP] = sp + 1
        iv = m.intervention
        if iv is not None:
            occ = m._occurrences.get(pc, 0)
            value = iv.transform_def(instr, occ, value)
        regs[d] = value
        """, "next_pc", "sp", "((SP, sp),), ((d, value), (SP, sp + 1)), ((sp, value),), ()"),
    "jmp": _Form("step_jmp", "target", "thread", """
        iv = m.intervention
        if iv is not None:
            occ = m._occurrences.get(pc, 0)
        """, "target", "0", ""),
    "br": _Form("step_br", "src, target, on_nonzero", "thread", """
        cond = thread.regs[src]
        natural = (cond != 0) if on_nonzero else (cond == 0)
        taken = natural
        iv = m.intervention
        if iv is not None:
            occ = m._occurrences.get(pc, 0)
            taken = iv.branch_outcome(instr, occ, natural)
        """, "target if taken else next_pc", "0", "((src, cond),), (), (), (), taken",
        lambda op, pc: op is Opcode.BR),
    "nop": _Form("step_nop", "", "thread", """
        iv = m.intervention
        if iv is not None:
            occ = m._occurrences.get(pc, 0)
        """, "next_pc", "0", ""),
    "assert": _Form("step_assert", "src", "thread", """
        value = thread.regs[src]
        if value == 0:
            raise ProgramFailure("assert", f"assertion failed at pc={pc}")
        iv = m.intervention
        if iv is not None:
            occ = m._occurrences.get(pc, 0)
        """, "next_pc", "0", "((src, value),)"),
    # The cold forms: each body starts with _READ_OCCURRENCE (see _cold).
    "alloc": _cold("step_alloc", "d, s", """
        size = thread.regs[s]
        base = m.memory.alloc(size)
        r = base if iv is None else iv.transform_def(instr, occ, base)
        thread.regs[d] = r
        m.hooks.alloc(thread.tid, base, size, m.seq)
        """, event="((s, size),), ((d, r),), alloc=(base, size)"),
    "free": _cold("step_free", "s", """
        base = thread.regs[s]
        m.memory.free(base)
        m.hooks.free(thread.tid, base, m.seq)
        """, event="((s, base),)"),
    "call": _cold("step_call", "f", """
        fn = m.program.function_by_id(f)
        thread.frames.append(Frame(pc + 1, fn.name))
        """, "fn.entry", event="callee=f"),
    "icall": _cold("step_icall", "s", """
        fid = thread.regs[s]
        fn = m.program.function_by_id(fid)
        if fn is None:
            # Publish the read first so DIFT policies can attribute the
            # wild target before the machine reports the crash.
            if observed:
                EVENT_POINT(0, ((s, fid),))
            raise ProgramFailure("bad_icall", f"indirect call to invalid target {fid}")
        thread.frames.append(Frame(pc + 1, fn.name))
        """, "fn.entry", event="((s, fid),), callee=fid"),
    "ret": _cold("step_ret", "", """
        if thread.frames:
            target = thread.frames.pop().return_pc
        else:
            thread.status = ThreadStatus.DONE
            thread.result = thread.regs[0]
            for waiter in m._joiners.pop(thread.tid, ()):
                m.threads[waiter].wake()
            m.hooks.thread_exit(thread.tid, thread.result)
            target = pc  # the thread is done: it stays at its RET
        """, "target"),
    "halt": _cold("step_halt", "", """
        m.halted = True
        """),
    "in": _cold("step_in", "d, ch", """
        value, index = m.io.read(ch, m.seq)
        r = value if iv is None else iv.transform_def(instr, occ, value)
        thread.regs[d] = r
        m.hooks.input(thread.tid, ch, value, index, m.seq)
        """, event="(), ((d, r),), channel=ch, io_value=value, input_index=index"),
    "out": _cold("step_out", "s, ch", """
        value = thread.regs[s]
        m.io.write(ch, value)
        m.hooks.output(thread.tid, ch, value, m.seq)
        """, event="((s, value),), channel=ch, io_value=value"),
    "spawn": _cold("step_spawn", "d, f, s", """
        arg = thread.regs[s]
        child = len(m.threads)
        m.threads.append(ThreadContext.create(child, m.program.function_by_id(f).entry, (arg,)))
        r = child if iv is None else iv.transform_def(instr, occ, child)
        thread.regs[d] = r
        m.hooks.thread_start(child, f, arg, thread.tid)
        """, addr="child", event="((s, arg),), ((d, r),), callee=f"),
    "join": _cold("step_join", "s", """
        target = thread.regs[s]
        if not 0 <= target < len(m.threads):
            raise ProgramFailure("bad_join", f"join of unknown thread {target}")
        if not m.threads[target].done:
            thread.block(f"join {target}")
            m._joiners.setdefault(target, []).append(thread.tid)
            return False
        m.hooks.join(thread.tid, target, m.seq)
        """, event="((s, target),)"),
    "lock": _cold("step_lock", "s", """
        lock_id = thread.regs[s]
        if not m.mutex(lock_id).try_acquire(thread.tid):
            thread.block(f"lock {lock_id}")
            return False
        m.hooks.lock(thread.tid, lock_id, m.seq)
        """, event="((s, lock_id),)"),
    "unlock": _cold("step_unlock", "s", """
        lock_id = thread.regs[s]
        woken = m.mutex(lock_id).release(thread.tid)
        if woken is not None:
            m.threads[woken].wake()
        m.hooks.unlock(thread.tid, lock_id, m.seq)
        """, event="((s, lock_id),)"),
    "barinit": _cold("step_barinit", "s1, s2", """
        bar_id = thread.regs[s1]
        parties = thread.regs[s2]
        if parties < 1:
            raise ProgramFailure("bad_barrier", f"barrier with {parties} parties")
        m.barriers[bar_id] = Barrier(bar_id, parties)
        """, event="((s1, bar_id), (s2, parties))"),
    "barwait": _cold("step_barwait", "s", """
        bar_id = thread.regs[s]
        bar = m.barriers.get(bar_id)
        if bar is None:
            raise ProgramFailure("bad_barrier", f"wait on uninitialized barrier {bar_id}")
        if thread.tid in bar.released:
            bar.released.discard(thread.tid)
        else:
            release = bar.arrive(thread.tid)
            if release is None:
                thread.block(f"barrier {bar_id}")
                return False
            bar.released.discard(thread.tid)
            for other in release:
                if other != thread.tid:
                    m.threads[other].wake()
        m.hooks.barrier(thread.tid, bar_id, m.seq)
        """, event="((s, bar_id),)"),
    "fail": _cold("step_fail", "code", """
        raise ProgramFailure("fail", f"explicit failure code {code}")
        """),
}

#: the event point, written once and expanded wherever a template says
#: ``EVENT_POINT(addr, fields)``: the instrumenting analysis's stub, then
#: telemetry's event count, then the InstrEvent for the subscribed hooks.
_EVENT_POINT = """\
if stub is not None:
    stub(thread.tid, m.seq, {addr})
if tel:
    m._events_published += 1
if hooks:
    ev = InstrEvent(m.seq, thread.tid, pc, instr{event})
    for h in hooks:
        h.on_instruction(ev)
"""
_EVENT_POINT_CALL = re.compile(r"^( *)EVENT_POINT\((\w+)(.*)\)\n", re.M)

#: what follows every form's body.
_EPILOGUE = """\
        thread.pc = {next_pc}
        thread.instructions += 1
        cycles.base += cost
        if tel:
            op_counts[opi] += 1
        if iv is not None:
            m._occurrences[pc] = occ + 1
        if observed:
            EVENT_POINT({addr}{event})
        m.seq += 1
        return True
"""

#: the factory parameters every form shares (see _compile_instr).
_SHARED = "m, pc, instr, cost, cycles, hooks, stub, observed, tel, op_counts, opi, next_pc"


def _expand_event_point(call: re.Match) -> str:
    indent, addr, event = call.groups()
    return textwrap.indent(_EVENT_POINT.format(addr=addr, event=event), indent)


def _factory(name: str, form: _Form) -> Callable[..., StepFn]:
    """Compile ``form`` into ``make_<name>``, registering its source in
    linecache so tracebacks and ``inspect`` can show the steps."""
    operands = f", {form.operands}" if form.operands else ""
    source = (
        f"def make_{name}({_SHARED}{operands}):\n"
        f"    def {form.step}({form.params}):\n"
        + textwrap.indent(textwrap.dedent(form.body).strip("\n"), " " * 8) + "\n"
        + _EPILOGUE.format(
            next_pc=form.next_pc, addr=form.addr, event=form.event and f", {form.event}"
        )
        + f"    return {form.step}\n"
    )
    source = _EVENT_POINT_CALL.sub(_expand_event_point, source)
    filename = f"<{__name__}:{name}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), globals())
    return globals()[f"make_{name}"]


#: per form: its factory and its extra operand, compiled on the form's
#: first use.  Two threads may both compile a form; either result serves.
_FACTORIES: dict[str, tuple[Callable[..., StepFn], Callable | None]] = {}


def compile_program(m: "Machine") -> list[StepFn]:
    """One generated step per static instruction, with ``m._stubs[pc]``
    bound in when the machine is instrumented."""
    return [_compile_instr(m, pc, instr) for pc, instr in enumerate(m.program.code)]


def _compile_instr(m: "Machine", pc: int, instr: Instruction) -> StepFn:
    op = instr.opcode
    form = _FORM[op]
    compiled = _FACTORIES.get(form)
    if compiled is None:
        spec = _FORMS[form]
        compiled = _FACTORIES[form] = (_factory(form, spec), spec.extra)
    make, extra = compiled
    operands = instr.operands if extra is None else (*instr.operands, extra(op, pc))
    opi = int(op)
    hooks = m.hooks.hooks  # the live subscriber list (same object forever)
    stub = m._stubs[pc] if m._stubs is not None else None
    tel = m._tel
    return make(
        m, pc, instr, m._cost_table[opi],
        m.cycles,  # mutated in place, never reassigned
        hooks, stub,
        # The event point's gate: a plain machine tests only its hook
        # list, an instrumented one always calls its stub.
        hooks if stub is None else True,
        tel, m._op_counts if tel else None, opi, pc + 1, *operands,
    )
