"""Instruction set of the mini-ISA used as the DIFT substrate.

The paper instruments x86 binaries through dynamic binary translation.
Python has no such ecosystem, so this package defines a small
register-based ISA with the properties DIFT cares about:

* explicit register def/use structure,
* flat byte-equivalent addressable memory with loads/stores,
* direct and *indirect* control transfer (the attack surface),
* heap allocation (for heap-overflow workloads),
* input/output channels (taint sources and sinks),
* thread spawn/join and synchronization (locks, barriers).

Instructions are fixed-shape tuples of integer operands after assembly;
:class:`OpSpec` describes, per opcode, which operands are register
definitions, register uses, immediates, code labels or function
references.  All static analyses (CFG construction, intra-block def-use
inference, control dependence) and the interpreter dispatch off this
table, so adding an opcode means adding exactly one row here plus one
handler: a ``_FORM`` entry in :mod:`repro.vm.dispatch`, and a step
template in ``_FORMS`` if no form fits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Opcode(enum.IntEnum):
    """Opcodes of the mini-ISA, grouped by semantic class."""

    # ALU, three-register form: dst, src1, src2
    ADD = enum.auto()
    SUB = enum.auto()
    MUL = enum.auto()
    DIV = enum.auto()
    MOD = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    SHL = enum.auto()
    SHR = enum.auto()
    SEQ = enum.auto()  # dst = src1 == src2
    SNE = enum.auto()
    SLT = enum.auto()
    SLE = enum.auto()
    SGT = enum.auto()
    SGE = enum.auto()
    # ALU, register-immediate form: dst, src, imm
    ADDI = enum.auto()
    MULI = enum.auto()
    # Unary / moves
    NOT = enum.auto()  # dst, src (logical not: 1 if src == 0 else 0)
    NEG = enum.auto()  # dst, src
    MOV = enum.auto()  # dst, src
    LI = enum.auto()  # dst, imm
    # Memory: LOAD dst, base, offset ; STORE src, base, offset
    LOAD = enum.auto()
    STORE = enum.auto()
    PUSH = enum.auto()  # src         (sp -= 1 ; M[sp] = src)
    POP = enum.auto()  # dst          (dst = M[sp] ; sp += 1)
    # Heap
    ALLOC = enum.auto()  # dst, src   (dst = base of new block of src cells)
    FREE = enum.auto()  # src
    # Control flow
    JMP = enum.auto()  # label
    BR = enum.auto()  # src, label   (branch if src != 0)
    BRZ = enum.auto()  # src, label  (branch if src == 0)
    CALL = enum.auto()  # func
    ICALL = enum.auto()  # src        (indirect call through function id)
    RET = enum.auto()
    HALT = enum.auto()
    NOP = enum.auto()
    # I/O
    IN = enum.auto()  # dst, imm(channel)
    OUT = enum.auto()  # src, imm(channel)
    # Threads & synchronization
    SPAWN = enum.auto()  # dst(tid), func, src(arg)
    JOIN = enum.auto()  # src(tid)
    LOCK = enum.auto()  # src(lock id)
    UNLOCK = enum.auto()  # src(lock id)
    BARINIT = enum.auto()  # src(barrier id), src(party count)
    BARWAIT = enum.auto()  # src(barrier id)
    # Diagnostics
    ASSERT = enum.auto()  # src (trap with ProgramFailure if src == 0)
    FAIL = enum.auto()  # imm (unconditional failure with code imm)


class Operand(enum.Enum):
    """Operand kinds, used by the assembler and static analyses."""

    REG_DST = "reg_dst"  # register written by the instruction
    REG_SRC = "reg_src"  # register read by the instruction
    IMM = "imm"  # integer immediate
    LABEL = "label"  # code label -> global instruction index
    FUNC = "func"  # function reference -> function id


@dataclass(frozen=True)
class OpSpec:
    """Static description of one opcode."""

    mnemonic: str
    operands: tuple[Operand, ...]
    #: True for JMP/BR/BRZ/CALL/ICALL/RET/HALT/FAIL: ends a basic block.
    is_control: bool = False
    #: True when the instruction can fall through to the next one.
    falls_through: bool = True
    #: True for conditional branches (BR/BRZ).
    is_branch: bool = False
    #: True for memory reads / writes (LOAD/POP, STORE/PUSH).
    reads_memory: bool = False
    writes_memory: bool = False

    @property
    def def_positions(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.operands) if k is Operand.REG_DST)

    @property
    def use_positions(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.operands) if k is Operand.REG_SRC)


_R, _S, _I, _L, _F = (
    Operand.REG_DST,
    Operand.REG_SRC,
    Operand.IMM,
    Operand.LABEL,
    Operand.FUNC,
)

#: Per-opcode static description; single source of truth for the ISA shape.
OP_TABLE: dict[Opcode, OpSpec] = {
    Opcode.ADD: OpSpec("add", (_R, _S, _S)),
    Opcode.SUB: OpSpec("sub", (_R, _S, _S)),
    Opcode.MUL: OpSpec("mul", (_R, _S, _S)),
    Opcode.DIV: OpSpec("div", (_R, _S, _S)),
    Opcode.MOD: OpSpec("mod", (_R, _S, _S)),
    Opcode.AND: OpSpec("and", (_R, _S, _S)),
    Opcode.OR: OpSpec("or", (_R, _S, _S)),
    Opcode.XOR: OpSpec("xor", (_R, _S, _S)),
    Opcode.SHL: OpSpec("shl", (_R, _S, _S)),
    Opcode.SHR: OpSpec("shr", (_R, _S, _S)),
    Opcode.SEQ: OpSpec("seq", (_R, _S, _S)),
    Opcode.SNE: OpSpec("sne", (_R, _S, _S)),
    Opcode.SLT: OpSpec("slt", (_R, _S, _S)),
    Opcode.SLE: OpSpec("sle", (_R, _S, _S)),
    Opcode.SGT: OpSpec("sgt", (_R, _S, _S)),
    Opcode.SGE: OpSpec("sge", (_R, _S, _S)),
    Opcode.ADDI: OpSpec("addi", (_R, _S, _I)),
    Opcode.MULI: OpSpec("muli", (_R, _S, _I)),
    Opcode.NOT: OpSpec("not", (_R, _S)),
    Opcode.NEG: OpSpec("neg", (_R, _S)),
    Opcode.MOV: OpSpec("mov", (_R, _S)),
    Opcode.LI: OpSpec("li", (_R, _I)),
    Opcode.LOAD: OpSpec("load", (_R, _S, _I), reads_memory=True),
    Opcode.STORE: OpSpec("store", (_S, _S, _I), writes_memory=True),
    Opcode.PUSH: OpSpec("push", (_S,), writes_memory=True),
    Opcode.POP: OpSpec("pop", (_R,), reads_memory=True),
    Opcode.ALLOC: OpSpec("alloc", (_R, _S)),
    Opcode.FREE: OpSpec("free", (_S,)),
    Opcode.JMP: OpSpec("jmp", (_L,), is_control=True, falls_through=False),
    Opcode.BR: OpSpec("br", (_S, _L), is_control=True, is_branch=True),
    Opcode.BRZ: OpSpec("brz", (_S, _L), is_control=True, is_branch=True),
    Opcode.CALL: OpSpec("call", (_F,), is_control=True),
    Opcode.ICALL: OpSpec("icall", (_S,), is_control=True),
    Opcode.RET: OpSpec("ret", (), is_control=True, falls_through=False),
    Opcode.HALT: OpSpec("halt", (), is_control=True, falls_through=False),
    Opcode.NOP: OpSpec("nop", ()),
    Opcode.IN: OpSpec("in", (_R, _I)),
    Opcode.OUT: OpSpec("out", (_S, _I)),
    Opcode.SPAWN: OpSpec("spawn", (_R, _F, _S)),
    Opcode.JOIN: OpSpec("join", (_S,)),
    Opcode.LOCK: OpSpec("lock", (_S,)),
    Opcode.UNLOCK: OpSpec("unlock", (_S,)),
    Opcode.BARINIT: OpSpec("barinit", (_S, _S)),
    Opcode.BARWAIT: OpSpec("barwait", (_S,)),
    Opcode.ASSERT: OpSpec("assert", (_S,)),
    Opcode.FAIL: OpSpec("fail", (_I,), is_control=True, falls_through=False),
}

#: mnemonic -> opcode, for the assembler.
MNEMONICS: dict[str, Opcode] = {spec.mnemonic: op for op, spec in OP_TABLE.items()}

#: Number of general-purpose registers.  ``sp`` is register 31.
NUM_REGS = 32
SP = 31

_REG_NAMES = {i: f"r{i}" for i in range(NUM_REGS)}
_REG_NAMES[SP] = "sp"


def reg_name(reg: int) -> str:
    """Human-readable register name (``r0`` ... ``r30``, ``sp``)."""
    return _REG_NAMES.get(reg, f"r{reg}")


@dataclass
class Instruction:
    """One assembled instruction.

    ``operands`` are integers whose interpretation follows
    ``OP_TABLE[opcode].operands``: register numbers, immediates, global
    instruction indices (labels) or function ids.
    """

    opcode: Opcode
    operands: tuple[int, ...]
    #: global index in ``Program.code``; assigned at link time.
    index: int = -1
    #: name of the owning function; assigned at link time.
    function: str = ""
    #: optional source position (line in .asm, or MiniC line) for reports.
    source: str = ""
    #: labels attached to this instruction (for disassembly only).
    labels: tuple[str, ...] = field(default=())

    @property
    def spec(self) -> OpSpec:
        return OP_TABLE[self.opcode]

    @property
    def defs(self) -> tuple[int, ...]:
        """Registers written (explicit only; PUSH/POP touch sp implicitly)."""
        ops = self.operands
        return tuple(ops[i] for i in self.spec.def_positions)

    @property
    def uses(self) -> tuple[int, ...]:
        """Registers read (explicit only)."""
        ops = self.operands
        return tuple(ops[i] for i in self.spec.use_positions)

    def format(self) -> str:
        """Disassemble to assembler syntax."""
        spec = self.spec
        parts = []
        for kind, value in zip(spec.operands, self.operands):
            if kind in (Operand.REG_DST, Operand.REG_SRC):
                parts.append(reg_name(value))
            elif kind is Operand.LABEL:
                parts.append(f"@{value}")
            elif kind is Operand.FUNC:
                parts.append(f"fn#{value}")
            else:
                parts.append(str(value))
        body = f"{spec.mnemonic} {', '.join(parts)}".rstrip()
        return body

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.index}:{self.function} {self.format()}>"


#: Opcodes whose result depends only on their register/immediate inputs.
#: Used by ONTRAC's static intra-block inference: dependences between
#: these can be recovered from the binary without dynamic records.
PURE_ALU_OPS = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.DIV,
        Opcode.MOD,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.SEQ,
        Opcode.SNE,
        Opcode.SLT,
        Opcode.SLE,
        Opcode.SGT,
        Opcode.SGE,
        Opcode.ADDI,
        Opcode.MULI,
        Opcode.NOT,
        Opcode.NEG,
        Opcode.MOV,
        Opcode.LI,
    }
)

#: Opcodes that act as taint *sources* (read external input).
SOURCE_OPS = frozenset({Opcode.IN})

#: Opcodes that act as default taint *sinks* for attack detection.
SINK_OPS = frozenset({Opcode.ICALL, Opcode.OUT})
