"""One interpreter per opcode, held to the spec oracle.

The VM runs its 31 hot opcodes only through the compiled closures of
:mod:`repro.vm.dispatch`; ``Machine._execute`` handles only the 15 cold
ones.  These tests keep it that way (an opcode walk over the dispatch
table) and check the oracle in ``tests/vm_oracle.py`` itself: C-style
division and modulo signs, shift bounds, and interventions
(``transform_def``/``branch_outcome``) against the compiled closures.
"""

import inspect
import traceback

import pytest

from repro.isa import Instruction, Opcode, OP_TABLE, assemble
from repro.isa.instructions import Operand
from repro.isa.program import link
from repro.vm import Intervention, Machine, ProgramFailure, VMError
from repro.vm.dispatch import _FORM
from repro.workloads import GeneratorConfig, generate, suite

from .test_fastpath_differential import EventLog, _vm_state
from .vm_oracle import SPEC, install_oracle

HOT = frozenset(SPEC)
COLD = frozenset({
    Opcode.ALLOC, Opcode.FREE, Opcode.CALL, Opcode.ICALL, Opcode.RET, Opcode.HALT,
    Opcode.IN, Opcode.OUT, Opcode.SPAWN, Opcode.JOIN, Opcode.LOCK, Opcode.UNLOCK,
    Opcode.BARINIT, Opcode.BARWAIT, Opcode.FAIL,
})


def _every_opcode_machine():
    """A machine whose ``main`` holds one instruction of every opcode at
    pc == its position in ``Opcode`` (never run, only compiled)."""
    dummy = {Operand.LABEL: 0, Operand.FUNC: 1}
    main = [
        Instruction(op, tuple(dummy.get(kind, 1) for kind in OP_TABLE[op].operands))
        for op in Opcode
    ]
    program = link([("main", 0, main + [Instruction(Opcode.HALT, ())]),
                    ("f", 0, [Instruction(Opcode.RET, ())])])
    return Machine(program)


def test_hot_and_cold_opcodes_partition_the_isa():
    assert len(HOT) == 31 and len(COLD) == 15
    assert HOT | COLD == set(Opcode) and not HOT & COLD


def test_dispatch_table_has_one_interpreter_per_opcode():
    m = _every_opcode_machine()
    for pc, op in enumerate(Opcode):
        entry = m._dispatch[pc]
        if op in HOT:
            assert entry != m._execute, op
            assert entry.__name__.startswith("step_") and entry.__closure__, op
            # generated from its form's template, which stays readable
            assert entry.__code__.co_filename == f"<repro.vm.dispatch:{_FORM[op]}>", op
            assert inspect.getsource(entry).count("m.seq += 1") == 1, op
        else:
            assert entry == m._execute, op
    # a failing step's traceback shows the template's line
    pc = list(Opcode).index(Opcode.ASSERT)
    m.threads[0].pc = pc
    m.threads[0].regs[1] = 0
    with pytest.raises(ProgramFailure) as failure:
        m._dispatch[pc](m.threads[0])
    frame = traceback.extract_tb(failure.value.__traceback__)[-1]
    assert frame.filename == "<repro.vm.dispatch:assert>"
    assert frame.line == 'raise ProgramFailure("assert", f"assertion failed at pc={pc}")'


@pytest.mark.parametrize("op", sorted(HOT), ids=lambda op: op.name)
def test_execute_rejects_hot_opcodes(op):
    m = _every_opcode_machine()
    thread = m.threads[0]
    thread.pc = list(Opcode).index(op)
    with pytest.raises(VMError, match="unhandled opcode"):
        m._execute(thread)
    assert (thread.pc, thread.instructions, m.seq) == (list(Opcode).index(op), 0, 0)


# --- the oracle's arithmetic ------------------------------------------------
def _alu_run(op, a, b, oracle):
    m = Machine(assemble(f"""
    .func main 0
        li r1, {a}
        li r2, {b}
        {op} r3, r1, r2
        halt
    .end
    """))
    if oracle:
        install_oracle(m)
    res = m.run()
    failure = res.failure and (res.failure.kind, res.failure.message)
    return m.threads[0].regs[3], failure


@pytest.mark.parametrize(
    "op,a,b,expected",
    [
        ("div", 7, 2, 3), ("div", -7, 2, -3), ("div", 7, -2, -3), ("div", -7, -2, 3),
        ("div", -8, 2, -4), ("div", 0, -3, 0), ("div", -1, 5, 0),
        ("mod", 7, 2, 1), ("mod", -7, 2, -1), ("mod", 7, -2, 1), ("mod", -7, -2, -1),
        ("mod", -8, 2, 0),
        ("shl", 3, 0, 3), ("shl", 1, 64, 1 << 64), ("shr", -9, 1, -5), ("shr", 5, 64, 0),
    ],
)
def test_oracle_matches_c_semantics_and_dispatch(op, a, b, expected):
    assert _alu_run(op, a, b, oracle=True) == (expected, None)
    assert _alu_run(op, a, b, oracle=False) == (expected, None)


@pytest.mark.parametrize(
    "op,b,kind",
    [("div", 0, "div_zero"), ("mod", 0, "div_zero"), ("shl", -1, "bad_shift"),
     ("shl", 65, "bad_shift"), ("shr", -1, "bad_shift"), ("shr", 65, "bad_shift")],
)
def test_oracle_traps_like_dispatch(op, b, kind):
    oracle = _alu_run(op, 5, b, oracle=True)
    assert oracle[1][0] == kind
    assert oracle == _alu_run(op, 5, b, oracle=False)


# --- interventions ------------------------------------------------------------
class Perturb(Intervention):
    """Flips every third dynamic branch and bumps every fifth definition,
    so both intervention hooks change the run."""

    def branch_outcome(self, instr, occurrence, default):
        return not default if occurrence % 3 == 2 else default

    def transform_def(self, instr, occurrence, value):
        return value + 1 if (instr.index + occurrence) % 5 == 4 else value


def _perturbed_state(runner, oracle):
    m = runner.machine()
    if oracle:
        install_oracle(m)
    m.intervention = Perturb()
    log = m.hooks.subscribe(EventLog())
    res = m.run(max_instructions=20_000)
    return _vm_state(m, res), log.events, sorted(m._occurrences.items())


@pytest.mark.parametrize(
    "runner",
    [w.runner for w in suite()]
    + [generate(seed, GeneratorConfig(use_inputs=True)).runner for seed in range(4)],
    ids=[w.name for w in suite()] + [f"gen{seed}" for seed in range(4)],
)
def test_interventions_match_oracle(runner):
    assert _perturbed_state(runner(), oracle=False) == _perturbed_state(runner(), oracle=True)
