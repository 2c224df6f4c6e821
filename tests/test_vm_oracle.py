"""One interpreter per opcode, held to the spec oracle.

The VM runs every opcode only through the generated steps of
:mod:`repro.vm.dispatch`.  These tests keep it that way (an opcode walk
over the dispatch table) and check the oracle in ``tests/vm_oracle.py``
itself: C-style division and modulo signs, shift bounds, and
interventions (``transform_def``/``branch_outcome``) against the
generated steps.  ``HOT`` and ``COLD`` split the ISA by what the oracle
covers: it specifies the 31 hot opcodes; the 15 cold ones (heap, calls,
I/O, threads, HALT, FAIL) are held instead to digests of their
observables, recorded below.
"""

import enum
import hashlib
import inspect
import os
import subprocess
import sys
import traceback
from functools import partial
from pathlib import Path

import pytest

from repro.isa import Instruction, Opcode, OP_TABLE, assemble
from repro.isa.instructions import Operand
from repro.isa.program import link
from repro.runner import ProgramRunner
from repro.telemetry import Telemetry
from repro.vm import Hook, Intervention, Machine, ProgramFailure
from repro.vm.dispatch import _FORM
from repro.vm.scheduler import RandomScheduler
from repro.workloads import (
    GeneratorConfig,
    build_server,
    corpus,
    generate,
    race_kernels,
    suite,
)

from .test_fastpath_differential import EventLog, StubLog, _vm_state
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
        assert entry.__name__.startswith("step_") and entry.__closure__, op
        # generated from its form's template, which stays readable
        assert entry.__code__.co_filename == f"<repro.vm.dispatch:{_FORM[op]}>", op
        assert inspect.getsource(entry).count("m.seq += 1") == 1, op
    # a failing step's traceback shows the template's line
    pc = list(Opcode).index(Opcode.ASSERT)
    m.threads[0].pc = pc
    m.threads[0].regs[1] = 0
    with pytest.raises(ProgramFailure) as failure:
        m._dispatch[pc](m.threads[0])
    frame = traceback.extract_tb(failure.value.__traceback__)[-1]
    assert frame.filename == "<repro.vm.dispatch:assert>"
    assert frame.line == 'raise ProgramFailure("assert", f"assertion failed at pc={pc}")'


def test_importing_the_cli_and_router_compiles_no_form():
    # Each form compiles on its first use, so a process that builds no
    # machine (submit, stats, lake, the router) never compiles one.
    probe = (
        "import linecache, repro.cli, repro.service.router\n"
        "from repro.vm import dispatch\n"
        "print(len(dispatch._FACTORIES),"
        " sum(str(k).startswith('<repro.vm.dispatch:') for k in linecache.cache))\n"
    )
    src = str(Path(inspect.getfile(Machine)).parents[2])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


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


# --- the cold opcodes' observables, pinned by digest -------------------------
# Every cold opcode and its failure paths, in small programs.  The thread
# programs also run under a random scheduler with quanta 1-4, so blocking
# and waking land at many different points.
COLD_SOURCES = {
    "cold-all": """
    .func main 0
        li r1, 4
        alloc r2, r1
        store r1, r2, 0
        in r3, 0
        in r4, 0
        out r3, 1
        out r4, 2
        call sq
        li r5, fn:sq
        icall r5
        out r0, 1
        li r6, 3
        lock r6
        unlock r6
        free r2
        li r7, 2
        li r8, 2
        barinit r7, r8
        spawn r9, w, r3
        barwait r7
        join r9
        halt
    .end
    .func sq 1
        mul r0, r0, r0
        ret
    .end
    .func w 1
        li r1, 2
        barwait r1
        li r2, 3
        lock r2
        unlock r2
        ret
    .end
    """,
    "exit": ".func main 0\n    in r0, 0\n    ret\n.end\n",
    "bad-icall": ".func main 0\n    in r1, 0\n    icall r1\n    halt\n.end\n",
    "join-unknown": ".func main 0\n    li r1, 5\n    join r1\n    halt\n.end\n",
    "barrier-uninit": ".func main 0\n    li r1, 9\n    barwait r1\n    halt\n.end\n",
    "barrier-zero":
        ".func main 0\n    li r1, 1\n    li r2, 0\n    barinit r1, r2\n    halt\n.end\n",
    "fail": ".func main 0\n    li r1, 1\n    fail 7\n.end\n",
    "bad-free": ".func main 0\n    li r1, 12345\n    free r1\n    halt\n.end\n",
    "bad-alloc": ".func main 0\n    li r1, 0\n    alloc r2, r1\n    halt\n.end\n",
    "relock": ".func main 0\n    li r1, 1\n    lock r1\n    lock r1\n    halt\n.end\n",
    "bad-unlock": ".func main 0\n    li r1, 1\n    unlock r1\n    halt\n.end\n",
    "deadlock": """
    .func main 0
        li r1, 1
        lock r1
        spawn r2, other, r1
        join r2
        halt
    .end
    .func other 1
        li r1, 1
        lock r1
        ret
    .end
    """,
    "halt-live": """
    .func main 0
        li r1, 0
        spawn r2, spin, r1
        spawn r3, spin, r1
        li r4, 20
    wait:
        addi r4, r4, -1
        br r4, wait
        halt
    .end
    .func spin 1
    loop:
        addi r0, r0, 1
        jmp loop
    .end
    """,
    "counter": """
    .func main 0
        li r1, 100
        li r2, 0
        store r2, r1, 0
        li r3, 12
        spawn r5, worker, r3
        spawn r6, worker, r3
        spawn r7, worker, r3
        join r5
        join r6
        join r7
        load r7, r1, 0
        out r7, 1
        halt
    .end
    .func worker 1
        li r1, 100
        li r2, 1
    loop:
        lock r2
        load r4, r1, 0
        addi r4, r4, 1
        store r4, r1, 0
        unlock r2
        addi r0, r0, -1
        br r0, loop
        ret
    .end
    """,
    "barrier-phases": """
    .func main 0
        li r1, 4
        li r2, 3
        barinit r1, r2
        li r3, 1
        spawn r5, w, r3
        li r3, 2
        spawn r6, w, r3
        li r3, 0
        call w
        join r5
        join r6
        halt
    .end
    .func w 1
        li r1, 4
        li r2, 3
    loop:
        out r0, 1
        barwait r1
        addi r2, r2, -1
        br r2, loop
        ret
    .end
    """,
    "too-many-threads": """
    .func main 0
        li r1, 70
    loop:
        spawn r2, nop, r1
        addi r1, r1, -1
        br r1, loop
        halt
    .end
    .func nop 1
        ret
    .end
    """,
}
COLD_INPUTS = {"cold-all": {0: [6, 7]}, "exit": {0: [3]}, "bad-icall": {0: [99]}}
RACES = race_kernels()
THREADED = ("cold-all", "deadlock", "halt-live", "counter", "barrier-phases",
            *(k.name for k in RACES), "server")


def _randomly_scheduled(make_runner, seed):
    runner = make_runner()
    runner.scheduler_factory = lambda: RandomScheduler(seed, min_quantum=1, max_quantum=4)
    return runner


def _cold_programs():
    programs = {w.name: w.runner for w in suite()}
    programs["server"] = lambda: build_server(workers=2, requests=60, seed=7).runner()
    for b in corpus():
        programs[f"{b.name}-failing"] = partial(b.runner, failing=True)
        programs[f"{b.name}-passing"] = partial(b.runner, failing=False)
    for seed in (3, 7, 11):
        programs[f"gen{seed}"] = generate(seed, GeneratorConfig(use_inputs=True)).runner
    for name, src in COLD_SOURCES.items():
        programs[name] = partial(ProgramRunner, assemble(src), inputs=COLD_INPUTS.get(name, {}),
                                 max_instructions=20_000)
    programs.update((k.name, k.runner) for k in RACES)
    for seed, name in enumerate(THREADED):
        programs[f"{name}@random"] = partial(_randomly_scheduled, programs[name], seed)
    return programs


class CallLog(Hook):
    """Logs every ``InstrEvent`` field and every named callback."""

    def __init__(self):
        self.log = []

    def on_instruction(self, ev):
        self.log.append(
            ("instruction", ev.seq, ev.tid, ev.pc, ev.instr.index, ev.reg_reads, ev.reg_writes,
             ev.mem_reads, ev.mem_writes, ev.taken, ev.callee, ev.alloc, ev.channel,
             ev.io_value, ev.input_index))

    def on_failure(self, info):
        self.log.append(("failure", info.kind, info.tid, info.pc, info.seq, info.message))


def _logs(name):
    return lambda self, *args: self.log.append((name, *args))


for _callback in ("thread_start", "thread_exit", "join", "schedule", "lock", "unlock",
                  "barrier", "input", "output", "alloc", "free", "run_end"):
    setattr(CallLog, f"on_{_callback}", _logs(_callback))


def _canonical(value):
    """``value`` as nested tuples of ints, strings and None, whose repr
    is the same on every supported Python."""
    if isinstance(value, dict):
        return tuple(sorted((_canonical(k), _canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, set)):
        items = tuple(_canonical(v) for v in value)
        return tuple(sorted(items)) if isinstance(value, set) else items
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (int, str)):
        return value
    raise TypeError(f"no canonical form for {value!r}")


def _cold_digest(make_runner, mode):
    runner = make_runner()
    if mode == "telemetry":
        runner.telemetry = Telemetry.on()
    m = runner.machine()
    log = CallLog()
    if mode == "stubs":
        stubs = StubLog()
        m.instrument(stubs.translate)
        log.log = stubs.calls
    elif mode != "telemetry":
        m.hooks.subscribe(log)
    if mode == "intervention":
        m.intervention = Perturb()
    res = m.run(max_instructions=min(runner.max_instructions, 200_000))
    failure = res.failure
    observed = (
        res.status, res.instructions, res.cycles.base, res.cycles.overhead, res.schedule,
        failure and (failure.kind, failure.tid, failure.pc, failure.seq, failure.message),
        [(t.tid, t.pc, t.instructions, t.regs, t.status, t.result, t.blocked_on,
          [(f.return_pc, f.function) for f in t.frames]) for t in m.threads],
        m.memory.cells, m.memory.allocations, m.io.outputs, m.io.read_log, m.seq,
        m._occurrences, log.log,
        runner.telemetry.registry.as_dict() if mode == "telemetry" else None,
    )
    return hashlib.sha256(repr(_canonical(observed)).encode()).hexdigest()[:16]


COLD_PROGRAMS = _cold_programs()
COLD_MODES = ("hooks", "stubs", "intervention", "telemetry")
COLD_CASES = [f"{program}/{mode}" for program in COLD_PROGRAMS for mode in COLD_MODES]


def test_cold_pin_covers_every_cold_opcode():
    # FAIL never completes, so it publishes no event; "fail" pins its failure.
    reached = set()
    for name in COLD_SOURCES:
        m, _ = COLD_PROGRAMS[name]().run(hooks=(log := CallLog(),))
        reached.update(m.program.code[entry[3]].opcode for entry in log.log
                       if entry[0] == "instruction")
    assert reached >= COLD - {Opcode.FAIL}
    assert sorted(COLD_DIGESTS) == sorted(COLD_CASES)


@pytest.mark.parametrize("case", COLD_CASES)
def test_cold_opcode_observables_pinned(case):
    program, mode = case.split("/")
    assert _cold_digest(COLD_PROGRAMS[program], mode) == COLD_DIGESTS[case]


#: recorded from the VM that interpreted the cold opcodes in one
#: ``if op is Opcode.X`` chain, before they had generated steps.
COLD_DIGESTS = {
    "atomicity-violation-failing/hooks": "5d2faa38b3ccbeec",
    "atomicity-violation-failing/intervention": "8059567f12986248",
    "atomicity-violation-failing/stubs": "f507f5ce347f85e1",
    "atomicity-violation-failing/telemetry": "aaa97efba011468f",
    "atomicity-violation-passing/hooks": "5d2faa38b3ccbeec",
    "atomicity-violation-passing/intervention": "8059567f12986248",
    "atomicity-violation-passing/stubs": "f507f5ce347f85e1",
    "atomicity-violation-passing/telemetry": "aaa97efba011468f",
    "bad-alloc/hooks": "3a9261403f092d5d",
    "bad-alloc/intervention": "2af9d610fbde84bc",
    "bad-alloc/stubs": "e8983ea5b8e2e682",
    "bad-alloc/telemetry": "1f6d4d4db239ae88",
    "bad-free/hooks": "0a35bc1d94393fa6",
    "bad-free/intervention": "0012b4cf1fe84650",
    "bad-free/stubs": "926c3de9cffbece0",
    "bad-free/telemetry": "c8364919ca78d330",
    "bad-icall/hooks": "a1db3f97d80ab07b",
    "bad-icall/intervention": "8c583859e006a8ae",
    "bad-icall/stubs": "4db1b3c8e11954c3",
    "bad-icall/telemetry": "1a02fd4f89684b64",
    "bad-unlock/hooks": "bca7b42f54d79195",
    "bad-unlock/intervention": "d947404761c820d7",
    "bad-unlock/stubs": "f509de7ed7ed184a",
    "bad-unlock/telemetry": "00ec94dbf0feddda",
    "barrier-phases/hooks": "33bb4894893ad0fb",
    "barrier-phases/intervention": "fb6ed277f6684a83",
    "barrier-phases/stubs": "110e5460bd37e5c0",
    "barrier-phases/telemetry": "1a49b9bfb804e57e",
    "barrier-phases@random/hooks": "945181cbde8bed20",
    "barrier-phases@random/intervention": "1fedb06b09bc34a3",
    "barrier-phases@random/stubs": "fdc82a877808fc17",
    "barrier-phases@random/telemetry": "53631a2c69e30cd5",
    "barrier-uninit/hooks": "78a4c00faf3b87d5",
    "barrier-uninit/intervention": "c2c7e7039cfcf7d0",
    "barrier-uninit/stubs": "fe146db6c606620f",
    "barrier-uninit/telemetry": "f64cbb51cca216a9",
    "barrier-zero/hooks": "23a004ffd9e2a175",
    "barrier-zero/intervention": "94009ba2e04b2ef5",
    "barrier-zero/stubs": "7e566674853d0b9d",
    "barrier-zero/telemetry": "f9b6145f639107d9",
    "bfs/hooks": "e7dd05aa4aaa1403",
    "bfs/intervention": "7369a7fcffb5ebec",
    "bfs/stubs": "d1aab53d6d9e8752",
    "bfs/telemetry": "430f3fccf62704b5",
    "cold-all/hooks": "340118ec9a6a52ce",
    "cold-all/intervention": "df30b7c57da7cc9f",
    "cold-all/stubs": "c6cfdb9c24d759c5",
    "cold-all/telemetry": "e3adfd5b567c63f9",
    "cold-all@random/hooks": "04d1409f84aa5788",
    "cold-all@random/intervention": "7143ac038c08e64c",
    "cold-all@random/stubs": "0629c19f6956bab6",
    "cold-all@random/telemetry": "493ee823fa482bbb",
    "counter/hooks": "af279dc1f20e314f",
    "counter/intervention": "0b27c851b10c1f39",
    "counter/stubs": "088d55c7d0f94385",
    "counter/telemetry": "f4a3237fefffe9dd",
    "counter@random/hooks": "7f8c99ae2627aff0",
    "counter@random/intervention": "550a4f97c845f075",
    "counter@random/stubs": "4fd1f29274d943d1",
    "counter@random/telemetry": "5e74cd3b2db70aa5",
    "deadlock/hooks": "607da120eea2a1b2",
    "deadlock/intervention": "9a6d2c5bbdbd5891",
    "deadlock/stubs": "d4a7c01a2bcfb84b",
    "deadlock/telemetry": "f2f9b1f29b76243a",
    "deadlock@random/hooks": "a937750b30996dd0",
    "deadlock@random/intervention": "7787a957beacfadb",
    "deadlock@random/stubs": "03dfda34e1b01457",
    "deadlock@random/telemetry": "6297c681d6413a2c",
    "exit/hooks": "b2c2e3665b61038e",
    "exit/intervention": "d2a022d7c20f2849",
    "exit/stubs": "2e407a2feb4cdb4e",
    "exit/telemetry": "e9ed5c401d4eb52e",
    "fail/hooks": "d1524c2bd2e4cce1",
    "fail/intervention": "fcb212732cdc6c68",
    "fail/stubs": "0fa2da4bfdd33c78",
    "fail/telemetry": "8c4cc07f36c2c701",
    "flag-sync/hooks": "d3f7bd8e7687ba89",
    "flag-sync/intervention": "419aa16b2af0e07d",
    "flag-sync/stubs": "d3126af548bddd20",
    "flag-sync/telemetry": "c460e679821e8498",
    "flag-sync@random/hooks": "3db835e0668eda45",
    "flag-sync@random/intervention": "be129dea0d512abb",
    "flag-sync@random/stubs": "51ab2de883df40f8",
    "flag-sync@random/telemetry": "c12cad934f65a28a",
    "fsm/hooks": "a3c6ce43715a7fa9",
    "fsm/intervention": "00519bf94f2d8040",
    "fsm/stubs": "68d963dc9dfc0720",
    "fsm/telemetry": "296a1aefe5391feb",
    "gen11/hooks": "4e26b9393ff0ce8b",
    "gen11/intervention": "ad5fec9c2c43f1d3",
    "gen11/stubs": "04c522c296b6d59f",
    "gen11/telemetry": "e3ecee1896337be7",
    "gen3/hooks": "59a26d5bb089c28b",
    "gen3/intervention": "ae9c901177d2b5e7",
    "gen3/stubs": "d40eb8bea4a5e6b3",
    "gen3/telemetry": "f194c1369242d52b",
    "gen7/hooks": "0bfccb3adcf6f08f",
    "gen7/intervention": "9a84439c0e758896",
    "gen7/stubs": "481467b279a46c33",
    "gen7/telemetry": "f39fd96613c6108a",
    "halt-live/hooks": "0965b1bc4ad2e544",
    "halt-live/intervention": "d5ddaae7a9eba845",
    "halt-live/stubs": "4577925e6793e353",
    "halt-live/telemetry": "06bf0b0b2d6be9d6",
    "halt-live@random/hooks": "a939d1d35137038a",
    "halt-live@random/intervention": "99f168f6e4602982",
    "halt-live@random/stubs": "bb55336ab6118dbc",
    "halt-live@random/telemetry": "03a22e85d78527cd",
    "hashloop/hooks": "8b95e14867fbe1c3",
    "hashloop/intervention": "e7b283553577514e",
    "hashloop/stubs": "14bfe20dbf252d40",
    "hashloop/telemetry": "13c1b51e9e9deee3",
    "heap-overflow-failing/hooks": "a1fff3e3fb31458b",
    "heap-overflow-failing/intervention": "874917593d746e9e",
    "heap-overflow-failing/stubs": "e9e3a7165d39e524",
    "heap-overflow-failing/telemetry": "cef2d0590dce7899",
    "heap-overflow-passing/hooks": "3d816791e8a44ada",
    "heap-overflow-passing/intervention": "4ad62ae891a93326",
    "heap-overflow-passing/stubs": "7a9231a93eec5e98",
    "heap-overflow-passing/telemetry": "335edfe1dfe2420b",
    "join-unknown/hooks": "a517b6ea513ac5c3",
    "join-unknown/intervention": "09558d0a2472fbec",
    "join-unknown/stubs": "702eeabc59458582",
    "join-unknown/telemetry": "28397d50590decd6",
    "locked-counter/hooks": "232c8b4bcb0e1bb7",
    "locked-counter/intervention": "fdb99b3fa6e01180",
    "locked-counter/stubs": "c4d4e358dcf3b522",
    "locked-counter/telemetry": "05317d9e1da6d001",
    "locked-counter@random/hooks": "b9fcd4af5a672577",
    "locked-counter@random/intervention": "fa69ba361c47c25a",
    "locked-counter@random/stubs": "1108bc73cd2f7558",
    "locked-counter@random/telemetry": "50f7adafd643d1ac",
    "malformed-request-failing/hooks": "b61bb4e9e440f638",
    "malformed-request-failing/intervention": "d6ab3aa577f9c2f1",
    "malformed-request-failing/stubs": "8cc05d21933946c0",
    "malformed-request-failing/telemetry": "f52510f4eb654518",
    "malformed-request-passing/hooks": "7c445e45b5e63a75",
    "malformed-request-passing/intervention": "76b9fdf5d81b1378",
    "malformed-request-passing/stubs": "e74ddff56b77c568",
    "malformed-request-passing/telemetry": "6a0e0bbfdc49c633",
    "matmul/hooks": "8574951a80855ab4",
    "matmul/intervention": "cbc8406821c91a1a",
    "matmul/stubs": "8fad82030331cef3",
    "matmul/telemetry": "3e872e3b7e271153",
    "mixed/hooks": "0be9cda59c03c054",
    "mixed/intervention": "afafabff776d275f",
    "mixed/stubs": "46ed1032fb1a485a",
    "mixed/telemetry": "94d443cf3a33a319",
    "mixed@random/hooks": "4e6ebd560fde59d1",
    "mixed@random/intervention": "fd73980ab22cb837",
    "mixed@random/stubs": "be3a574cbd1939d9",
    "mixed@random/telemetry": "8ab1152710bd5903",
    "omission-init-failing/hooks": "0950a118764115eb",
    "omission-init-failing/intervention": "9da77ccf99a7fe3d",
    "omission-init-failing/stubs": "af00e5b07b9a1f5f",
    "omission-init-failing/telemetry": "48315f84788a3390",
    "omission-init-passing/hooks": "5a87faeb658cebde",
    "omission-init-passing/intervention": "5e0784728016a2dd",
    "omission-init-passing/stubs": "6240010226f3088a",
    "omission-init-passing/telemetry": "70f92e676eb0207a",
    "omission-predicate-failing/hooks": "28750359c9acbe57",
    "omission-predicate-failing/intervention": "e73d0b01a60e9cc2",
    "omission-predicate-failing/stubs": "c4f51e2b560f6a01",
    "omission-predicate-failing/telemetry": "2e3c0328b52a6b2a",
    "omission-predicate-passing/hooks": "8c8507e14dcc6f5c",
    "omission-predicate-passing/intervention": "46476d57dd545d00",
    "omission-predicate-passing/stubs": "389f6c958b5c7bff",
    "omission-predicate-passing/telemetry": "71dc6dffef0cbf31",
    "relock/hooks": "28d8a243acde3a24",
    "relock/intervention": "c095a68bf32a9c7b",
    "relock/stubs": "06d1d401fabe093a",
    "relock/telemetry": "975d152f3bde9db9",
    "rle/hooks": "2bc7ca04f443d74d",
    "rle/intervention": "ff61f9f567037ddb",
    "rle/stubs": "440e35e82537131c",
    "rle/telemetry": "8d96456feebd3463",
    "server/hooks": "cc79343e7d0c917e",
    "server/intervention": "fea5d3b6671c8b6b",
    "server/stubs": "51b8719b6a5c2e81",
    "server/telemetry": "882a0f7493ce9a5d",
    "server@random/hooks": "60c8d44c8e4bd6d7",
    "server@random/intervention": "12540f840efc2f2f",
    "server@random/stubs": "b3d2904866634f1e",
    "server@random/telemetry": "784fdccb0b36e2bc",
    "sort/hooks": "a94dc24b3d91d246",
    "sort/intervention": "5ce262bdd5278e4d",
    "sort/stubs": "8288c2f7ba61d4fa",
    "sort/telemetry": "bff2562cc7832aca",
    "too-many-threads/hooks": "50e512b53ca29d45",
    "too-many-threads/intervention": "0c3a5b1f043b4ece",
    "too-many-threads/stubs": "f119555306624399",
    "too-many-threads/telemetry": "6cf69a3f8965181b",
    "true-race/hooks": "bc41ff6832bdaf3e",
    "true-race/intervention": "688d13f02d029e8a",
    "true-race/stubs": "de25b8ffd9f2f1e6",
    "true-race/telemetry": "76c3f138cef6dd1d",
    "true-race@random/hooks": "07fa421dcfcc6881",
    "true-race@random/intervention": "5c92cc14a703ea17",
    "true-race@random/stubs": "689650c83ee0998f",
    "true-race@random/telemetry": "f5840ba689c456cd",
    "wrong-constant-failing/hooks": "e10c499dd177b907",
    "wrong-constant-failing/intervention": "b33071b5298f58d9",
    "wrong-constant-failing/stubs": "873bef83a33cb73e",
    "wrong-constant-failing/telemetry": "1e4f469b344865fd",
    "wrong-constant-passing/hooks": "467f626a66ef25d8",
    "wrong-constant-passing/intervention": "bfa960cbcb3aa4e3",
    "wrong-constant-passing/stubs": "b8a76221e4178d5e",
    "wrong-constant-passing/telemetry": "3535d55aa52226a1",
    "wrong-operator-failing/hooks": "ab5737038f4b8b3d",
    "wrong-operator-failing/intervention": "0468890ed3caeb67",
    "wrong-operator-failing/stubs": "d55fec1465282dcc",
    "wrong-operator-failing/telemetry": "8d4f4911a2346eaf",
    "wrong-operator-passing/hooks": "5576ef092f57d3f9",
    "wrong-operator-passing/intervention": "80117186c7c748b4",
    "wrong-operator-passing/stubs": "3f1718d9cc03f982",
    "wrong-operator-passing/telemetry": "2f3091cf0b67dfe1",
    "wrong-variable-failing/hooks": "a86069d1079bafb1",
    "wrong-variable-failing/intervention": "180271a1ca4beff7",
    "wrong-variable-failing/stubs": "d86bca9610364e5a",
    "wrong-variable-failing/telemetry": "57e491ec241529bf",
    "wrong-variable-passing/hooks": "dbe71edc9e17bcf5",
    "wrong-variable-passing/intervention": "59f73a7c6f1af851",
    "wrong-variable-passing/stubs": "0a9975b40ff95e05",
    "wrong-variable-passing/telemetry": "a4a7ddad8556eadd",
}
