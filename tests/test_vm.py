"""Unit tests for the VM: interpreter semantics, threads/sync, scheduling,
hooks, interventions, snapshots."""

import pytest

from repro.isa import Instruction, Opcode, assemble
from repro.vm import (
    EOF,
    STDOUT,
    CostModel,
    Hook,
    Intervention,
    Machine,
    Memory,
    ProgramFailure,
    RandomScheduler,
    ReplayDivergenceError,
    RoundRobinScheduler,
    RunStatus,
    ScriptedScheduler,
    restore_snapshot,
    stack_top,
    take_snapshot,
)


def run(src, inputs=None, scheduler=None, args=(), max_instructions=1_000_000):
    m = Machine(assemble(src), scheduler=scheduler, args=args)
    for chan, values in (inputs or {}).items():
        m.io.provide(chan, values)
    res = m.run(max_instructions=max_instructions)
    return m, res


# --- arithmetic -------------------------------------------------------------
class TestALU:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("add", 3, 4, 7),
            ("sub", 3, 4, -1),
            ("mul", -3, 4, -12),
            ("div", 7, 2, 3),
            ("div", -7, 2, -3),  # trunc toward zero (C semantics)
            ("mod", 7, 2, 1),
            ("mod", -7, 2, -1),
            ("and", 6, 3, 2),
            ("or", 6, 3, 7),
            ("xor", 6, 3, 5),
            ("shl", 3, 2, 12),
            ("shr", 12, 2, 3),
            ("seq", 5, 5, 1),
            ("sne", 5, 5, 0),
            ("slt", 3, 4, 1),
            ("sle", 4, 4, 1),
            ("sgt", 3, 4, 0),
            ("sge", 4, 4, 1),
        ],
    )
    def test_binops(self, op, a, b, expected):
        m, res = run(
            f"""
            .func main 0
                li r1, {a}
                li r2, {b}
                {op} r3, r1, r2
                out r3, 1
                halt
            .end
            """
        )
        assert res.status is RunStatus.HALTED
        assert m.io.output(STDOUT) == [expected]

    def test_unary_and_moves(self):
        m, _ = run(
            """
            .func main 0
                li r1, 0
                not r2, r1
                neg r3, r2
                mov r4, r3
                addi r5, r4, 10
                muli r6, r5, 3
                out r2, 1
                out r6, 1
                halt
            .end
            """
        )
        assert m.io.output(STDOUT) == [1, 27]

    def test_div_by_zero_fails(self):
        m, res = run(
            """
            .func main 0
                li r1, 1
                li r2, 0
                div r3, r1, r2
                halt
            .end
            """
        )
        assert res.status is RunStatus.FAILED
        assert res.failure.kind == "div_zero"
        assert res.failure.pc == 2

    def test_bad_shift_fails(self):
        _, res = run(
            """
            .func main 0
                li r1, 1
                li r2, -1
                shl r3, r1, r2
                halt
            .end
            """
        )
        assert res.failure.kind == "bad_shift"


# --- memory ------------------------------------------------------------------
class TestMemory:
    def test_load_store(self):
        m, _ = run(
            """
            .func main 0
                li r1, 2000
                li r2, 99
                store r2, r1, 5
                load r3, r1, 5
                out r3, 1
                halt
            .end
            """
        )
        assert m.io.output(STDOUT) == [99]

    def test_uninitialized_reads_zero(self):
        m, _ = run(
            """
            .func main 0
                li r1, 5000
                load r2, r1, 0
                out r2, 1
                halt
            .end
            """
        )
        assert m.io.output(STDOUT) == [0]

    def test_push_pop(self):
        m, _ = run(
            """
            .func main 0
                li r1, 11
                li r2, 22
                push r1
                push r2
                pop r3
                pop r4
                out r3, 1
                out r4, 1
                halt
            .end
            """
        )
        assert m.io.output(STDOUT) == [22, 11]

    def test_sp_initialized_per_thread(self):
        assert stack_top(0) != stack_top(1)

    def test_alloc_free(self):
        m, _ = run(
            """
            .func main 0
                li r1, 8
                alloc r2, r1
                li r3, 5
                store r3, r2, 0
                load r4, r2, 0
                out r4, 1
                free r2
                halt
            .end
            """
        )
        assert m.io.output(STDOUT) == [5]
        assert m.memory.total_allocs == 1
        assert m.memory.total_frees == 1

    def test_consecutive_allocs_adjacent(self):
        mem = Memory()
        a = mem.alloc(10)
        b = mem.alloc(10)
        assert b == a + 10  # overflow from a corrupts b

    def test_freed_block_reused_exact_size(self):
        mem = Memory()
        a = mem.alloc(10)
        mem.free(a)
        b = mem.alloc(10)
        assert b == a

    def test_alloc_padding_separates_blocks(self):
        mem = Memory()
        mem.alloc_padding = 4
        a = mem.alloc(10)
        b = mem.alloc(10)
        assert b - a == 14

    def test_bad_free_fails(self):
        _, res = run(
            """
            .func main 0
                li r1, 12345
                free r1
                halt
            .end
            """
        )
        assert res.failure.kind == "bad_free"

    def test_block_of(self):
        mem = Memory()
        base = mem.alloc(10)
        assert mem.block_of(base + 3) == (base, 10)
        assert mem.block_of(base + 10) is None

    def test_overflow_corrupts_neighbor(self):
        mem = Memory()
        a = mem.alloc(4)
        b = mem.alloc(4)
        mem.store(a + 5, 77)  # out of bounds for a, lands in b
        assert mem.load(b + 1) == 77


# --- control flow ---------------------------------------------------------------
class TestControl:
    def test_loop(self):
        m, _ = run(
            """
            .func main 0
                li r0, 0
                li r1, 5
            loop:
                add r0, r0, r1
                addi r1, r1, -1
                br r1, loop
                out r0, 1
                halt
            .end
            """
        )
        assert m.io.output(STDOUT) == [15]

    def test_call_ret(self):
        m, _ = run(
            """
            .func main 0
                li r0, 20
                call double
                out r0, 1
                halt
            .end
            .func double 1
                add r0, r0, r0
                ret
            .end
            """
        )
        assert m.io.output(STDOUT) == [40]

    def test_recursion(self):
        # factorial(5) with caller-save via stack
        m, _ = run(
            """
            .func main 0
                li r0, 5
                call fact
                out r0, 1
                halt
            .end
            .func fact 1
                li r1, 1
                sgt r2, r0, r1
                br r2, rec
                li r0, 1
                ret
            rec:
                push r0
                addi r0, r0, -1
                call fact
                pop r1
                mul r0, r0, r1
                ret
            .end
            """
        )
        assert m.io.output(STDOUT) == [120]

    def test_icall(self):
        m, _ = run(
            """
            .func main 0
                li r1, fn:square
                li r0, 6
                icall r1
                out r0, 1
                halt
            .end
            .func square 1
                mul r0, r0, r0
                ret
            .end
            """
        )
        assert m.io.output(STDOUT) == [36]

    def test_icall_invalid_target_fails(self):
        _, res = run(
            """
            .func main 0
                li r1, 999
                icall r1
                halt
            .end
            """
        )
        assert res.failure.kind == "bad_icall"

    def test_main_return_exits(self):
        _, res = run(".func main 0\n    li r0, 0\n    ret\n.end\n")
        assert res.status is RunStatus.EXITED

    def test_assert_pass_and_fail(self):
        _, ok = run(".func main 0\n    li r0, 1\n    assert r0\n    halt\n.end\n")
        assert ok.status is RunStatus.HALTED
        _, bad = run(".func main 0\n    li r0, 0\n    assert r0\n    halt\n.end\n")
        assert bad.failure.kind == "assert"

    def test_fail_instruction(self):
        _, res = run(".func main 0\n    fail 7\n.end\n")
        assert res.failure.kind == "fail"
        assert "7" in res.failure.message

    def test_instruction_limit(self):
        _, res = run(
            ".func main 0\nspin:\n    jmp spin\n.end\n",
            max_instructions=100,
        )
        assert res.status is RunStatus.LIMIT
        assert res.instructions == 100


# --- I/O ------------------------------------------------------------------------
class TestIO:
    def test_input_sequence(self):
        m, _ = run(
            """
            .func main 0
                in r1, 0
                in r2, 0
                add r3, r1, r2
                out r3, 1
                halt
            .end
            """,
            inputs={0: [10, 32]},
        )
        assert m.io.output(STDOUT) == [42]

    def test_input_exhaustion_gives_eof(self):
        m, _ = run(
            """
            .func main 0
                in r1, 0
                out r1, 1
                halt
            .end
            """,
            inputs={0: []},
        )
        assert m.io.output(STDOUT) == [EOF]

    def test_read_log_records_indices(self):
        m, _ = run(
            ".func main 0\n    in r1, 0\n    in r2, 0\n    halt\n.end\n",
            inputs={0: [5, 6]},
        )
        assert [(c, v, i) for _, c, v, i in m.io.read_log] == [(0, 5, 0), (0, 6, 1)]

    def test_text_helpers(self):
        m = Machine(assemble(".func main 0\n    halt\n.end\n"))
        m.io.provide_text(0, "hi")
        assert m.io.inputs[0] == [104, 105]
        m.io.write(1, 104)
        m.io.write(1, 105)
        assert m.io.output_text(1) == "hi"


# --- threads & sync ----------------------------------------------------------------
COUNTER = """
.func main 0
    li r1, 100      ; shared counter address
    li r2, 0
    store r2, r1, 0
    li r3, fn:worker
    li r4, 0
    spawn r5, worker, r4
    spawn r6, worker, r4
    join r5
    join r6
    load r7, r1, 0
    out r7, 1
    halt
.end
.func worker 1
    li r1, 100
    li r2, 1        ; lock id
    li r3, 50       ; iterations
loop:
    lock r2
    load r4, r1, 0
    addi r4, r4, 1
    store r4, r1, 0
    unlock r2
    addi r3, r3, -1
    br r3, loop
    ret
.end
"""


class TestThreads:
    def test_spawn_join_result(self):
        m, res = run(
            """
            .func main 0
                li r1, 21
                spawn r2, double, r1
                join r2
                halt
            .end
            .func double 1
                add r0, r0, r0
                ret
            .end
            """
        )
        assert res.status is RunStatus.HALTED
        assert m.threads[1].result == 42

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_locked_counter_correct_under_any_schedule(self, seed):
        m, res = run(COUNTER, scheduler=RandomScheduler(seed=seed, min_quantum=1, max_quantum=7))
        assert res.status is RunStatus.HALTED
        assert m.io.output(STDOUT) == [100]

    def test_unlocked_counter_can_lose_updates(self):
        # Remove locking: with small quanta some interleaving loses updates.
        src = COUNTER.replace("    lock r2\n", "").replace("    unlock r2\n", "")
        lost = False
        for seed in range(12):
            m, res = run(src, scheduler=RandomScheduler(seed=seed, min_quantum=1, max_quantum=4))
            assert res.status is RunStatus.HALTED
            if m.io.output(STDOUT) != [100]:
                lost = True
        assert lost, "expected at least one seed to exhibit the race"

    def test_deadlock_detected(self):
        _, res = run(
            """
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
            """
        )
        assert res.status is RunStatus.DEADLOCK

    def test_bad_unlock_fails(self):
        _, res = run(
            """
            .func main 0
                li r1, 1
                unlock r1
                halt
            .end
            """
        )
        assert res.failure.kind == "bad_unlock"

    def test_relock_fails(self):
        _, res = run(
            """
            .func main 0
                li r1, 1
                lock r1
                lock r1
                halt
            .end
            """
        )
        assert res.failure.kind == "relock"

    def test_barrier_releases_all(self):
        m, res = run(
            """
            .func main 0
                li r1, 1
                li r2, 3
                barinit r1, r2
                li r3, 0
                spawn r4, w, r3
                spawn r5, w, r3
                barwait r1
                out r1, 1
                join r4
                join r5
                halt
            .end
            .func w 1
                li r1, 1
                barwait r1
                ret
            .end
            """
        )
        assert res.status is RunStatus.HALTED
        assert m.io.output(STDOUT) == [1]

    def test_uninitialized_barrier_fails(self):
        _, res = run(".func main 0\n    li r1, 9\n    barwait r1\n    halt\n.end\n")
        assert res.failure.kind == "bad_barrier"

    def test_lock_grant_is_fifo_deterministic(self):
        src = """
        .func main 0
            li r1, 1
            lock r1
            li r2, 0
            spawn r3, w, r2
            li r2, 1
            spawn r4, w, r2
            unlock r1
            join r3
            join r4
            halt
        .end
        .func w 1
            li r1, 1
            lock r1
            out r0, 1
            unlock r1
            ret
        .end
        """
        m1, _ = run(src, scheduler=RoundRobinScheduler(quantum=3))
        m2, _ = run(src, scheduler=RoundRobinScheduler(quantum=3))
        assert m1.io.output(STDOUT) == m2.io.output(STDOUT)


# --- schedulers -----------------------------------------------------------------
class TestSchedulers:
    def test_round_robin_rotates(self):
        s = RoundRobinScheduler(quantum=10)
        assert s.pick([0, 1, 2], None) == (0, 10)
        assert s.pick([0, 1, 2], 0) == (1, 10)
        assert s.pick([0, 1, 2], 1) == (2, 10)
        assert s.pick([0, 1, 2], 2) == (0, 10)

    def test_round_robin_skips_missing(self):
        s = RoundRobinScheduler(quantum=5)
        s.pick([0, 1, 2], None)
        assert s.pick([0, 2], 0)[0] == 2

    def test_random_reproducible(self):
        a = RandomScheduler(seed=42)
        b = RandomScheduler(seed=42)
        picks_a = [a.pick([0, 1, 2], None) for _ in range(20)]
        picks_b = [b.pick([0, 1, 2], None) for _ in range(20)]
        assert picks_a == picks_b

    def test_random_fork_continues_identically(self):
        a = RandomScheduler(seed=7)
        for _ in range(5):
            a.pick([0, 1], None)
        b = a.fork()
        assert [a.pick([0, 1], None) for _ in range(10)] == [
            b.pick([0, 1], None) for _ in range(10)
        ]

    def test_scripted_follows_segments(self):
        s = ScriptedScheduler([(0, 5), (1, 3)])
        assert s.pick([0, 1], None) == (0, 5)
        assert s.pick([0, 1], 0) == (1, 3)
        assert s.exhausted

    def test_scripted_divergence_raises(self):
        s = ScriptedScheduler([(3, 5)])
        with pytest.raises(ReplayDivergenceError):
            s.pick([0, 1], None)

    def test_scripted_tail_falls_back(self):
        s = ScriptedScheduler([], tail_quantum=9)
        assert s.pick([1], None) == (1, 9)

    def test_schedule_replay_reproduces_run(self):
        m1, res1 = run(COUNTER, scheduler=RandomScheduler(seed=3, min_quantum=1, max_quantum=9))
        m2, res2 = run(COUNTER, scheduler=ScriptedScheduler(res1.schedule))
        assert res2.status is res1.status
        assert m2.io.output(STDOUT) == m1.io.output(STDOUT)
        assert res2.schedule == res1.schedule


# --- hooks ------------------------------------------------------------------------
class Recorder(Hook):
    def __init__(self):
        self.events = []
        self.named = []

    def on_instruction(self, ev):
        self.events.append(ev)

    def on_lock(self, tid, lock_id, seq):
        self.named.append(("lock", tid, lock_id))

    def on_unlock(self, tid, lock_id, seq):
        self.named.append(("unlock", tid, lock_id))

    def on_input(self, tid, channel, value, index, seq):
        self.named.append(("in", channel, value, index))

    def on_alloc(self, tid, base, size, seq):
        self.named.append(("alloc", base, size))

    def on_thread_start(self, tid, fid, arg, parent):
        self.named.append(("start", tid, parent))

    def on_failure(self, info):
        self.named.append(("failure", info.kind))


class TestHooks:
    def test_event_stream_matches_execution(self):
        m = Machine(assemble(
            """
            .func main 0
                li r1, 7
                addi r2, r1, 1
                out r2, 1
                halt
            .end
            """
        ))
        rec = m.hooks.subscribe(Recorder())
        m.run()
        assert [e.instr.opcode for e in rec.events] == [
            Opcode.LI,
            Opcode.ADDI,
            Opcode.OUT,
            Opcode.HALT,
        ]
        assert rec.events[0].reg_writes == ((1, 7),)
        assert rec.events[1].reg_reads == ((1, 7),)
        assert rec.events[1].reg_writes == ((2, 8),)
        assert [e.seq for e in rec.events] == [0, 1, 2, 3]

    def test_memory_events_carry_addresses(self):
        m = Machine(assemble(
            """
            .func main 0
                li r1, 3000
                li r2, 5
                store r2, r1, 2
                load r3, r1, 2
                halt
            .end
            """
        ))
        rec = m.hooks.subscribe(Recorder())
        m.run()
        assert rec.events[2].mem_writes == ((3002, 5),)
        assert rec.events[3].mem_reads == ((3002, 5),)

    def test_branch_outcome_in_event(self):
        m = Machine(assemble(
            """
            .func main 0
                li r1, 1
                br r1, target
                nop
            target:
                halt
            .end
            """
        ))
        rec = m.hooks.subscribe(Recorder())
        m.run()
        assert rec.events[1].taken is True

    def test_named_callbacks(self):
        m = Machine(assemble(
            """
            .func main 0
                in r1, 0
                li r2, 4
                alloc r3, r2
                li r4, 1
                lock r4
                unlock r4
                li r5, 0
                spawn r6, w, r5
                join r6
                halt
            .end
            .func w 1
                ret
            .end
            """
        ))
        m.io.provide(0, [9])
        rec = m.hooks.subscribe(Recorder())
        m.run()
        kinds = [n[0] for n in rec.named]
        assert kinds == ["in", "alloc", "lock", "unlock", "start"]
        assert ("in", 0, 9, 0) in rec.named

    def test_failure_hook(self):
        m = Machine(assemble(".func main 0\n    fail 1\n.end\n"))
        rec = m.hooks.subscribe(Recorder())
        m.run()
        assert ("failure", "fail") in rec.named

    def test_no_hooks_no_events(self):
        m = Machine(assemble(SIMPLE_SRC))
        assert not m.hooks.active
        m.run()  # must not crash building events

    def test_attack_detected_from_hook_stops_run(self):
        from repro.vm import AttackDetected

        class Tripwire(Hook):
            def on_instruction(self, ev):
                if ev.instr.opcode is Opcode.OUT:
                    raise AttackDetected("tainted sink", culprit_pc=ev.pc)

        m = Machine(assemble(
            ".func main 0\n    li r1, 5\n    out r1, 1\n    halt\n.end\n"
        ))
        m.hooks.subscribe(Tripwire())
        res = m.run()
        assert res.status is RunStatus.FAILED
        assert res.failure.kind == "attack_detected"


SIMPLE_SRC = ".func main 0\n    li r0, 1\n    halt\n.end\n"


# --- interventions -------------------------------------------------------------
class TestInterventions:
    def test_branch_switch_changes_path(self):
        class SwitchFirst(Intervention):
            def branch_outcome(self, instr, occurrence, default):
                return not default

        src = """
        .func main 0
            li r1, 0
            brz r1, yes
            out r1, 1
            halt
        yes:
            li r2, 9
            out r2, 1
            halt
        .end
        """
        m = Machine(assemble(src))
        m.run()
        assert m.io.output(STDOUT) == [9]  # natural path

        m2 = Machine(assemble(src))
        m2.intervention = SwitchFirst()
        m2.run()
        assert m2.io.output(STDOUT) == [0]  # switched path

    def test_value_replacement(self):
        class ReplaceAt(Intervention):
            def __init__(self, pc, occurrence, value):
                self.pc, self.occurrence, self.value = pc, occurrence, value

            def transform_def(self, instr, occurrence, value):
                if instr.index == self.pc and occurrence == self.occurrence:
                    return self.value
                return value

        src = """
        .func main 0
            li r1, 2
            muli r2, r1, 10
            out r2, 1
            halt
        .end
        """
        m = Machine(assemble(src))
        m.intervention = ReplaceAt(pc=1, occurrence=0, value=777)
        m.run()
        assert m.io.output(STDOUT) == [777]

    def test_occurrence_counting(self):
        class CountBranches(Intervention):
            def __init__(self):
                self.seen = []

            def branch_outcome(self, instr, occurrence, default):
                self.seen.append(occurrence)
                return default

        src = """
        .func main 0
            li r1, 3
        loop:
            addi r1, r1, -1
            br r1, loop
            halt
        .end
        """
        m = Machine(assemble(src))
        iv = CountBranches()
        m.intervention = iv
        m.run()
        assert iv.seen == [0, 1, 2]


# --- cost model & snapshots ------------------------------------------------------
class TestCostAndSnapshot:
    def test_cycles_accumulate(self):
        m, res = run(SIMPLE_SRC)
        assert res.cycles.base > 0
        assert res.cycles.overhead == 0
        assert res.cycles.slowdown == 1.0

    def test_overhead_accounting(self):
        m = Machine(assemble(SIMPLE_SRC))
        m.add_overhead(100)
        res = m.run()
        assert res.cycles.overhead == 100
        assert res.cycles.slowdown > 1.0

    def test_custom_cost_model(self):
        cm = CostModel(costs={Opcode.LI: 50}, default=1)
        m = Machine(assemble(SIMPLE_SRC), cost_model=cm)
        res = m.run()
        assert res.cycles.base == 51  # LI=50 + HALT=1

    def test_snapshot_restore_reproduces(self):
        src = """
        .func main 0
            li r1, 0
            li r2, 10
        loop:
            add r1, r1, r2
            addi r2, r2, -1
            br r2, loop
            out r1, 1
            halt
        .end
        """
        m = Machine(assemble(src))
        # run a few instructions, snapshot, run to completion
        m.run(max_instructions=8)
        snap = take_snapshot(m)
        res1 = m.run(max_instructions=1_000_000)
        out1 = m.io.output(STDOUT)
        # restore and re-run the continuation
        restore_snapshot(m, snap)
        m.halted = False
        res2 = m.run(max_instructions=1_000_000)
        assert m.io.output(STDOUT) == out1 == [55]

    def test_snapshot_isolated_from_later_writes(self):
        m = Machine(assemble(SIMPLE_SRC))
        snap = take_snapshot(m)
        m.memory.store(5000, 1)
        assert snap.memory.load(5000) == 0

    def test_snapshot_size_cells(self):
        m = Machine(assemble(SIMPLE_SRC))
        snap = take_snapshot(m)
        assert snap.size_cells >= len(m.threads[0].regs)


# --- construction ----------------------------------------------------------------
def test_machines_trust_the_linked_program(monkeypatch):
    """``link`` validates a program once; building machines from it
    (plain, instrumented, with telemetry) validates nothing again."""
    from repro.isa.program import Program
    from repro.telemetry import Telemetry

    program = assemble(SIMPLE_SRC)
    calls = []
    monkeypatch.setattr(Program, "validate", lambda self: calls.append(self))
    machines = [Machine(program) for _ in range(3)]
    machines.append(Machine(program, telemetry=Telemetry.on()))
    machines[0].instrument(lambda pc: lambda tid, seq, addr: None)
    assert calls == []
    assert all(m.run().status is RunStatus.HALTED for m in machines)
