"""Differential proof that the fast paths are implementation-only.

Every workload family in :mod:`repro.workloads` runs under two
implementations and every observable must be bit-identical: the
RunResult (status, instruction count, modeled base and overhead cycles,
failure info, schedule), the final VM state (per-thread registers,
memory cells, io streams), the full ONTRAC record stream with its byte
accounting and stats tables, the dependence graph built from it, and
DIFT taint state.

- Plain runs pair the VM's compiled dispatch table with the test-side
  spec oracle (``tests/vm_oracle.py``), once without hooks and once
  with every ``InstrEvent`` recorded.
- Traced runs pair ONTRAC's per-pc tracing stubs, translated into the
  machine's steps (``Machine.instrument``) and storing into the packed
  store, queried through the slicing API (indexed engine, pruning,
  cross-thread edges), with the class-level
  ``OnlineTracer.on_instruction`` subscribed as a hook (see
  :class:`ReferenceTracer`), queried through the test-side dict oracle
  (``tests/ddg_oracle.py``) over the stored records.  The same pairing
  runs with other hooks, an intervention, a failing run and telemetry
  on the machine, and a stub-recording analysis holds each pc's static
  ``access_shape`` to the events the VM publishes.
- DIFT runs pair the array kernel under function summaries with the
  reference kernel without them, each named by explicit engine
  arguments.  The helper-core tests below run every (kernel, summaries)
  combination on the inline engine against the simulated helper core.

The fast path is allowed to be faster; it is never allowed to be
different.
"""

from functools import partial

import pytest

from repro.dift import BoolTaintPolicy, DIFTEngine, SinkRule
from repro.isa.instructions import Opcode
from repro.lang import compile_source
from repro.ontrac import OnlineTracer, OntracConfig
from repro.races import SyncRecognizer
from repro.reduction import CheckpointingLogger
from repro.runner import ProgramRunner
from repro.slicing.implicit import PredicateSwitcher
from repro.telemetry import Telemetry
from repro.vm import Hook, VMError
from repro.vm.dispatch import access_shape
from repro.workloads import (
    GeneratorConfig,
    build_server,
    call_heavy,
    corpus,
    generate,
    lineage_suite,
    race_kernels,
    suite,
)
from repro.workloads.spec_like import Workload

from .ddg_oracle import OracleDDG
from .vm_oracle import install_oracle

SPEC = suite()
# Small call-heavy trio: the fast DIFT side runs through the
# function-summary kernel (learn / hit / variant / fallback paths).
CALLS = [
    call_heavy(0, iterations=12, stmts=8, name="calls-p0"),
    call_heavy(10, iterations=12, stmts=8, name="calls-p10"),
    call_heavy(2, iterations=12, stmts=8, name="calls-p50"),
]
BUGGY = corpus()
RACES = race_kernels()
LINEAGE = lineage_suite()
GEN_SEEDS = list(range(10))

_name = lambda w: w.name  # noqa: E731


# --- canonical observable state --------------------------------------------
def _vm_state(m, res):
    """Everything observable about one finished run, as comparable data."""
    failure = res.failure
    return (
        res.status,
        res.instructions,
        res.cycles.base,
        res.cycles.overhead,
        tuple(res.schedule),
        None
        if failure is None
        else (failure.kind, failure.tid, failure.pc, failure.seq, failure.message),
        tuple(
            (t.tid, t.pc, tuple(t.regs), t.status, t.result, t.instructions)
            for t in m.threads
        ),
        tuple(sorted(m.memory.cells.items())),
        tuple(sorted((ch, tuple(vals)) for ch, vals in m.io.outputs.items())),
    )


def _ddg_state(ddg):
    """Node table and edges: through the query API on a PackedDDG, from
    the dicts on the oracle."""
    if isinstance(ddg, OracleDDG):
        nodes = ((seq, pc, tid) for seq, (pc, tid) in ddg.nodes.items())
        edges = ((c, p, k.value) for c, deps in ddg.backward.items() for p, k in deps)
    else:
        nodes = ((seq, pc, ddg.tid_of(seq)) for seq, pc in ddg.node_items())
        edges = ((c, p, k.value) for c, _, _, p, _, k in ddg.iter_edge_rows())
    return tuple(sorted(nodes)), tuple(sorted(edges)), ddg.complete


class ReferenceTracer(OnlineTracer):
    """ONTRAC's reference side: the class-level ``on_instruction`` is
    subscribed as a hook (the machine is not instrumented) and the
    dependence graph is the dict oracle over the stored records, so
    queries take its BFS instead of the indexed engine."""

    def attach(self, machine):
        self.machine = machine
        machine.hooks.subscribe(self)
        return self

    def dependence_graph(self):
        return OracleDDG.of(self.buffer)


def _run_traced(runner, tracer_cls, config=None):
    m = runner.machine()
    tracer = tracer_cls(runner.program, config).attach(m)
    res = m.run(max_instructions=runner.max_instructions)
    return m, tracer, res


class EventLog(Hook):
    """Records every published InstrEvent as comparable data."""

    def __init__(self):
        self.events = []

    def on_instruction(self, ev):
        self.events.append(
            (ev.seq, ev.tid, ev.pc, ev.reg_reads, ev.reg_writes, ev.mem_reads,
             ev.mem_writes, ev.taken, ev.callee, ev.alloc, ev.channel, ev.io_value,
             ev.input_index)
        )


def _plain_state(runner, oracle=False, log_events=False):
    m = runner.machine()
    if oracle:
        install_oracle(m)
    log = m.hooks.subscribe(EventLog()) if log_events else None
    res = m.run(max_instructions=runner.max_instructions)
    return _vm_state(m, res), log.events if log_events else None


def _traced_state(runner, tracer_cls, config=None):
    return _traced_observables(*_run_traced(runner, tracer_cls, config))


def _traced_observables(m, tracer, res):
    stats = tracer.stats
    bstats = tracer.buffer.stats
    records = tuple(
        (r.kind, r.consumer_seq, r.consumer_pc, r.producer_seq, r.producer_pc, r.tid, r.bytes)
        for r in tracer.buffer.records
    )
    return (
        _vm_state(m, res),
        records,
        stats.instructions,
        dict(stats.stored),
        dict(stats.skipped),
        stats.stored_bytes,
        (bstats.appended, bstats.appended_bytes, bstats.evicted,
         bstats.evicted_bytes, bstats.peak_bytes, bstats.eviction_passes),
        _ddg_state(tracer.dependence_graph()),
    )


def _dift_state(runner, kernel, summaries):
    m = runner.machine()
    engine = DIFTEngine(
        BoolTaintPolicy(),
        sinks=[SinkRule(kind="out", action="record")],
        kernel=kernel,
        summaries=summaries,
    ).attach(m)
    res = m.run(max_instructions=runner.max_instructions)
    shadow = engine.shadow
    return (
        _vm_state(m, res),
        tuple(sorted(shadow.mem_items().items())),
        tuple(sorted(shadow.regs.items())),
        tuple(str(alert) for alert in engine.alerts),
        (engine.stats.instructions, engine.stats.tainted_instructions,
         engine.stats.sources, engine.stats.sink_checks),
    )


def assert_oracle_differential(make_runner):
    """The dispatch table against the spec oracle, without hooks (the
    native path) and with every event recorded; states must match."""
    for log_events in (False, True):
        fast = _plain_state(make_runner(), log_events=log_events)
        assert fast == _plain_state(make_runner(), oracle=True, log_events=log_events)


def assert_dift_differential(make_runner):
    """The array kernel under function summaries against the reference
    kernel without them, on fresh runners; states must match."""
    fast = _dift_state(make_runner(), kernel="array", summaries=True)
    assert fast == _dift_state(make_runner(), kernel="reference", summaries=False)


def assert_traced_differential(make_runner, state_fn=_traced_state, **kwargs):
    """ONTRAC's tracing stubs against :class:`ReferenceTracer` on fresh
    runners; states must match."""
    fast = state_fn(make_runner(), OnlineTracer, **kwargs)
    assert fast == state_fn(make_runner(), ReferenceTracer, **kwargs)


def test_reference_tracer_keeps_class_hook():
    # Guards the comparison itself: the fast side must run fused into the
    # machine's steps, receiving no event, and the reference side must be
    # the class method subscribed as a hook.
    class Tripwire(OnlineTracer):
        def on_instruction(self, ev):
            raise AssertionError("the fused tracer received an InstrEvent")

    # Hot and cold opcodes, threads and locks, a failing ICALL.
    for runner in (SPEC[0].runner(), RACES[0].runner(), _bad_icall_runner()):
        m, fast, res = _run_traced(runner, Tripwire)
        assert not m.hooks.hooks and res.instructions > 0
        # the failing ICALL reaches the tracer without completing
        assert fast.stats.instructions == res.instructions + (res.failure is not None)
        for step, stub in zip(m._dispatch, m._stubs):
            assert stub.__name__ == "stub"
            if step != m._execute:  # each hot step calls its own pc's stub
                assert stub in [cell.cell_contents for cell in step.__closure__]
    m, ref, _ = _run_traced(SPEC[0].runner(), ReferenceTracer)
    assert m._stubs is None and m.hooks.hooks == [ref]
    assert "on_instruction" not in vars(ref)


# --- the static operand shape against the published events -----------------
class StubLog:
    """A translation-time analysis whose stubs record every call."""

    def __init__(self):
        self.calls = []

    def translate(self, pc):
        calls = self.calls

        def stub(tid, seq, addr):
            calls.append((seq, tid, pc, addr))

        return stub


def _generated_runner(seed):
    return generate(seed, GeneratorConfig(use_inputs=True)).runner()


SHAPE_RUNNERS = (
    [pytest.param(w.runner, id=w.name) for w in SPEC + CALLS + RACES]
    + [pytest.param(partial(b.runner, failing=True), id=b.name) for b in BUGGY]
    + [pytest.param(partial(_generated_runner, seed), id=f"gen{seed}") for seed in GEN_SEEDS]
)


@pytest.mark.parametrize("make_runner", SHAPE_RUNNERS)
def test_access_shape_matches_published_events(make_runner):
    # A stub is specialized on its pc's static shape, so the shape must be
    # exactly the register and memory sides of the event the same step
    # publishes, and the stub's addr the event's one memory address (the
    # child tid for SPAWN).
    runner = make_runner()
    m = runner.machine()
    log = m.hooks.subscribe(EventLog())
    stubs = StubLog()
    m.instrument(stubs.translate)
    m.run(max_instructions=runner.max_instructions)
    code = runner.program.code
    assert log.events and len(stubs.calls) == len(log.events)
    for event, call in zip(log.events, stubs.calls):
        seq, tid, pc, reads, writes, mem_reads, mem_writes = event[:7]
        instr = code[pc]
        assert access_shape(instr) == (
            tuple(dict.fromkeys(reg for reg, _ in reads)),
            tuple(dict.fromkeys(reg for reg, _ in writes)),
            bool(mem_reads),
            bool(mem_writes),
        ), instr
        cells = mem_reads + mem_writes
        assert len(cells) <= 1, instr
        addr = cells[0][0] if cells else writes[0][1] if instr.opcode is Opcode.SPAWN else 0
        assert call == (seq, tid, pc, addr), instr


def test_machine_takes_one_instrumenting_analysis():
    m = SPEC[0].runner().machine()
    m.instrument(StubLog().translate)
    with pytest.raises(VMError, match="already instrumented"):
        m.instrument(StubLog().translate)


# --- the fused tracer in company ---------------------------------------------
# Other hooks, an intervention, a failing run and telemetry on the same
# machine as the tracer: the fused side must match the reference hook in
# its rows, stats and cycles, and leave what the other hooks see unchanged.
def _company_state(make_runner, tracer_cls, company, config=None):
    runner = make_runner()
    m = runner.machine()
    tracer = None

    def attach():
        nonlocal tracer
        tracer = tracer_cls(runner.program, config).attach(m)

    observed = company(m, attach)
    res = m.run(max_instructions=runner.max_instructions)
    return _traced_observables(m, tracer, res) + (observed(), m._stubs is not None)


def _event_logs(m, attach):
    first = m.hooks.subscribe(EventLog())
    attach()
    second = m.hooks.subscribe(EventLog())
    return lambda: (first.events, second.events)


def _logger_and_recognizer(m, attach):
    # E9's machine: tracer, checkpointing logger, flag-sync recognizer.
    attach()
    logger = CheckpointingLogger(checkpoint_interval=64).attach(m)
    recognizer = m.hooks.subscribe(SyncRecognizer())

    def observed():
        log = logger.finalize()
        checkpoints = [(cp.seq, cp.segment_index) for cp in log.checkpoints]
        return (log.schedule, log.inputs, log.syncs, checkpoints, log.final_seq,
                recognizer.flag_syncs)

    return observed


def _predicate_switch(m, attach):
    branch = next(i.index for i in m.program.code if i.opcode in (Opcode.BR, Opcode.BRZ))
    m.intervention = switcher = PredicateSwitcher(branch, occurrence=0)
    attach()
    return lambda: switcher.fired


def _published_count(m, attach):
    attach()
    return lambda: m.telemetry.registry.counter("vm.events.published").value


VULNERABLE = compile_source(
    "fn safe(x) { out(1, 1); }\n"
    "fn admin(x) { out(2, 1); }\n"
    "fn main() {\n"
    "    var fp = alloc(1);\n"
    "    fp[0] = in(0);\n"
    "    icall(fp[0], 0);\n"
    "}\n"
).program


def _bad_icall_runner():
    return ProgramRunner(VULNERABLE, inputs={0: [99]})


def _telemetry_runner():
    runner = SPEC[0].runner()
    runner.telemetry = Telemetry.on()
    return runner


COMPANY = {
    "event-logs-matmul": (SPEC[0].runner, _event_logs, None),
    "event-logs-server": (lambda: _server_runner(), _event_logs, None),
    **{
        f"logger-recognizer-{k.name}": (
            k.runner, _logger_and_recognizer, OntracConfig(record_war_waw=True))
        for k in RACES
    },
    **{
        f"predicate-switch-{b.name}": (partial(b.runner, failing=True), _predicate_switch, None)
        for b in BUGGY
        if any(i.opcode in (Opcode.BR, Opcode.BRZ) for i in b.runner(failing=True).program.code)
    },
    "bad-icall": (_bad_icall_runner, _event_logs, None),
    "telemetry": (_telemetry_runner, _published_count, None),
}


@pytest.mark.parametrize("case", sorted(COMPANY))
def test_fused_tracer_in_company(case):
    make_runner, company, config = COMPANY[case]
    fast = _company_state(make_runner, OnlineTracer, company, config)
    ref = _company_state(make_runner, ReferenceTracer, company, config)
    assert fast[-1] and not ref[-1]  # fused, even with telemetry on
    assert fast[:-1] == ref[:-1]


# --- SPEC-like suite --------------------------------------------------------
@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_plain(w):
    assert_oracle_differential(w.runner)


@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_traced(w):
    assert_traced_differential(w.runner)


@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_traced_naive(w):
    # Naive mode exercises the INSTR-record path the optimized config skips.
    assert_traced_differential(w.runner, config=OntracConfig.unoptimized())


@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_dift(w):
    assert_dift_differential(w.runner)


# --- call-heavy trio (function-summary coverage) ----------------------------
@pytest.mark.parametrize("w", CALLS, ids=_name)
def test_calls_plain(w):
    assert_oracle_differential(w.runner)


@pytest.mark.parametrize("w", CALLS, ids=_name)
def test_calls_traced(w):
    assert_traced_differential(w.runner)


@pytest.mark.parametrize("w", CALLS, ids=_name)
def test_calls_dift(w):
    assert_dift_differential(w.runner)


# --- ONTRAC stubs under every specialised config and window size -----------
# Branches whose region ends at a function's exit, under a caller's open
# region and in recursion: the stubs' call-depth bookkeeping.
EARLY_RETURN = Workload(
    "early-return",
    compile_source("""
    fn sign(x) {
        if (x < 0) { return 0 - 1; }
        return 1;
    }
    fn fact(n) {
        if (n < 2) { return 1; }
        return n * fact(n - 1);
    }
    fn main() {
        var i = 0;
        var s = 0;
        while (i < 12) {
            var v = in(0);
            if (v > 3) { s = s + sign(v - 6) * fact(i % 5); }
            s = s + i;
            i = i + 1;
        }
        out(s, 1);
    }
    """),
    {0: [1, 5, 9, 2, 7, 8, 3, 6, 4, 10, 0, 11]},
    "calls into branchy and recursive functions",
)
STUB_WORKLOADS = SPEC + CALLS + RACES[:1] + [EARLY_RETURN]


def _selected(runner):
    """Every other function, so traced and untraced code both run (the
    single-function suite programs trace nothing: all summaries)."""
    return frozenset(sorted(runner.program.functions)[1::2])


STUB_CONFIGS = {
    "selective": lambda runner, size: OntracConfig(
        buffer_bytes=size, selective_functions=_selected(runner)),
    "input_forward_slice": lambda runner, size: OntracConfig(
        buffer_bytes=size, input_forward_slice=True),
    "war_waw": lambda runner, size: OntracConfig(
        buffer_bytes=size, record_war_waw=True),
    "naive": lambda runner, size: OntracConfig.unoptimized(buffer_bytes=size),
}


# Each config drives a different statically specialised part of the
# per-pc stubs.  64 bytes evicts on nearly every row (the store's per-row
# fallback), 4000 bytes evicts within a seal, and 1 << 16 holds most runs
# whole (bulk seals).
@pytest.mark.parametrize("w", STUB_WORKLOADS, ids=_name)
@pytest.mark.parametrize("config", sorted(STUB_CONFIGS))
@pytest.mark.parametrize("size", [64, 4000, 1 << 16])
def test_stubs_traced(w, config, size):
    config = STUB_CONFIGS[config](w.runner(), size)
    assert_traced_differential(w.runner, config=config)


# --- seeded-bug corpus ------------------------------------------------------
@pytest.mark.parametrize("b", BUGGY, ids=_name)
def test_buggy_failing(b):
    assert_oracle_differential(lambda: b.runner(failing=True))


@pytest.mark.parametrize("b", BUGGY, ids=_name)
def test_buggy_passing(b):
    assert_oracle_differential(lambda: b.runner(failing=False))


@pytest.mark.parametrize("b", BUGGY, ids=_name)
def test_buggy_failing_traced(b):
    assert_traced_differential(lambda: b.runner(failing=True))


# --- SPLASH-like race kernels ----------------------------------------------
@pytest.mark.parametrize("k", RACES, ids=_name)
def test_race_kernel_plain(k):
    assert_oracle_differential(k.runner)


@pytest.mark.parametrize("k", RACES, ids=_name)
def test_race_kernel_traced(k):
    # WAR/WAW records are the multithreaded-slicing extension's path.
    assert_traced_differential(k.runner, config=OntracConfig(record_war_waw=True))


# --- scientific lineage workloads ------------------------------------------
@pytest.mark.parametrize("w", LINEAGE, ids=_name)
def test_lineage_plain(w):
    assert_oracle_differential(w.runner)


@pytest.mark.parametrize("w", LINEAGE, ids=_name)
def test_lineage_traced(w):
    assert_traced_differential(w.runner)


@pytest.mark.parametrize("w", LINEAGE, ids=_name)
def test_lineage_dift(w):
    assert_dift_differential(w.runner)


# --- server scenario --------------------------------------------------------
def _server_runner():
    scenario = build_server(workers=2, requests=60, seed=7)
    return scenario.runner()


def test_server_plain():
    assert_oracle_differential(_server_runner)


def test_server_traced():
    assert_traced_differential(_server_runner)


def test_server_dift():
    assert_dift_differential(_server_runner)


# --- generated programs -----------------------------------------------------
@pytest.mark.parametrize("seed", GEN_SEEDS)
def test_generated_plain(seed):
    g = generate(seed, GeneratorConfig(use_inputs=True))
    assert_oracle_differential(g.runner)


@pytest.mark.parametrize("seed", GEN_SEEDS)
def test_generated_traced(seed):
    g = generate(seed, GeneratorConfig(use_inputs=True))
    assert_traced_differential(g.runner)


# --- inline engine vs the simulated helper core ----------------------------
# The inline engine under every (kernel, summaries) pair and the
# simulated helper core (HelperCoreDIFT) must produce identical guest
# state and taint observables on every run (the ``three_way`` test
# names are kept so their ids stay stable).  Cycle totals are excluded
# on purpose: the simulated helper bills channel costs to the machine,
# the inline engine bills propagation stubs.
from repro.multicore import HelperCoreDIFT  # noqa: E402


def _guest_obs(m, res):
    return (
        res.status,
        res.instructions,
        tuple(res.schedule),
        tuple(
            (t.tid, t.pc, tuple(t.regs), t.status, t.result, t.instructions)
            for t in m.threads
        ),
        tuple(sorted(m.memory.cells.items())),
        tuple(sorted((ch, tuple(vals)) for ch, vals in m.io.outputs.items())),
    )


def _taint_obs(tool):
    shadow = tool.shadow
    stats = tool.stats
    return (
        tuple(sorted(shadow.mem_items().items())),
        tuple(sorted(shadow.regs.items())),
        tuple(str(alert) for alert in tool.alerts),
        (stats.instructions, stats.tainted_instructions,
         stats.sources, stats.sink_checks),
    )


def _record_sinks():
    return [SinkRule(kind="out", action="record")]


#: every (kernel, summaries) pair the inline engine can run; the
#: simulated helper core always runs the reference kernel per event.
ENGINE_CONFIGS = [
    pytest.param(kernel, summaries, id=f"{kernel}-{'summaries' if summaries else 'plain'}")
    for summaries in (False, True)
    for kernel in ("array", "reference")
]


def _helper_core_states(make_runner, kernel, summaries):
    states = []
    for make_tool in (
        lambda m: DIFTEngine(
            BoolTaintPolicy(), sinks=_record_sinks(), kernel=kernel, summaries=summaries
        ).attach(m),
        lambda m: HelperCoreDIFT(BoolTaintPolicy(), sinks=_record_sinks()).attach(m),
    ):
        runner = make_runner()
        m = runner.machine()
        tool = make_tool(m)
        res = m.run(max_instructions=runner.max_instructions)
        states.append((_guest_obs(m, res), _taint_obs(tool)))
    return states


@pytest.mark.parametrize("kernel,summaries", ENGINE_CONFIGS)
@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_dift_three_way(w, kernel, summaries):
    inline, simulated = _helper_core_states(w.runner, kernel, summaries)
    assert inline == simulated


@pytest.mark.parametrize("kernel,summaries", ENGINE_CONFIGS)
def test_server_dift_three_way(kernel, summaries):
    inline, simulated = _helper_core_states(_server_runner, kernel, summaries)
    assert inline == simulated


# --- query equality: the slicing API vs the dict oracle ----------------------
# The tests above prove the record stream and the dependence graph are
# identical; these prove the *query layer* is too — every backward and
# forward slice, every pruned slice and the cross-thread edge list must
# come out the same through the slicing API over the packed store as
# through the dict oracle's BFS (ReferenceTracer).
from repro.slicing import (  # noqa: E402
    DEFAULT_KINDS,
    MULTITHREADED_KINDS,
    backward_slice,
    cross_thread_dependences,
    forward_slice,
    prune_slice,
)


class PackedQueries:
    """The slicing API over a PackedDDG, answering in the oracle's shape."""

    def __init__(self, ddg):
        self.ddg = ddg

    def backward_slice(self, crit, kinds):
        sl = backward_slice(self.ddg, crit, kinds)
        return sl.seqs, sl.pcs, sl.truncated

    def forward_slice(self, crit, kinds):
        sl = forward_slice(self.ddg, crit, kinds)
        return sl.seqs, sl.pcs, sl.truncated

    def pruned(self, crit, correct, incorrect, kinds):
        pr = prune_slice(self.ddg, backward_slice(self.ddg, crit, kinds),
                         correct, incorrect, kinds)
        return pr.kept_seqs, pr.pruned_seqs

    def cross_thread(self):
        return [(d.kind, d.consumer_seq, d.consumer_pc, d.consumer_tid,
                 d.producer_seq, d.producer_pc, d.producer_tid)
                for d in cross_thread_dependences(self.ddg)]


def _oracle_pruned(oracle, crit, correct, incorrect, kinds):
    """Confidence pruning's rule over the oracle: a slice member is
    pruned iff it reaches a correct output, no incorrect one, and is not
    the criterion."""
    seqs = oracle.backward_slice(crit, kinds)[0]
    good, bad = oracle.reaching(correct, kinds), oracle.reaching(incorrect, kinds)
    pruned = {s for s in seqs if s in good and s not in bad and s != crit}
    return seqs - pruned, pruned


def _slice_state(runner, tracer_cls, config=None, n_criteria=8, multithreaded=False):
    _, tracer, _ = _run_traced(runner, tracer_cls, config)
    ddg = tracer.dependence_graph()
    if isinstance(ddg, OracleDDG):
        q, pruned = ddg, partial(_oracle_pruned, ddg)
    else:
        q = PackedQueries(ddg)
        pruned = q.pruned
    kinds = MULTITHREADED_KINDS if multithreaded else DEFAULT_KINDS
    seqs = sorted(seq for seq, _ in ddg.node_items())
    crits = seqs[:: max(1, len(seqs) // n_criteria)][:n_criteria]
    # A fixed classification of the criteria as outputs drives pruning.
    correct, incorrect = set(crits[::2]), set(crits[1::2])
    states = []
    for crit in crits + crits:  # repeats drive the packed closure memo
        bseqs, bpcs, btrunc = q.backward_slice(crit, kinds)
        fseqs, fpcs, _ = q.forward_slice(crit, DEFAULT_KINDS)
        kept, dropped = pruned(crit, correct, incorrect, kinds)
        states.append(
            (crit, tuple(sorted(bseqs)), tuple(sorted(bpcs)), btrunc,
             tuple(sorted(fseqs)), tuple(sorted(fpcs)),
             tuple(sorted(kept)), tuple(sorted(dropped)))
        )
    return tuple(states), tuple(q.cross_thread())


@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_slices(w):
    assert_traced_differential(w.runner, _slice_state)


@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_slices_evicting_window(w):
    # A window small enough to evict exercises the truncation rule and
    # the packed store's head-offset eviction path on both sides.
    assert_traced_differential(
        w.runner, _slice_state, config=OntracConfig(buffer_bytes=4096)
    )


@pytest.mark.parametrize("b", BUGGY, ids=_name)
def test_buggy_failing_slices(b):
    assert_traced_differential(lambda: b.runner(failing=True), _slice_state)


@pytest.mark.parametrize("k", RACES, ids=_name)
def test_race_kernel_multithreaded_slices(k):
    assert_traced_differential(
        k.runner, _slice_state,
        config=OntracConfig(record_war_waw=True), multithreaded=True,
    )


@pytest.mark.parametrize("w", LINEAGE, ids=_name)
def test_lineage_slices(w):
    assert_traced_differential(w.runner, _slice_state)


def test_server_slices():
    assert_traced_differential(_server_runner, _slice_state)


@pytest.mark.parametrize("seed", GEN_SEEDS)
def test_generated_slices(seed):
    g = generate(seed, GeneratorConfig(use_inputs=True))
    assert_traced_differential(g.runner, _slice_state)
