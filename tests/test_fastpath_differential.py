"""Differential proof that the fast path is implementation-only.

Every workload family in :mod:`repro.workloads` runs twice — all
fast-path flags forced on, then all forced off — and every observable
must be bit-identical: the RunResult (status, instruction count,
modeled base and overhead cycles, failure info, schedule), the final
VM state (per-thread registers, memory cells, io streams), the full
ONTRAC record stream with its byte accounting and stats tables, the
dependence graph built from it, and DIFT taint state.  Traced runs
also switch ONTRAC's hook: the flags-on side runs the compiled
closure into the packed store and slices with the indexed engine, the
flags-off side runs the class-level ``OnlineTracer.on_instruction``
(see :class:`ReferenceTracer`) and slices with the BFS slicer over
``build_ddg``.  The fast path is allowed to be faster; it is never
allowed to be different.
"""

import pytest

from repro import fastpath
from repro.dift import BoolTaintPolicy, DIFTEngine, SinkRule
from repro.fastpath import FastPathConfig
from repro.ontrac import OnlineTracer, OntracConfig, build_ddg
from repro.tm import Resolution, TMConfig, TransactionalMonitor
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
from repro.workloads.splash_like import tm_kernels

ON = FastPathConfig.all_on()
OFF = FastPathConfig.all_off()

SPEC = suite()
# Small call-heavy trio: under all-on flags the DIFT side runs through
# the function-summary kernel (learn / hit / variant / fallback paths).
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
    nodes = tuple(sorted((n.seq, n.pc, n.tid) for n in ddg.nodes.values()))
    edges = tuple(
        sorted(
            (consumer, producer, kind.value)
            for consumer, deps in ddg.backward.items()
            for producer, kind in deps
        )
    )
    return nodes, edges, ddg.complete


class ReferenceTracer(OnlineTracer):
    """ONTRAC's reference side: the class-level ``on_instruction`` stays
    the hook (no compiled closure) and the dependence graph is
    ``build_ddg`` over the stored records, so queries take the BFS
    slicer instead of the indexed engine."""

    def _install_fast_hook(self):
        pass

    def dependence_graph(self):
        buf = self.buffer
        return build_ddg(buf.records, complete=buf.stats.evicted == 0)


def _run_traced(runner, tracer_cls, config=None):
    m = runner.machine()
    tracer = tracer_cls(runner.program, config).attach(m)
    res = m.run(max_instructions=runner.max_instructions)
    return m, tracer, res


def _plain_state(runner):
    m, res = runner.run()
    return _vm_state(m, res)


def _traced_state(runner, tracer_cls, config=None):
    m, tracer, res = _run_traced(runner, tracer_cls, config)
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


def _dift_state(runner):
    m = runner.machine()
    engine = DIFTEngine(
        BoolTaintPolicy(), sinks=[SinkRule(kind="out", action="record")]
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


def assert_differential(make_runner, state_fn):
    """Run fresh runners under all-on and all-off flags; states must match."""
    with fastpath.overridden(ON):
        fast = state_fn(make_runner())
    with fastpath.overridden(OFF):
        slow = state_fn(make_runner())
    assert fast == slow


def assert_traced_differential(make_runner, state_fn=_traced_state, **kwargs):
    """Like :func:`assert_differential`, with ONTRAC's compiled closure
    on the flags-on side and :class:`ReferenceTracer` on the other."""
    with fastpath.overridden(ON):
        fast = state_fn(make_runner(), OnlineTracer, **kwargs)
    with fastpath.overridden(OFF):
        slow = state_fn(make_runner(), ReferenceTracer, **kwargs)
    assert fast == slow


def test_reference_tracer_keeps_class_hook():
    # Guards the comparison itself: the flags-on side must dispatch to
    # the compiled closure and the reference side to the class method.
    program = SPEC[0].runner().program
    assert "on_instruction" in vars(OnlineTracer(program))
    assert "on_instruction" not in vars(ReferenceTracer(program))


# --- SPEC-like suite --------------------------------------------------------
@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_plain(w):
    assert_differential(w.runner, _plain_state)


@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_traced(w):
    assert_traced_differential(w.runner)


@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_traced_naive(w):
    # Naive mode exercises the INSTR-record path the optimized config skips.
    assert_traced_differential(w.runner, config=OntracConfig.unoptimized())


@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_dift(w):
    assert_differential(w.runner, _dift_state)


# --- call-heavy trio (function-summary coverage) ----------------------------
@pytest.mark.parametrize("w", CALLS, ids=_name)
def test_calls_plain(w):
    assert_differential(w.runner, _plain_state)


@pytest.mark.parametrize("w", CALLS, ids=_name)
def test_calls_traced(w):
    assert_traced_differential(w.runner)


@pytest.mark.parametrize("w", CALLS, ids=_name)
def test_calls_dift(w):
    assert_differential(w.runner, _dift_state)


# --- seeded-bug corpus ------------------------------------------------------
@pytest.mark.parametrize("b", BUGGY, ids=_name)
def test_buggy_failing(b):
    assert_differential(lambda: b.runner(failing=True), _plain_state)


@pytest.mark.parametrize("b", BUGGY, ids=_name)
def test_buggy_passing(b):
    assert_differential(lambda: b.runner(failing=False), _plain_state)


@pytest.mark.parametrize("b", BUGGY, ids=_name)
def test_buggy_failing_traced(b):
    assert_traced_differential(lambda: b.runner(failing=True))


# --- SPLASH-like race kernels ----------------------------------------------
@pytest.mark.parametrize("k", RACES, ids=_name)
def test_race_kernel_plain(k):
    assert_differential(k.runner, _plain_state)


@pytest.mark.parametrize("k", RACES, ids=_name)
def test_race_kernel_traced(k):
    # WAR/WAW records are the multithreaded-slicing extension's path.
    assert_traced_differential(k.runner, config=OntracConfig(record_war_waw=True))


# --- scientific lineage workloads ------------------------------------------
@pytest.mark.parametrize("w", LINEAGE, ids=_name)
def test_lineage_plain(w):
    assert_differential(w.runner, _plain_state)


@pytest.mark.parametrize("w", LINEAGE, ids=_name)
def test_lineage_traced(w):
    assert_traced_differential(w.runner)


@pytest.mark.parametrize("w", LINEAGE, ids=_name)
def test_lineage_dift(w):
    assert_differential(w.runner, _dift_state)


# --- server scenario --------------------------------------------------------
def _server_runner():
    scenario = build_server(workers=2, requests=60, seed=7)
    return scenario.runner()


def test_server_plain():
    assert_differential(_server_runner, _plain_state)


def test_server_traced():
    assert_traced_differential(_server_runner)


def test_server_dift():
    assert_differential(_server_runner, _dift_state)


# --- generated programs -----------------------------------------------------
@pytest.mark.parametrize("seed", GEN_SEEDS)
def test_generated_plain(seed):
    g = generate(seed, GeneratorConfig(use_inputs=True))
    assert_differential(g.runner, _plain_state)


@pytest.mark.parametrize("seed", GEN_SEEDS)
def test_generated_traced(seed):
    g = generate(seed, GeneratorConfig(use_inputs=True))
    assert_traced_differential(g.runner)


# --- TM kernels -------------------------------------------------------------
# ParallelWorkloads are thread-op models driven by the TM monitor, not
# MiniC programs, so no fast-path code runs under them — included so the
# flag genuinely covers every workload family in repro.workloads.
@pytest.mark.parametrize("k", tm_kernels(), ids=_name)
def test_tm_kernel(k):
    def state():
        res = TransactionalMonitor(
            k, TMConfig(resolution=Resolution.SYNC_AWARE)
        ).run()
        return (res.completed, res.livelock, res.commits, res.aborts,
                res.monitored_cycles)

    with fastpath.overridden(ON):
        fast = state()
    with fastpath.overridden(OFF):
        slow = state()
    assert fast == slow


# --- out-of-process parallel helper -----------------------------------------
# Three-way equivalence: the inline engine, the simulated helper core
# (HelperCoreDIFT), and the real worker process (ParallelHelperDIFT)
# must produce identical taint observables on every run.  Guest-side
# cycle accounting is excluded on purpose — the simulated helper bills
# channel costs to the machine while the real worker bills nothing —
# but everything DIFT *detects* has to match bit for bit.
from repro.multicore import HelperCoreDIFT, ParallelHelperDIFT  # noqa: E402


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
    stats = tool.stats if hasattr(tool, "stats") else tool.engine.stats
    return (
        tuple(sorted(shadow.mem_items().items())),
        tuple(sorted(shadow.regs.items())),
        tuple(str(alert) for alert in tool.alerts),
        (stats.instructions, stats.tainted_instructions,
         stats.sources, stats.sink_checks),
    )


def _record_sinks():
    return [SinkRule(kind="out", action="record")]


def _three_way_states(make_runner):
    states = []
    for make_tool in (
        lambda m: DIFTEngine(BoolTaintPolicy(), sinks=_record_sinks()).attach(m),
        lambda m: HelperCoreDIFT(BoolTaintPolicy(), sinks=_record_sinks()).attach(m),
        lambda m: ParallelHelperDIFT(
            BoolTaintPolicy(), sinks=_record_sinks(), batch_size=64
        ).attach(m),
    ):
        runner = make_runner()
        m = runner.machine()
        tool = make_tool(m)
        res = m.run(max_instructions=runner.max_instructions)
        if isinstance(tool, ParallelHelperDIFT):
            tool.finish()
        states.append((_guest_obs(m, res), _taint_obs(tool)))
    return states


@pytest.mark.parametrize("w", SPEC, ids=_name)
def test_spec_dift_three_way(w):
    inline, simulated, parallel = _three_way_states(w.runner)
    assert inline == simulated
    assert inline == parallel


def test_server_dift_three_way():
    inline, simulated, parallel = _three_way_states(_server_runner)
    assert inline == simulated
    assert inline == parallel


# --- slice equality: packed indexed engine vs BFS over build_ddg --------------
# The tests above prove the record stream and the materialized DDG are
# identical; these prove the *query layer* is too — every backward and
# forward slice must produce the same (seqs, pcs, truncated) under the
# packed store's indexed engine (flags on) as under the dict-walking
# BFS slicer over build_ddg (ReferenceTracer, flags off).
from repro.slicing import (  # noqa: E402
    backward_slice,
    forward_slice,
    multithreaded_backward_slice,
)


def _slice_state(runner, tracer_cls, config=None, n_criteria=8, multithreaded=False):
    _, tracer, _ = _run_traced(runner, tracer_cls, config)
    ddg = tracer.dependence_graph()
    seqs = sorted(seq for seq, _ in ddg.node_items())
    crits = seqs[:: max(1, len(seqs) // n_criteria)][:n_criteria]
    states = []
    for crit in crits + crits:  # repeats drive the packed closure memo
        bs = (multithreaded_backward_slice if multithreaded else backward_slice)(
            ddg, crit
        )
        fs = forward_slice(ddg, crit)
        states.append(
            (crit, tuple(sorted(bs.seqs)), tuple(sorted(bs.pcs)), bs.truncated,
             tuple(sorted(fs.seqs)), tuple(sorted(fs.pcs)))
        )
    return tuple(states)


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
