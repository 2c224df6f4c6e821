"""Differential tests over randomly generated programs.

Cross-checks the stack's global invariants on programs nobody wrote by
hand:

* tracing/instrumentation never changes guest behaviour;
* the online naive tracer and the offline two-phase baseline build the
  same dependence graph;
* the optimized tracer's DDG supports the same backward slices as the
  naive one (the zero-byte inferred edges preserve structure);
* full replay from a log is bit-identical;
* snapshots taken mid-run resume to the same final state.
"""

import pytest

from repro.ontrac import OfflineTracer, OnlineTracer, OntracConfig
from repro.reduction import CheckpointingLogger, Replayer
from repro.slicing import backward_slice
from repro.workloads.generators import GeneratorConfig, generate

from .ddg_oracle import OracleDDG

SEEDS = list(range(12))
INPUT_SEEDS = [100, 101, 102, 103]


def generated(seed, use_inputs=False):
    return generate(seed, GeneratorConfig(use_inputs=use_inputs))


@pytest.mark.parametrize("seed", SEEDS)
def test_tracing_preserves_behaviour(seed):
    gp = generated(seed)
    plain_machine, plain = gp.runner().run()
    traced_machine, tracer, traced = gp.runner().run_traced(OntracConfig())
    assert traced.status is plain.status
    assert traced.instructions == plain.instructions
    assert traced_machine.io.output(1) == plain_machine.io.output(1)
    assert traced.cycles.base == plain.cycles.base  # only overhead differs


@pytest.mark.parametrize("seed", SEEDS)
def test_online_naive_equals_offline_ddg(seed):
    gp = generated(seed)
    _, online, _ = gp.runner().run_traced(OntracConfig.unoptimized(buffer_bytes=1 << 26))
    machine = gp.runner().machine()
    offline = OfflineTracer(gp.compiled.program).attach(machine)
    machine.run(max_instructions=500_000)
    off_ddg = OracleDDG.of(offline.postprocess().buffer)
    on_ddg = OracleDDG.of(online.buffer)
    assert set(on_ddg.nodes) == set(off_ddg.nodes)
    for seq in on_ddg.backward:
        on_edges = {(p, k) for p, k in on_ddg.backward[seq] if k.value in ("reg", "mem")}
        off_edges = {
            (p, k) for p, k in off_ddg.backward.get(seq, []) if k.value in ("reg", "mem")
        }
        assert on_edges == off_edges, f"seq {seq} differs"


@pytest.mark.parametrize("seed", SEEDS)
def test_optimized_slices_equal_naive_slices(seed):
    gp = generated(seed)
    _, naive, _ = gp.runner().run_traced(OntracConfig.unoptimized(buffer_bytes=1 << 26))
    _, optimized, _ = gp.runner().run_traced(
        OntracConfig(buffer_bytes=1 << 26, hot_trace_threshold=5)
    )
    naive_ddg = naive.dependence_graph()
    optimized_ddg = optimized.dependence_graph()
    # slice at the final out() instance (present in both graphs)
    from repro.isa import Opcode

    out_pcs = [
        pc for pc in range(len(gp.compiled.program.code))
        if gp.compiled.program.code[pc].opcode is Opcode.OUT
    ]
    for out_pc in out_pcs:
        criterion = naive_ddg.last_instance_of_pc(out_pc)
        if criterion is None or not optimized_ddg.has_node(criterion):
            continue
        a = backward_slice(naive_ddg, criterion)
        b = backward_slice(optimized_ddg, criterion)
        assert a.seqs == b.seqs, f"slice at pc {out_pc} differs"


@pytest.mark.parametrize("seed", INPUT_SEEDS)
def test_input_programs_roundtrip(seed):
    gp = generated(seed, use_inputs=True)
    m1, r1 = gp.runner().run()
    m2, r2 = gp.runner().run()
    assert m1.io.output(1) == m2.io.output(1)
    assert r1.instructions == r2.instructions


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_replay_from_log_is_identical(seed):
    gp = generated(seed, use_inputs=False)
    runner = gp.runner()
    machine = runner.machine()
    logger = CheckpointingLogger(checkpoint_interval=200).attach(machine)
    result = machine.run(max_instructions=runner.max_instructions)
    log = logger.finalize()
    outcome = Replayer(gp.compiled.program, log).replay()
    assert outcome.machine.io.output(1) == machine.io.output(1)
    assert outcome.result.instructions == result.instructions

    if len(log.checkpoints) > 1:
        mid = log.checkpoints[len(log.checkpoints) // 2]
        partial = Replayer(gp.compiled.program, log).replay(checkpoint=mid)
        assert partial.machine.io.output(1) == machine.io.output(1)


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_snapshot_resume_equivalence(seed):
    from repro.vm import restore_snapshot, take_snapshot

    gp = generated(seed)
    machine = gp.runner().machine()
    machine.run(max_instructions=50)
    snap = take_snapshot(machine)
    machine.run(max_instructions=500_000)
    final_output = machine.io.output(1)

    fresh = gp.runner().machine()
    restore_snapshot(fresh, snap)
    fresh.run(max_instructions=500_000)
    assert fresh.io.output(1) == final_output


def test_generator_is_deterministic():
    a = generate(42).source
    b = generate(42).source
    assert a == b
    assert generate(43).source != a
