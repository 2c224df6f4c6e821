"""Execution reduction on a long-running multithreaded server (§2.2).

The MySQL-case-study workflow:

1. the server runs under cheap checkpointing & logging (fine-grained
   tracing OFF) until a rare malformed request corrupts a worker's heap
   and a later integrity check fails;
2. the reducer analyzes the replay log: picks the last checkpoint
   before the failure and the transitively-interacting thread set;
3. only that region — a percent or two of the execution, two of five
   threads — is replayed with ONTRAC tracing ON;
4. the dependence trace of the replayed window is small enough to
   slice, and the backward slice of the failed assertion reaches the
   malformed request's input.

Run:  python examples/server_execution_reduction.py
"""

from repro.isa import Opcode
from repro.ontrac import OntracConfig
from repro.reduction import CheckpointingLogger, ExecutionReducer
from repro.slicing import multithreaded_backward_slice
from repro.workloads.server import build_server


def main():
    scenario = build_server(workers=4, requests=160, busywork=10)
    runner = scenario.runner()
    print(f"server: {scenario.workers} workers, {len(scenario.requests)} requests; "
          f"malformed request #{scenario.attack_at} targets worker {scenario.victim}")

    # Phase 1: normal operation, logging on.
    machine = runner.machine()
    logger = CheckpointingLogger(checkpoint_interval=8000).attach(machine)
    result = machine.run()
    log = logger.finalize()
    print(f"\n[logging phase] {result.status.value}: {result.failure}")
    print(f"  logging slowdown {result.cycles.slowdown:.2f}x, "
          f"{len(log.checkpoints)} checkpoints, {log.events_logged} events logged")

    # Phase 2: execution reduction.
    reducer = ExecutionReducer(runner.program, log)
    plan = reducer.plan()
    print(f"\n[reduction phase] replay from checkpoint @seq {plan.checkpoint_seq}, "
          f"threads {sorted(plan.include_tids)} of {scenario.workers + 1}")

    # Phase 3: traced replay of the relevant region only.
    outcome = reducer.reduce_and_trace(OntracConfig(buffer_bytes=1 << 24))
    print(f"\n[replay phase] reproduced={outcome.replay.reproduced_failure} "
          f"(fallback={outcome.fell_back_to_all_threads})")
    print(f"  replayed {outcome.replay.replayed_instructions} of "
          f"{outcome.total_instructions} instructions "
          f"({outcome.replayed_fraction * 100:.1f}%)")
    print(f"  captured {outcome.traced_dependences} dependences "
          f"(vs the whole execution's millions-scale trace)")

    # Debug: slice the failed assertion back to the malformed request.
    ddg = outcome.tracer.dependence_graph()
    failure = outcome.replay.result.failure
    criterion = max(s for s, _ in ddg.node_items() if s <= failure.seq)
    sl = multithreaded_backward_slice(ddg, criterion)
    compiled = scenario.compiled
    slice_lines = sorted(sl.statement_lines(compiled))
    print(f"\n[slicing] backward slice of the assert: {len(sl.seqs)} instances "
          f"across source lines {slice_lines}")
    loads_of_integrity_word = [
        s for s in sl.seqs
        if runner.program.code[ddg.pc_of(s)].opcode is Opcode.LOAD
    ]
    print(f"  (the corrupted integrity word's load is among "
          f"{len(loads_of_integrity_word)} loads in the slice)")
    assert outcome.replay.reproduced_failure


if __name__ == "__main__":
    main()
