"""Out-of-process DIFT helper — real-worker offload vs the inline engine.

Where ``bench_e4_multicore`` scores the paper's *modeled* helper core in
simulated cycles, this benchmark times the real thing: a worker process
consuming the shared-memory ring (``repro.multicore.parallel``) against
the inline engine on the DIFT-heavy workload suite, with every run's
alerts, taint sets and stats asserted identical.

Two of the reported numbers are host-dependent and two are not:

* ``suite_speedup`` (end-to-end wall clock) and the per-workload rows
  are bounded by the slower side of the split: on a single-CPU host the
  parent and the worker time-share one core (parity is the ceiling), and
  even with real parallelism the worker's propagation rate caps the
  pipeline near inline parity.  The >=2-CPU assertion therefore demands
  no material end-to-end regression, and the measured value plus the
  work-split projection are recorded as-is in BENCH_parallel.json.
* ``app_core_speedup`` (application-core CPU, ``time.process_time``,
  which never counts the worker's cycles) is host-independent and is
  asserted unconditionally: offloading must cut the main core's DIFT
  overhead >=1.5x, the paper's actual claim (§2.1).  The comparator is
  per-event inline propagation (the reference kernel) — the claim is
  about where that per-record work runs.  The vectorized batch kernel
  changes the economics on purpose: ``app_core_speedup_vs_array_inline``
  records (ungated) that batched *inline* propagation now rivals
  offloading on-core, and ``worker_kernel_lift`` shows what the array
  kernel buys the worker pipeline itself.

``test_experiment_fanout`` covers the second layer: ``run_all`` with a
process-per-experiment fan-out vs the sequential sweep, with the same
CPU gating (>=2x needs >=4 usable CPUs for 4 workers).
"""

import time

from conftest import report

from repro.harness.experiments import ExperimentResult, run_all, run_parallel, usable_cpus


def test_parallel_helper_speedup(benchmark):
    result = benchmark.pedantic(run_parallel, rounds=1, iterations=1)
    report(result)
    # Equivalence is the contract: a fast diverging helper is worthless.
    assert result.headline["identical"] == 1.0
    # Host-independent claim: the application core sheds >=1.5x of its
    # DIFT overhead to the worker regardless of how many CPUs exist.
    assert result.headline["app_core_speedup"] >= 1.5
    # End-to-end wall clock is worker-bound: with real parallelism the
    # pipeline must at least hold inline parity (the app core's >=1.5x
    # relief above is the claim); on 1 CPU parent and worker time-share
    # a core, so only record the measured value.
    if result.headline["usable_cpus"] >= 2:
        assert result.headline["suite_speedup"] >= 0.9
    # The channel introspection counters prove the offload engaged.
    assert result.metrics["multicore.parallel.messages"] > 0
    assert result.metrics["multicore.parallel.batches"] > 0
    assert result.metrics["multicore.parallel.defs"] > 0


# Substantive experiments (~1s each) with no shared state: the fan-out
# has real work to overlap and deterministic per-experiment results.
_FANOUT_SELECTION = ["E1", "E3", "E4", "E5"]


def test_experiment_fanout(benchmark):
    def measure():
        t0 = time.perf_counter()
        sequential = run_all(_FANOUT_SELECTION)
        sequential_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        fanned = run_all(_FANOUT_SELECTION, workers=4, timeout_s=300.0)
        fanned_s = time.perf_counter() - t0
        return sequential, sequential_s, fanned, fanned_s

    sequential, sequential_s, fanned, fanned_s = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    # Deterministic ordering: fan-out must return results in selection
    # order with the same headline numbers as the sequential sweep.
    assert [r.experiment for r in fanned] == [r.experiment for r in sequential]
    for seq, fan in zip(sequential, fanned):
        assert seq.headline == fan.headline

    cpus = usable_cpus()
    speedup = sequential_s / fanned_s
    result = ExperimentResult(
        experiment="parallel_workers",
        claim="experiments --workers 4 >=2x vs sequential on >=4 CPUs",
        headers=["mode", "experiments", "wall s"],
        rows=[
            ["sequential", len(sequential), sequential_s],
            ["workers=4", len(fanned), fanned_s],
        ],
        headline={
            "fanout_speedup": speedup,
            "usable_cpus": float(cpus),
            "deterministic": 1.0,
        },
    )
    report(result)
    if cpus >= 4:
        assert speedup >= 2.0
    elif cpus >= 2:
        assert speedup >= 1.2
