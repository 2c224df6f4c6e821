"""Experiment fan-out: ``run_all`` with process-per-experiment workers.

``test_experiment_fanout`` times four paper experiments sequentially and
fanned out over four worker processes, asserts the fan-out returns the
same headline numbers in selection order, and writes
BENCH_parallel_workers.json.  Its speedup gates depend on the CPUs the
host has: >=2x with >=4 usable CPUs, >=1.2x with 2 or 3, recorded only
on one.  The paper's helper core is scored in modeled cycles by
``bench_e4_multicore``.
"""

import time

from conftest import report

from repro.harness.experiments import ExperimentResult, run_all, usable_cpus


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
