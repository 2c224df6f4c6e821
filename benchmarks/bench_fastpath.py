"""Fast path — wall-clock speedup with bit-identical observables.

Not a paper claim: the fast-path flags only change how fast the *host*
runs the simulation.  This benchmark times the E1 ONTRAC workload suite
with the flags off vs on — on a traced run that is the precompiled VM
dispatch; ONTRAC runs its compiled hook into the packed store either
way — asserts the record streams and modeled cycles match, and
requires the >=2x speedup the fast path was built for.
"""

from conftest import report

from repro.harness.experiments import run_fastpath


def test_fastpath_speedup(benchmark):
    result = benchmark.pedantic(run_fastpath, rounds=1, iterations=1)
    report(result)
    assert result.headline["bit_identical"] == 1.0
    assert result.headline["traced_suite_speedup"] >= 2.0
    # The introspection counters prove the fast paths actually engaged
    # (the chunk gauge is the tracer-side signal: rows reached the
    # packed store).
    assert result.metrics["fastpath.dispatch_hits"] > 0
    assert result.metrics["ontrac.store.chunks"] > 0
    assert result.metrics["shadow.pages_allocated"] > 0
