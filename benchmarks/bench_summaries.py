"""Function-summary DIFT — call-region replay vs instruction-level work.

ONTRAC elides statically-taint-free basic blocks; summaries lift the
same idea to call granularity: the first execution of a CALL-delimited
region is distilled into its taint transfer function, and later calls
with a matching footprint apply it in O(footprint), skipping
instruction-level propagation of the whole region.  Both sides of this
benchmark consume identical marked record streams, and the summary
side pays its own learning inside the timed pass (fresh cache per
pass) — the numbers are single-run honest, not warm-cache best cases.

Gated claims:

* propagation on the 0%-polymorphic call-heavy workload is >=5x the
  bare batch kernel;
* the whole DIFT suite (six call-free spec workloads + the call-heavy
  trio) aggregates to >=2x — summaries must pay for themselves even
  with call-free and 50%-polymorphic members dragging the mean;
* observables are bit-identical and the record ledger reconciles:
  every consumed record is a marker, an elided region record, or a
  record the inner kernel actually propagated;
* the 50%-polymorphic member shows invalidations (the guard machinery
  demonstrably fired) while still holding identity.
"""

from conftest import report

from repro.harness.experiments import run_summaries


def test_summary_replay_speedup(benchmark):
    result = benchmark.pedantic(run_summaries, rounds=1, iterations=1)
    report(result)
    # Equivalence is the contract: a fast diverging replay is worthless.
    assert result.headline["identical"] == 1.0
    assert result.headline["reconciled"] == 1.0
    # The tentpole gates: call-heavy >=5x, suite aggregate >=2x.
    headline = result.headline
    assert headline["callheavy_speedup"] >= headline["target_callheavy_speedup"]
    assert headline["aggregate_speedup"] >= headline["target_aggregate_speedup"]
    # Polymorphic calls exercised the invalidation path, yet identity held.
    assert result.headline["polymorphic_invalidations"] > 0
    # Summaries actually engaged and elided real work.
    assert result.metrics["dift.summaries.hits"] > 0
    assert result.metrics["dift.summaries.records_elided"] > 0
