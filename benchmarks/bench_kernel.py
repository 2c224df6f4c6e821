"""Specialized batch-propagation kernel — array vs reference throughput.

The paper's premise is that DIFT propagation, decoupled from execution
behind a compact record stream, can be made cheap (§2.1).  This
benchmark gates the software version of that claim: both kernels
consume the *same* captured record streams (the ring wire format), so
the number is pure propagation throughput with VM execution factored
out.

Gated claims:

* aggregate propagation throughput over the DIFT-heavy suite is >=3x
  the generic per-record reference kernel (per-workload rows are
  recorded but not individually gated — they vary with taint density);
* observables are bit-identical: alerts, stats, shadow taint sets and
  the peak-location high-water mark (``identical`` must be 1.0 — a
  fast diverging kernel is worthless).
"""

from conftest import report

from repro.harness.experiments import run_kernel


def test_kernel_propagation_speedup(benchmark):
    result = benchmark.pedantic(run_kernel, rounds=1, iterations=1)
    report(result)
    # Equivalence is the contract: a fast diverging kernel is worthless.
    assert result.headline["identical"] == 1.0
    # The tentpole gate: >=3x aggregate propagation throughput.
    assert result.headline["propagation_speedup"] >= result.headline["target_speedup"]
    # The array kernel actually engaged (batches consumed through it).
    assert result.metrics["dift.kernel.batches"] > 0
    assert result.metrics["dift.kernel.records"] > 0
