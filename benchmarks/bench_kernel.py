"""Vectorized batch-propagation kernel — array vs reference throughput.

The paper's premise is that DIFT propagation, decoupled from execution
behind a compact record stream, can be made cheap (§2.1).  This
benchmark gates the software version of that claim: both kernels
consume the *same* captured record streams (the ring wire format), so
the number is pure propagation throughput with VM execution factored
out.

Gated claims:

* aggregate propagation throughput over the DIFT-heavy suite is >=3x
  the pure-python reference kernel (per-workload rows are recorded but
  not individually gated — short streams amortize the batch decode and
  selection probes poorly);
* observables are bit-identical: alerts, stats, shadow taint sets and
  the peak-location high-water mark (``identical`` must be 1.0 — a
  fast diverging kernel is worthless).

On hosts without numpy the speedup gate is skipped (the array kernel
falls back to the reference implementation); identity still holds
trivially and is asserted.
"""

from conftest import report, require_numpy

from repro.harness.experiments import run_kernel


def test_kernel_propagation_speedup(benchmark):
    require_numpy()
    result = benchmark.pedantic(run_kernel, rounds=1, iterations=1)
    report(result)
    # Equivalence is the contract: a fast diverging kernel is worthless.
    assert result.headline["identical"] == 1.0
    assert result.headline["numpy_available"] == 1.0
    # The tentpole gate: >=3x aggregate propagation throughput.
    assert result.headline["propagation_speedup"] >= result.headline["target_speedup"]
    # The array kernel actually engaged (batches consumed through it).
    assert result.metrics["dift.kernel.batches"] > 0
    assert result.metrics["dift.kernel.records"] > 0
