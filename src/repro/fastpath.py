"""Fast-path execution flags.

The paper's whole argument is that tracing can be cheap *without
changing what is traced*: ONTRAC's compression and inference shrink the
stored stream but the dependences it answers queries about are the same
ones the naive tracer would have stored.  This module applies the same
discipline to the reproduction's own hot loops: each flag switches an
implementation strategy, never a semantic.  A run with every flag off
and a run with every flag on must be bit-identical — same modeled
cycles, same dependence graphs, same taint sets — which is exactly what
``tests/test_fastpath_differential.py`` proves.

Layers that have one implementation have no flag: the VM always runs
its precompiled dispatch table (:mod:`repro.vm.dispatch`), ONTRAC its
per-pc tracing stubs, shadow memory one plain dict
(:mod:`repro.dift.shadow`), and the out-of-process DIFT helper always
batches its channel (:func:`parallel_batch_size`).

Flags:

``array_kernel`` (default **on**)
    Run DIFT propagation through the vectorized batch kernel
    (:class:`repro.dift.kernel.ArrayKernel`): packed 24-byte records
    are decoded with numpy, a conservative location-key fixpoint
    selects the records that can touch taint, and only those replay
    through the per-record reference logic, with the untouched bulk
    accounted in O(1).  Falls back to the pure-python
    :class:`~repro.dift.kernel.ReferenceKernel` when numpy is missing
    or the policy is not array-encodable (see
    :func:`propagation_kernel`).
``summaries`` (default **off** until proven)
    Function-summary DIFT (:mod:`repro.dift.summaries`): the first
    execution of a CALL-delimited region is distilled into a taint
    transfer summary; later calls with a matching footprint apply it
    in O(footprint) and skip instruction-level propagation, with
    automatic invalidation + bounded re-learning on divergence.

Resolution order: explicit argument > process-wide override
(:func:`configure` / :func:`overridden`) > environment
(``REPRO_FASTPATH_KERNEL=reference|array`` picks the propagation
kernel and ``REPRO_FASTPATH_KERNEL_BATCH`` the records-per-batch;
``REPRO_FASTPATH_SUMMARIES`` opts in to function-summary DIFT) >
defaults.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class FastPathConfig:
    """Which fast-path implementations to use; see the module docstring."""

    #: vectorized batch propagation kernel (numpy; auto-falls back).
    array_kernel: bool = True
    #: function-summary DIFT: learn per-call taint transfer functions
    #: and replay them in O(footprint) (default off until proven).
    summaries: bool = False

    @classmethod
    def all_on(cls) -> "FastPathConfig":
        return cls(array_kernel=True, summaries=True)

    @classmethod
    def all_off(cls) -> "FastPathConfig":
        return cls(array_kernel=False, summaries=False)


def _env_bool(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off", "")


def _env_kernel() -> bool:
    """``REPRO_FASTPATH_KERNEL=reference|array`` as the array-kernel bool."""
    raw = os.environ.get("REPRO_FASTPATH_KERNEL")
    if raw is None:
        return True
    value = raw.strip().lower()
    if value in ("array", "1", "true", "yes", "on"):
        return True
    if value in ("reference", "0", "false", "no", "off", ""):
        return False
    raise ValueError(
        f"REPRO_FASTPATH_KERNEL={raw!r}: expected 'reference' or 'array'"
    )


def _env_positive_int(name: str, default: int) -> int:
    """A positive integer from environment variable ``name``; a value
    that is not one raises a ValueError naming the variable."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"{name}={raw!r}: expected a positive integer") from None
    return value


def from_env() -> FastPathConfig:
    """Build the config the environment asks for."""
    return FastPathConfig(
        array_kernel=_env_kernel(),
        summaries=_env_bool("REPRO_FASTPATH_SUMMARIES", False),
    )


#: messages per ring flush of the out-of-process DIFT helper.
DEFAULT_PARALLEL_BATCH = 256


def parallel_batch_size(explicit: int | None = None) -> int:
    """Resolve the parallel helper's messages-per-flush: an explicit
    positive argument (``batch_size=`` / ``--batch-size``), else
    :data:`DEFAULT_PARALLEL_BATCH`."""
    if explicit is None:
        return DEFAULT_PARALLEL_BATCH
    if explicit < 1:
        raise ValueError("batch size must be >= 1")
    return explicit


#: records per inline micro-batch when the array kernel is active.
DEFAULT_KERNEL_BATCH = 2048

#: cached numpy availability (None = not probed yet).
_numpy_available: bool | None = None

#: times an array-kernel request fell back to the reference kernel,
#: keyed by reason ("numpy" | "policy"); read by engine telemetry.
kernel_fallbacks: dict[str, int] = {}

_fallback_warned = False


def numpy_available() -> bool:
    """Whether numpy can be imported (probed once, cached)."""
    global _numpy_available
    if _numpy_available is None:
        try:
            import numpy  # noqa: F401
        except ImportError:
            _numpy_available = False
        else:
            _numpy_available = True
    return _numpy_available


def note_kernel_fallback(reason: str, *, explicit: bool) -> None:
    """Count (and, for explicit requests, warn once about) an
    array-kernel request that fell back to the reference kernel."""
    global _fallback_warned
    kernel_fallbacks[reason] = kernel_fallbacks.get(reason, 0) + 1
    if explicit and not _fallback_warned:
        import warnings

        warnings.warn(
            f"array propagation kernel requested but unavailable ({reason}); "
            "falling back to the reference kernel",
            RuntimeWarning,
            stacklevel=3,
        )
        _fallback_warned = True


def propagation_kernel(explicit: str | None = None) -> str:
    """Resolve the propagation kernel name: ``"array"`` or ``"reference"``.

    An explicit name wins, otherwise the ``array_kernel`` config flag
    (``REPRO_FASTPATH_KERNEL=reference|array``, default array).  The
    array kernel additionally requires numpy: when it is missing the
    resolution falls back to ``"reference"``, counted in
    :data:`kernel_fallbacks` — with a one-line warning only when the
    array kernel was *explicitly* requested (argument or environment),
    so the importable-by-default path stays silent.
    """
    if explicit not in (None, "array", "reference"):
        raise ValueError(f"unknown propagation kernel {explicit!r}")
    if explicit == "reference":
        return "reference"
    if explicit is None and not current().array_kernel:
        return "reference"
    if numpy_available():
        return "array"
    asked = explicit == "array" or os.environ.get("REPRO_FASTPATH_KERNEL") is not None
    note_kernel_fallback("numpy", explicit=asked)
    return "reference"


def kernel_batch_size(explicit: int | None = None) -> int:
    """Records per inline micro-batch for the array kernel.

    An explicit positive argument wins, then
    ``REPRO_FASTPATH_KERNEL_BATCH``, then :data:`DEFAULT_KERNEL_BATCH`.
    Purely an implementation knob: any positive value yields
    bit-identical observables (the differential suite proves it).
    """
    if explicit is not None:
        if explicit < 1:
            raise ValueError("kernel batch size must be >= 1")
        return explicit
    return _env_positive_int("REPRO_FASTPATH_KERNEL_BATCH", DEFAULT_KERNEL_BATCH)


def service_degrade_enabled(explicit: bool | None = None) -> bool:
    """Resolve the analysis service's degraded-mode policy.

    When on (the default), an overloaded daemon sheds *fidelity* first
    — full tracing falls back to DIFT-only, then logging-only, the
    paper's §2.2 cheap-logging/expensive-replay split — and only sheds
    *jobs* (REJECTED) at the hard capacity wall.  When off, overload
    goes straight to REJECTED with no degraded rung.

    Unlike the implementation flags above this is an admission *policy*,
    not a bit-identity lever, so it lives beside — not inside —
    :class:`FastPathConfig`: an explicit argument wins, otherwise
    ``REPRO_SERVICE_DEGRADE`` decides (default on).
    """
    if explicit is not None:
        return explicit
    return _env_bool("REPRO_SERVICE_DEGRADE", True)


#: rows per streamed partial frame (slice pcs/lines chunking).
DEFAULT_STREAM_CHUNK_ROWS = 64


def stream_chunk_rows(explicit: int | None = None) -> int:
    """Resolve the streamed-result row-chunk size.

    Bounds how many slice rows ride in one ``partial`` frame.  Purely a
    framing knob — reassembly is chunk-size-independent, so any positive
    value yields byte-identical results.  An explicit positive argument
    wins, then ``REPRO_SERVICE_STREAM_CHUNK``, then
    :data:`DEFAULT_STREAM_CHUNK_ROWS`.
    """
    if explicit is not None:
        if explicit < 1:
            raise ValueError("stream chunk must be >= 1 row")
        return explicit
    return _env_positive_int("REPRO_SERVICE_STREAM_CHUNK", DEFAULT_STREAM_CHUNK_ROWS)


def service_observe_enabled(explicit: bool | None = None) -> bool:
    """Resolve the analysis service's observability switch.

    When on (the default), a daemon keeps a flight-recorder ring and a
    metrics sampler running, and honors per-job ``trace`` requests with
    wall-clock spans.  All of it is job-granular host-side bookkeeping —
    nothing touches the modeled cycle counters or the per-record hot
    loops — so like ``service_degrade_enabled`` above it is an
    operational policy, not a bit-identity lever: an explicit argument
    wins, otherwise ``REPRO_SERVICE_OBSERVE`` decides (default on).
    """
    if explicit is not None:
        return explicit
    return _env_bool("REPRO_SERVICE_OBSERVE", True)


def service_lake_enabled(explicit: bool | None = None) -> bool:
    """Resolve the service's trace-lake persistence switch.

    When on, workers spill each traced job's packed dependence stream
    into the trace lake (:mod:`repro.lake`) under the observability
    umbrella, so "the one request that failed" can be sliced and
    diffed post-hoc — even after a crash — without re-executing it.
    Persistence is job-granular I/O outside the modeled machine, so
    like the switches above it is an operational policy: an explicit
    argument wins, otherwise ``REPRO_SERVICE_LAKE`` decides (default
    off — spilling every job costs disk).
    """
    if explicit is not None:
        return explicit
    return _env_bool("REPRO_SERVICE_LAKE", False)


_current: FastPathConfig | None = None


def current() -> FastPathConfig:
    """The active process-wide config."""
    global _current
    if _current is None:
        _current = from_env()
    return _current


def configure(config: FastPathConfig) -> FastPathConfig:
    """Install ``config`` process-wide; returns the previous config."""
    global _current
    previous = current()
    _current = config
    return previous


@contextmanager
def overridden(config: FastPathConfig):
    """Temporarily install ``config`` (the differential tests' lever)."""
    previous = configure(config)
    try:
        yield config
    finally:
        configure(previous)


def resolve(flag: bool | None, name: str) -> bool:
    """Resolve one flag: an explicit bool wins, None falls back to
    the process-wide config's attribute ``name``."""
    if flag is None:
        return getattr(current(), name)
    return flag


__all__ = [
    "DEFAULT_KERNEL_BATCH",
    "DEFAULT_PARALLEL_BATCH",
    "DEFAULT_STREAM_CHUNK_ROWS",
    "FastPathConfig",
    "configure",
    "current",
    "from_env",
    "kernel_batch_size",
    "kernel_fallbacks",
    "note_kernel_fallback",
    "numpy_available",
    "overridden",
    "parallel_batch_size",
    "propagation_kernel",
    "replace",
    "resolve",
    "service_degrade_enabled",
    "service_lake_enabled",
    "service_observe_enabled",
    "stream_chunk_rows",
]
