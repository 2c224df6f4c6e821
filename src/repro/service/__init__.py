"""DIFT-as-a-service: a sharded analysis-job daemon.

PRs 1-4 made every analysis in this repo (tracing, slicing, attack
detection, lineage) a one-shot in-process call.  This package turns
them into a long-lived *service* — the deployment shape the paper's
production-run ambitions (and HardTaint's always-on argument) actually
require:

* :mod:`protocol` — length-prefixed framed JSON over a Unix/TCP socket.
* :mod:`jobs` — the wire side of a job: admission-time validation
  (``resolve_spec``, which runs the executors' params parser), the
  shard and cache keys, and the test-only chaos kind.  The analyses
  themselves (:class:`~repro.jobs.JobSpec`, the fidelity ladder,
  :func:`~repro.jobs.execute_job`) live in :mod:`repro.jobs`, which the
  CLI runs in process and the workers run here.
* :mod:`admission` — bounded admission with backpressure: overload
  sheds *fidelity* first (full tracing -> DIFT-only -> logging-only,
  the paper's cheap-logging/expensive-replay split) and *jobs* only at
  the hard capacity wall (explicit REJECTED, never a hang).
* :mod:`cache` — idempotent result cache keyed by
  (kind, program hash, params, fidelity); repeats are bit-identical.
* :mod:`pool` — the sharded worker-process pool: affinity routing by
  program hash with idle-steal, per-job deadlines with cancellation,
  crash detection and bounded respawn/backoff with one retry.
* :mod:`server` — the front door the daemon and the router share:
  :mod:`asyncio` listener (refusing a Unix socket a live server still
  answers), event-loop thread behind a sync facade, coroutine per
  connection, the ``stats`` / ``health`` / ``metrics`` / ``shutdown``
  verbs and the exactly-once ``partial`` relay cursor.
* :mod:`aserver` — the daemon itself: its configuration and the job
  pipeline (admission -> cache -> pool dispatch, streamed ``partial``
  result frames) behind the shared front door (``repro serve``).
* :mod:`client` — the blocking client (``repro submit``).
* :mod:`router` — the scale-out tier: consistent-hash sharding of job
  requests across N daemons by program identity, health mark-down/up,
  draining, crash rerouting with exactly-once partial relay, and a
  router-level result cache (``repro route``).

Everything threads ``service.*`` / ``aserver.*`` / ``router.*``
telemetry through :class:`repro.telemetry.MetricsRegistry`; ``STATS``
and ``HEALTH`` requests expose the same snapshot over the wire.
"""

from .admission import AdmissionController, AdmissionDecision
from .aserver import AsyncAnalysisServer, ServiceConfig
from .cache import ResultCache
from .client import (
    ServiceClient,
    ServiceError,
    ServiceProtocolError,
    wait_until_ready,
)
from .jobs import cache_key, execute_job_traced, program_key, resolve_spec
from .observe import NULL_OBSERVABILITY, ServiceObservability
from .pool import WorkerPool
from .protocol import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_PARTIAL,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    FrameAssembler,
    ProtocolError,
    apply_stream_op,
    reassemble,
    recv_frame,
    send_frame,
)
from .router import HashRing, RouterConfig, RouterServer, routing_key

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AsyncAnalysisServer",
    "FrameAssembler",
    "HashRing",
    "NULL_OBSERVABILITY",
    "ProtocolError",
    "ResultCache",
    "RouterConfig",
    "RouterServer",
    "ServiceObservability",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceProtocolError",
    "STATUS_DEGRADED",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_PARTIAL",
    "STATUS_REJECTED",
    "STATUS_TIMEOUT",
    "WorkerPool",
    "apply_stream_op",
    "cache_key",
    "execute_job_traced",
    "program_key",
    "reassemble",
    "recv_frame",
    "routing_key",
    "send_frame",
    "resolve_spec",
    "wait_until_ready",
]
