"""The wire side of analysis jobs.

The analyses themselves — :class:`~repro.jobs.JobSpec`, the fidelity
ladder and :func:`~repro.jobs.execute_job` — live in :mod:`repro.jobs`,
shared with the CLI.  This module holds only what a daemon adds around
them:

* :func:`resolve_spec` — admission-time validation of a client's
  request into a spec, running the executors' own params parser so a
  malformed param is refused with :class:`ProtocolError` before a
  worker sees it.  ``params.lake_root`` is refused: a daemon's workers
  record lake runs under the daemon's own root.
* :func:`program_key` / :func:`cache_key` — shard and result-cache
  identity.
* the test-only ``chaos`` kind, and :func:`run_payload`, the worker's
  entry that dispatches it or the shared executor.
* :func:`execute_job_traced` — the span wrapper for traced jobs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from ..jobs import (
    FIDELITY_FULL,
    FIDELITY_LADDER,
    JOB_KINDS,
    WORKLOAD_FACTORIES,
    JobError,
    JobSpec,
    execute_job,
    parse_params,
)
from ..telemetry import NULL_TELEMETRY, Telemetry
from .protocol import ProtocolError

#: deepest container nesting accepted in ``params``.  Real params are
#: at most three levels deep (``{"inputs": {"0": [1]}}``); a payload
#: nested a few hundred levels deep still decodes, but cannot be
#: pickled to a worker process.
MAX_PARAMS_DEPTH = 16

#: test-only kind that crashes/misbehaves inside the worker process so
#: the pool's crash-recovery machinery can be exercised deterministically.
#: Only admitted when the server was started with ``allow_chaos=True``.
CHAOS_KIND = "chaos"


def _nesting_depth(value) -> int:
    """Container nesting depth of a decoded JSON value, measured level by
    level (no recursion, so no recursion limit), stopping once it passes
    :data:`MAX_PARAMS_DEPTH`."""
    depth, level = 0, [value]
    while depth <= MAX_PARAMS_DEPTH:
        level = [v for v in level if isinstance(v, (dict, list))]
        if not level:
            break
        depth += 1
        level = [
            child for node in level
            for child in (node.values() if isinstance(node, dict) else node)
        ]
    return depth


def resolve_spec(payload: dict, allow_chaos: bool = False) -> JobSpec:
    """Validate a request payload into a :class:`JobSpec`.

    Raises :class:`ProtocolError` with a one-line message on anything
    malformed — the server turns that into a clean ``error`` response.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    kind = payload.get("kind")
    if kind == CHAOS_KIND:
        if not allow_chaos:
            raise ProtocolError("chaos jobs are not enabled on this server")
    elif kind not in JOB_KINDS:
        raise ProtocolError(f"unknown job kind {kind!r} (expected one of {JOB_KINDS})")
    fidelity = payload.get("fidelity", FIDELITY_FULL)
    ladder = FIDELITY_LADDER.get(kind, (FIDELITY_FULL,))
    if kind != CHAOS_KIND and fidelity not in ladder:
        raise ProtocolError(f"kind {kind!r} has no fidelity {fidelity!r} (ladder {ladder})")
    workload = payload.get("workload")
    source = payload.get("source")
    for name, value in (("workload", workload), ("source", source)):
        if value is not None and not isinstance(value, str):
            raise ProtocolError(f"{name!r} must be a string")
    if kind != CHAOS_KIND:
        if (workload is None) == (source is None):
            raise ProtocolError("exactly one of 'workload' or 'source' is required")
        if workload is not None and workload not in WORKLOAD_FACTORIES:
            raise ProtocolError(
                f"unknown workload {workload!r} "
                f"(available: {', '.join(sorted(WORKLOAD_FACTORIES))})"
            )
    scale = payload.get("scale", 1)
    if not isinstance(scale, int) or scale < 1:
        raise ProtocolError("'scale' must be a positive integer")
    params = payload.get("params") or {}
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be a JSON object")
    if _nesting_depth(params) > MAX_PARAMS_DEPTH:
        raise ProtocolError(f"'params' nested deeper than {MAX_PARAMS_DEPTH} levels")
    if "lake_root" in params:
        raise ProtocolError("'params.lake_root' is not accepted: the daemon records "
                            "lake runs under its own root")
    if kind != CHAOS_KIND:
        try:
            parse_params(params)
        except JobError as exc:
            raise ProtocolError(str(exc)) from None
    deadline = payload.get("deadline_s")
    if deadline is not None and (
        not isinstance(deadline, (int, float)) or not 0 < deadline < math.inf
    ):
        raise ProtocolError("'deadline_s' must be a positive finite number")
    return JobSpec(
        kind=kind,
        fidelity=fidelity,
        workload=workload,
        scale=scale,
        source=source,
        params=params,
        cache=bool(payload.get("cache", True)),
        deadline_s=deadline,
    )


def program_key(spec: JobSpec) -> str:
    """Stable identity of the program a spec runs (for cache/sharding)."""
    if spec.source is not None:
        digest = hashlib.sha256(spec.source.encode("utf-8")).hexdigest()[:16]
        return f"src:{digest}"
    return f"workload:{spec.workload}:{spec.scale}"


def cache_key(spec: JobSpec) -> str:
    """Idempotency key: (kind, program hash, params, fidelity).

    The *resolved* fidelity is part of the key, so a degraded result
    can never be served to a client that asked for (and got) ``full``.
    """
    params = json.dumps(spec.params, sort_keys=True, separators=(",", ":"))
    return f"{spec.kind}|{program_key(spec)}|{spec.fidelity}|{params}"


def _execute_chaos(payload: dict) -> dict:
    """Deterministic worker misbehavior for the crash-recovery tests."""
    params = payload.get("params") or {}
    mode = params.get("mode", "exit")
    if mode == "exit":
        os._exit(17)
    if mode == "exit-once":
        # Crash on the first attempt only: the flag file records that
        # this spec already died once, so the retried attempt succeeds.
        flag = params["flag"]
        if not os.path.exists(flag):
            with open(flag, "w") as fh:
                fh.write("crashed\n")
            os._exit(17)
        return {"chaos": {"mode": mode, "survived_retry": True}}
    if mode == "hang":
        import time

        time.sleep(float(params.get("sleep_s", 3600.0)))
        return {"chaos": {"mode": mode}}
    raise ProtocolError(f"unknown chaos mode {mode!r}")


def run_payload(payload: dict, telemetry: Telemetry = NULL_TELEMETRY, emit=None) -> dict:
    """Run one worker-form payload: a chaos job misbehaves here, every
    analysis kind runs the shared :func:`~repro.jobs.execute_job`;
    ``emit`` receives the partial-result ops either way."""
    if payload["kind"] != CHAOS_KIND:
        return execute_job(JobSpec(**payload), telemetry, emit)
    head = {"kind": CHAOS_KIND, "fidelity": payload.get("fidelity", FIDELITY_FULL)}
    if emit is not None:
        emit({"set": head})
    body = _execute_chaos(payload)
    if emit is not None:
        for section, value in body.items():
            emit({"set": {section: value}})
    return {**head, **body}


#: engine (cycle-clock) spans shipped per traced job, at most.
MAX_ENGINE_SPANS = 512


def execute_job_traced(payload: dict, trace_id: str) -> dict:
    """Run one job with span capture; result gains a ``"_spans"`` list.

    The worker's own interval (``worker.execute``) is stamped in wall
    epoch microseconds so it nests inside the server's spans; the
    engine's deterministic cycle-clock spans are re-based at the worker
    span's start (1 modeled cycle = 1 µs, marked ``clock:
    "modeled-cycles"`` so a reader never confuses the two timelines).
    The pool strips ``"_spans"`` before caching, so the cached result
    stays bit-identical to an untraced run's.
    """
    from ..telemetry import NULL_REGISTRY, SpanTracer
    from ..telemetry.obs import span_event, wall_now_us

    tracer = SpanTracer(enabled=True)
    telemetry = Telemetry(registry=NULL_REGISTRY, tracer=tracer)
    t0 = wall_now_us()
    result = run_payload(payload, telemetry)
    dur = wall_now_us() - t0
    pid = os.getpid()
    events = [
        span_event(
            "worker.execute", t0, dur, pid=pid, tid=0,
            trace_id=trace_id, kind=payload.get("kind"),
            fidelity=payload.get("fidelity"),
        )
    ]
    for s in list(tracer.events)[:MAX_ENGINE_SPANS]:
        events.append(
            span_event(
                s.name, t0 + s.ts, s.dur, pid=pid, tid=s.tid + 1, cat=s.cat,
                trace_id=trace_id, clock="modeled-cycles",
            )
        )
    result["_spans"] = events
    return result


__all__ = [
    "CHAOS_KIND",
    "MAX_ENGINE_SPANS",
    "MAX_PARAMS_DEPTH",
    "cache_key",
    "execute_job_traced",
    "program_key",
    "resolve_spec",
    "run_payload",
]
