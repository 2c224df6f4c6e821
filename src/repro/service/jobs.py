"""Analysis job specs, the fidelity ladder, and worker-side execution.

A job names an analysis ``kind`` (trace / slice / attack / lineage)
over a *program* — either a named workload from the SPEC-like suite or
submitted MiniC source — plus kind-specific ``params``.  Execution is
a pure function of the spec (the interpreter is deterministic), which
is what makes the service's result cache idempotent: the same spec
always produces the byte-identical result payload.

**Fidelity ladder** (§2.2's cheap-logging/expensive-replay split as a
live degradation policy): under overload the admission controller
sheds fidelity before it sheds jobs.

==========  =========================================================
``full``    the real analysis: ONTRAC tracing, indexed slicing,
            PC-taint attack monitoring (names the root cause), roBDD
            lineage
``dift``    DIFT-only: taint propagation without the trace store —
            ``trace`` returns taint stats instead of a DDG; ``attack``
            falls back to boolean taint (detects, cannot explain —
            E11's ablation as a degradation step)
``log``     logging-only: a plain run; outputs and cycle counts, no
            dependence analysis at all
==========  =========================================================

Kinds without a meaningful middle rung skip straight to ``log``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

from ..dift.engine import DIFTEngine, SinkRule
from ..dift.policy import BoolTaintPolicy, PCTaintPolicy
from ..lang import compile_source
from ..ontrac import OntracConfig
from ..runner import ProgramRunner
from ..slicing import backward_slice, last_instance_of_line
from ..workloads.generators import call_heavy
from ..workloads.spec_like import bfs, fsm, hashloop, matmul, rle, sort
from .protocol import ProtocolError

JOB_KINDS = ("trace", "slice", "attack", "lineage")

FIDELITY_FULL = "full"
FIDELITY_DIFT = "dift"
FIDELITY_LOG = "log"

#: per-kind degradation ladder, most expensive first.
FIDELITY_LADDER: dict[str, tuple[str, ...]] = {
    "trace": (FIDELITY_FULL, FIDELITY_DIFT, FIDELITY_LOG),
    "slice": (FIDELITY_FULL, FIDELITY_LOG),
    "attack": (FIDELITY_FULL, FIDELITY_DIFT, FIDELITY_LOG),
    "lineage": (FIDELITY_FULL, FIDELITY_LOG),
}

#: named programs submittable by name; multipliers match ``suite(scale)``.
WORKLOAD_FACTORIES = {
    "matmul": lambda s: matmul(8 * s),
    "sort": lambda s: sort(48 * s),
    "hashloop": lambda s: hashloop(96 * s),
    "rle": lambda s: rle(80 * s),
    "bfs": lambda s: bfs(6 * s),
    "fsm": lambda s: fsm(120 * s),
    # Call-heavy family: summary-friendly (p0) through summary-hostile
    # (p50, every other call diverges) — see workloads.generators.
    "calls-p0": lambda s: call_heavy(0, iterations=48 * s, name="calls-p0"),
    "calls-p10": lambda s: call_heavy(10, iterations=48 * s, name="calls-p10"),
    "calls-p50": lambda s: call_heavy(2, iterations=48 * s, name="calls-p50"),
}

#: deepest container nesting accepted in ``params``.  Real params are
#: at most three levels deep (``{"inputs": {"0": [1]}}``); a payload
#: nested a few hundred levels deep still decodes, but cannot be
#: pickled to a worker process.
MAX_PARAMS_DEPTH = 16

#: test-only kind that crashes/misbehaves inside the worker process so
#: the pool's crash-recovery machinery can be exercised deterministically.
#: Only admitted when the server was started with ``allow_chaos=True``.
CHAOS_KIND = "chaos"


@dataclass
class JobSpec:
    """One validated analysis job."""

    kind: str
    fidelity: str = FIDELITY_FULL
    workload: str | None = None
    scale: int = 1
    source: str | None = None
    params: dict = field(default_factory=dict)
    cache: bool = True
    deadline_s: float | None = None

    def payload(self) -> dict:
        """The wire/worker form (plain JSON-safe dict)."""
        return {
            "kind": self.kind,
            "fidelity": self.fidelity,
            "workload": self.workload,
            "scale": self.scale,
            "source": self.source,
            "params": self.params,
        }


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


def _payload_program_key(payload: dict) -> str:
    """:func:`program_key` over the worker-form payload dict."""
    if payload.get("source") is not None:
        digest = hashlib.sha256(payload["source"].encode("utf-8")).hexdigest()[:16]
        return f"src:{digest}"
    return f"workload:{payload.get('workload')}:{payload.get('scale', 1)}"


# ---------------------------------------------------------------------------
# Worker-side execution
# ---------------------------------------------------------------------------
def _inputs_from(params: dict, default: dict | None = None) -> dict[int, list[int]]:
    raw = params.get("inputs")
    if raw is None:
        return {int(k): list(v) for k, v in (default or {}).items()}
    if not isinstance(raw, dict):
        raise ProtocolError("'params.inputs' must map channel -> value list")
    return {int(k): [int(v) for v in vs] for k, vs in raw.items()}


def _resolve_program(spec_kind: str, payload: dict):
    """(compiled, source_text, inputs) for one worker-form payload."""
    params = payload.get("params") or {}
    if payload.get("source") is not None:
        source = payload["source"]
        compiled = compile_source(source)
        return compiled, source, _inputs_from(params)
    workload = WORKLOAD_FACTORIES[payload["workload"]](payload.get("scale", 1))
    return workload.compiled, None, _inputs_from(params, workload.inputs)


def _run_summary(result, machine) -> dict:
    return {
        "status": result.status.value,
        "failure": str(result.failure) if result.failure else None,
        "instructions": result.instructions,
        "total_cycles": result.cycles.total,
        "outputs": {
            str(ch): list(machine.io.output(ch)) for ch in sorted(machine.io.outputs)
        },
    }


def _execute_log(payload: dict, telemetry=None) -> dict:
    compiled, _, inputs = _resolve_program(payload["kind"], payload)
    runner = ProgramRunner(compiled.program, inputs=inputs, telemetry=telemetry)
    machine, result = runner.run()
    return {"run": _run_summary(result, machine)}


def _execute_dift_stats(payload: dict, telemetry=None) -> dict:
    """DIFT-only middle rung for ``trace``: taint stats, no trace store."""
    compiled, _, inputs = _resolve_program(payload["kind"], payload)
    runner = ProgramRunner(compiled.program, inputs=inputs, telemetry=telemetry)
    machine = runner.machine()
    # The engine resolves its own propagation kernel here and in
    # _execute_attack (array when numpy imports): pool workers run
    # untraced machines, so the engine's inline micro-batching engages
    # and every service job rides the vectorized kernel with no wiring
    # of its own.
    engine = DIFTEngine(BoolTaintPolicy(), sinks=[]).attach(machine)
    result = machine.run(max_instructions=runner.max_instructions)
    return {
        "run": _run_summary(result, machine),
        "dift": {
            "instructions": engine.stats.instructions,
            "tainted_instructions": engine.stats.tainted_instructions,
            "taint_rate": engine.stats.taint_rate,
            "tainted_locations": engine.shadow.tainted_cells + engine.shadow.tainted_regs,
        },
    }


def _lake_pending(payload: dict, params: dict, inputs: dict):
    """Reserve a trace-lake run for this job, or None unless its params
    say ``"lake": true``.  The run is reserved *before* execution so
    the tracer spills while it runs — a worker killed mid-job leaves an
    incomplete run with a recoverable trace prefix (the crash
    postmortem story), not nothing.
    """
    if not params.get("lake"):
        return None
    from ..lake import TraceLake
    from ..lake import input_hash as _lake_input_hash

    try:
        lake = TraceLake(params.get("lake_root"))
        return lake.begin_run(
            program=_payload_program_key(payload).replace(":", "-"),
            input_hash=_lake_input_hash(inputs),
            seed=int(params.get("seed", 0)),
            fidelity=payload.get("kind", "trace"),
        )
    except OSError:
        return None  # persistence is best-effort; the job still runs


def _lake_finish(pending, tracer, compiled, telemetry) -> str | None:
    registry = (
        telemetry.registry
        if telemetry is not None and getattr(telemetry, "enabled", False)
        else None
    )
    try:
        return pending.finish(tracer=tracer, compiled=compiled, registry=registry)
    except OSError:
        return None


def _execute_trace(payload: dict, telemetry=None) -> dict:
    compiled, _, inputs = _resolve_program("trace", payload)
    params = payload.get("params") or {}
    runner = ProgramRunner(compiled.program, inputs=inputs, telemetry=telemetry)
    pending = _lake_pending(payload, params, inputs)
    config = OntracConfig(
        buffer_bytes=int(params.get("buffer", 1 << 22)),
        spill_path=pending.spill_path if pending is not None else None,
    )
    machine, tracer, result = runner.run_traced(config)
    lake_run = (
        _lake_finish(pending, tracer, compiled, telemetry)
        if pending is not None else None
    )
    stats = tracer.stats
    out = {
        "run": _run_summary(result, machine),
        "trace": {
            "instructions": stats.instructions,
            "stored_bytes": stats.stored_bytes,
            "bytes_per_instruction": stats.bytes_per_instruction,
            "window_instructions": tracer.buffer.window_instructions(),
            "ddg": tracer.dependence_graph().stats(),
        },
    }
    if lake_run is not None:
        out["lake_run"] = lake_run
    return out


#: swallow-everything emitter: the blocking paths are the streaming
#: paths with the partial frames dropped, so bit-identity of streamed
#: vs blocking results is structural, not hoped-for.
def _no_emit(op: dict) -> None:
    return None


#: rows per streamed partial frame (slice pcs/lines chunking).  Purely
#: a framing choice: reassembly is chunk-size-independent.
STREAM_CHUNK_ROWS = 64


def _emit_chunks(emit, path: str, items: list) -> None:
    """Append ``items`` at dotted ``path`` in bounded row chunks."""
    for i in range(0, len(items), STREAM_CHUNK_ROWS):
        emit({"append": {path: items[i : i + STREAM_CHUNK_ROWS]}})


def _execute_slice(payload: dict, telemetry=None, emit=_no_emit) -> dict:
    compiled, _, inputs = _resolve_program("slice", payload)
    params = payload.get("params") or {}
    runner = ProgramRunner(compiled.program, inputs=inputs, telemetry=telemetry)
    pending = _lake_pending(payload, params, inputs)
    config = OntracConfig(
        buffer_bytes=int(params.get("buffer", 1 << 22)),
        spill_path=pending.spill_path if pending is not None else None,
    )
    _, tracer, result = runner.run_traced(config)
    lake_run = (
        _lake_finish(pending, tracer, compiled, telemetry)
        if pending is not None else None
    )
    run_section = {"status": result.status.value, "instructions": result.instructions}
    emit({"set": {"run": run_section}})
    ddg = tracer.dependence_graph()
    line = params.get("line")
    criterion = None
    if line is not None:
        pcs = compiled.pcs_of_line(int(line))
        if not pcs:
            raise ProtocolError(f"no code generated for line {line}")
        criterion = last_instance_of_line(ddg, pcs)
        if criterion is None:
            raise ProtocolError(f"line {line} never executed in the window")
    else:
        # default criterion: the last dynamic instance in the window —
        # the newest consumer seq, since producers precede consumers.
        criterion = ddg.buffer.newest_seq
        if criterion < 0:
            raise ProtocolError("empty trace window: nothing to slice")
    sl = backward_slice(ddg, criterion)
    pcs = sorted(sl.pcs)
    lines = sorted(sl.statement_lines(compiled))
    emit({"set": {
        "slice.criterion_seq": criterion,
        "slice.instances": len(sl.seqs),
        "slice.truncated": sl.truncated,
        "slice.pcs": [],
        "slice.lines": [],
    }})
    # The slice body streams as bounded row chunks — the service's
    # long-tail payload (thousands of pcs/lines on big windows) reaches
    # the client incrementally instead of as one terminal blob.
    _emit_chunks(emit, "slice.pcs", pcs)
    _emit_chunks(emit, "slice.lines", lines)
    # Repeated criteria over one window are the service's hot query
    # pattern; queries here run per-job, while *cross*-job reuse is the
    # server-side result cache's business.
    out = {
        "run": run_section,
        "slice": {
            "criterion_seq": criterion,
            "instances": len(sl.seqs),
            "pcs": pcs,
            "lines": lines,
            "truncated": sl.truncated,
        },
    }
    if lake_run is not None:
        out["lake_run"] = lake_run
    return out


def _execute_attack(payload: dict, fidelity: str, telemetry=None, emit=_no_emit) -> dict:
    compiled, source, inputs = _resolve_program("attack", payload)
    params = payload.get("params") or {}
    runner = ProgramRunner(compiled.program, inputs=inputs, telemetry=telemetry)
    machine = runner.machine()
    # full = PC taint (detects *and* names the root cause); the dift
    # rung is boolean taint — detection without explanation (E11).
    policy = PCTaintPolicy() if fidelity == FIDELITY_FULL else BoolTaintPolicy()
    sinks = [SinkRule(kind="icall")]
    if params.get("out_sink"):
        sinks.append(SinkRule(kind="out", channels=None))
    engine = DIFTEngine(policy, sinks=sinks).attach(machine)
    result = machine.run(max_instructions=runner.max_instructions)
    run_section = _run_summary(result, machine)
    policy_name = "pc" if fidelity == FIDELITY_FULL else "bool"
    emit({"set": {"run": run_section,
                  "attack.policy": policy_name, "attack.alerts": []}})
    alerts = []
    for alert in engine.alerts:
        entry = {"seq": alert.seq, "pc": alert.pc, "message": str(alert)}
        if fidelity == FIDELITY_FULL:
            line = compiled.line_of(alert.label) if isinstance(alert.label, int) else 0
            entry["root_cause_line"] = line
        alerts.append(entry)
        # One frame per verdict: a monitoring client reacts to the first
        # alert while the rest of the report is still being assembled.
        emit({"append": {"attack.alerts": [entry]}})
    emit({"set": {"attack.detected": bool(alerts)}})
    return {
        "run": run_section,
        "attack": {
            "policy": policy_name,
            "detected": bool(alerts),
            "alerts": alerts,
        },
    }


def _execute_lineage(payload: dict, telemetry=None, emit=_no_emit) -> dict:
    from ..apps.lineage import LineageTracer

    compiled, _, inputs = _resolve_program("lineage", payload)
    params = payload.get("params") or {}
    runner = ProgramRunner(compiled.program, inputs=inputs, telemetry=telemetry)
    tracer = LineageTracer(representation=params.get("representation", "robdd"))
    trace = tracer.trace(runner, output_channel=int(params.get("channel", 1)))
    run_section = {
        "status": trace.result.status.value,
        "instructions": trace.result.instructions,
    }
    emit({"set": {"run": run_section,
                  "lineage.representation": trace.store_name,
                  "lineage.outputs": []}})
    outputs = []
    for o in trace.outputs:
        entry = {
            "position": o.position,
            "channel": o.channel,
            "value": o.value,
            "inputs": sorted(o.inputs),
        }
        outputs.append(entry)
        emit({"append": {"lineage.outputs": [entry]}})
    emit({"set": {"lineage.union_cycles": trace.union_cycles}})
    return {
        "run": run_section,
        "lineage": {
            "representation": trace.store_name,
            "outputs": outputs,
            "union_cycles": trace.union_cycles,
        },
    }


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


def _emit_sections(emit, body: dict) -> None:
    """Stream a body's top-level sections as one set op apiece."""
    if emit is _no_emit:
        return
    for section, value in body.items():
        emit({"set": {section: value}})


def _execute(payload: dict, telemetry, emit) -> dict:
    kind = payload["kind"]
    fidelity = payload.get("fidelity", FIDELITY_FULL)
    emit({"set": {"kind": kind, "fidelity": fidelity}})
    if kind == CHAOS_KIND:
        body = _execute_chaos(payload)
        _emit_sections(emit, body)
    elif fidelity == FIDELITY_LOG:
        body = _execute_log(payload, telemetry)
        _emit_sections(emit, body)
    elif kind == "trace":
        body = (
            _execute_dift_stats(payload, telemetry)
            if fidelity == FIDELITY_DIFT
            else _execute_trace(payload, telemetry)
        )
        _emit_sections(emit, body)
    elif kind == "slice":
        body = _execute_slice(payload, telemetry, emit)
    elif kind == "attack":
        body = _execute_attack(payload, fidelity, telemetry, emit)
    elif kind == "lineage":
        body = _execute_lineage(payload, telemetry, emit)
    else:  # pragma: no cover - resolve_spec guards this
        raise ProtocolError(f"unknown job kind {kind!r}")
    return {"kind": kind, "fidelity": fidelity, **body}


def execute_job(payload: dict, telemetry=None) -> dict:
    """Run one worker-form job payload to completion (pure, in-process).

    Returns the JSON-safe result envelope.  Raises
    :class:`ProtocolError` for spec-level problems and lets
    :class:`~repro.lang.CompileError` escape as itself (the pool turns
    both into clean ``error`` responses).  ``telemetry`` threads an
    optional :class:`~repro.telemetry.Telemetry` bundle into the engine
    (the traced-execution path uses its span tracer); it never changes
    the result payload, so cached results stay bit-identical.
    """
    return _execute(payload, telemetry, _no_emit)


def execute_job_stream(payload: dict, emit, telemetry=None) -> dict:
    """Run one job, emitting partial-result ops as stages complete.

    ``emit`` receives :func:`repro.service.protocol.apply_stream_op`
    ops — section sets as each execution stage lands, then row chunks
    (slice pcs/lines) or per-item frames (attack alerts, lineage
    outputs) for the long-tail payloads.  Returns the same result
    envelope :func:`execute_job` does; the blocking path *is* this path
    with the emits dropped, so reassembling every emitted op yields the
    returned envelope exactly (``tests/test_aserver.py`` proves it per
    job kind).
    """
    return _execute(payload, telemetry, emit)


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
    from ..telemetry import NULL_REGISTRY, SpanTracer, Telemetry
    from ..telemetry.obs import span_event, wall_now_us

    tracer = SpanTracer(enabled=True)
    telemetry = Telemetry(registry=NULL_REGISTRY, tracer=tracer)
    t0 = wall_now_us()
    result = execute_job(payload, telemetry=telemetry)
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
    "FIDELITY_DIFT",
    "FIDELITY_FULL",
    "FIDELITY_LADDER",
    "FIDELITY_LOG",
    "JOB_KINDS",
    "JobSpec",
    "WORKLOAD_FACTORIES",
    "MAX_ENGINE_SPANS",
    "cache_key",
    "execute_job",
    "execute_job_stream",
    "execute_job_traced",
    "program_key",
    "resolve_spec",
]
