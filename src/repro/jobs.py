"""One analysis layer: job specs, the fidelity ladder and the executors.

A job names an analysis ``kind`` (trace / slice / attack / lineage)
over a *program* — a named workload from the SPEC-like suite or MiniC
source — plus kind-specific ``params``.  :func:`execute_job` is the one
implementation of each analysis: the CLI verbs call it in process and
format its result, and the service's workers call it on the specs
clients send (:mod:`repro.service.jobs` adds only the wire concerns).
Execution is a pure function of the spec, which is what makes the
service's result cache idempotent.  ``lake_root``, ``max_instructions``
and ``naive`` are keyword arguments of :func:`execute_job`, not params:
they belong to the process that runs the job, so no client sets them.

**Fidelity ladder** (§2.2's cheap-logging/expensive-replay split as a
live degradation policy): under overload the service sheds fidelity
before it sheds jobs.

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

from dataclasses import dataclass, field

from .dift.engine import DIFTEngine, SinkRule
from .dift.policy import BoolTaintPolicy, PCTaintPolicy
from .lang import compile_source
from .ontrac import OntracConfig
from .runner import ProgramRunner
from .slicing import backward_slice, last_instance_of_line
from .telemetry import NULL_TELEMETRY, MetricsRegistry, Telemetry

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


def _corpus():
    """:mod:`repro.workloads`, imported on first use: a job over source
    text (every CLI verb) never loads the corpora."""
    from . import workloads

    return workloads


#: named programs submittable by name; multipliers match ``suite(scale)``.
WORKLOAD_FACTORIES = {
    "matmul": lambda s: _corpus().matmul(8 * s),
    "sort": lambda s: _corpus().sort(48 * s),
    "hashloop": lambda s: _corpus().hashloop(96 * s),
    "rle": lambda s: _corpus().rle(80 * s),
    "bfs": lambda s: _corpus().bfs(6 * s),
    "fsm": lambda s: _corpus().fsm(120 * s),
    # Call-heavy family: summary-friendly (p0) through summary-hostile
    # (p50, every other call diverges) — see workloads.generators.
    "calls-p0": lambda s: _corpus().call_heavy(0, iterations=48 * s, name="calls-p0"),
    "calls-p10": lambda s: _corpus().call_heavy(10, iterations=48 * s, name="calls-p10"),
    "calls-p50": lambda s: _corpus().call_heavy(2, iterations=48 * s, name="calls-p50"),
}

#: shadow-set representations a lineage job may ask for
#: (:class:`~repro.apps.lineage.LineageTracer`'s stores).
LINEAGE_REPRESENTATIONS = ("robdd", "naive")


class JobError(ValueError):
    """A job its spec cannot run: a malformed param, or a slice
    criterion the traced window never reached."""


@dataclass
class JobSpec:
    """One analysis job."""

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


@dataclass(frozen=True)
class JobParams:
    """``JobSpec.params`` parsed by :func:`parse_params`."""

    #: channel -> values; None runs a workload on its own inputs.
    inputs: dict[int, list[int]] | None = None
    #: slice criterion source line; None slices the newest instance.
    line: int | None = None
    buffer: int = 1 << 22
    #: run-key seed recorded with a lake run.
    seed: int = 0
    lake: bool = False
    out_sink: bool = False
    channel: int = 1
    representation: str = "robdd"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_param(params: dict, name: str, default, minimum: int | None = None):
    value = params.get(name)
    if value is None:
        return default
    if not _is_int(value) or (minimum is not None and value < minimum):
        bound = f" >= {minimum}" if minimum is not None else ""
        raise JobError(f"'params.{name}' must be an integer{bound}, not {value!r}")
    return value


def parse_params(params: dict) -> JobParams:
    """Parse a job's ``params``; raises :class:`JobError` on a malformed
    value.  Keys no analysis reads are ignored."""
    inputs = None
    raw = params.get("inputs")
    if raw is not None:
        if not isinstance(raw, dict):
            raise JobError("'params.inputs' must map channel -> value list")
        inputs = {}
        for channel, values in raw.items():
            try:
                ch = int(channel)
            except (TypeError, ValueError):
                raise JobError(f"'params.inputs' channel {channel!r} is not an integer") from None
            if not isinstance(values, list) or not all(_is_int(v) for v in values):
                raise JobError(f"'params.inputs' channel {channel!r} must list integers")
            inputs[ch] = list(values)
    representation = params.get("representation", "robdd")
    if representation not in LINEAGE_REPRESENTATIONS:
        raise JobError(
            f"'params.representation' must be one of {LINEAGE_REPRESENTATIONS}, "
            f"not {representation!r}"
        )
    return JobParams(
        inputs=inputs,
        line=_int_param(params, "line", None),
        buffer=_int_param(params, "buffer", JobParams.buffer, minimum=1),
        seed=_int_param(params, "seed", 0),
        lake=bool(params.get("lake")),
        out_sink=bool(params.get("out_sink")),
        channel=_int_param(params, "channel", 1),
        representation=representation,
    )


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------
def _no_emit(op: dict) -> None:
    return None


#: rows per streamed partial frame (slice pcs/lines chunking).  Purely
#: a framing choice: reassembly is chunk-size-independent.
STREAM_CHUNK_ROWS = 64


def _emit_chunks(emit, path: str, items: list) -> None:
    """Append ``items`` at dotted ``path`` in bounded row chunks."""
    for i in range(0, len(items), STREAM_CHUNK_ROWS):
        emit({"append": {path: items[i : i + STREAM_CHUNK_ROWS]}})


def _emit_sections(emit, body: dict) -> None:
    """Stream a body's top-level sections as one set op apiece."""
    if emit is _no_emit:
        return
    for section, value in body.items():
        emit({"set": {section: value}})


def _run_section(result, machine) -> dict:
    return {
        "status": result.status.value,
        "failure": str(result.failure) if result.failure else None,
        "instructions": result.instructions,
        "base_cycles": result.cycles.base,
        "overhead_cycles": result.cycles.overhead,
        "total_cycles": result.cycles.total,
        "outputs": {
            str(ch): list(machine.io.output(ch)) for ch in sorted(machine.io.outputs)
        },
    }


@dataclass
class _Job:
    """One job being executed: its spec, parsed params, program and the
    caller's local settings."""

    spec: JobSpec
    params: JobParams
    compiled: object
    runner: ProgramRunner
    #: where the executors publish metrics; None unless it records.
    registry: MetricsRegistry | None
    emit: object
    lake_root: str | None
    naive: bool

    def run_traced(self):
        """Run under ONTRAC; returns (machine, tracer, result, lake run
        id or None).  With ``params.lake`` the lake run is reserved
        *before* execution so the tracer spills while it runs: a worker
        killed mid-job leaves an incomplete run with a recoverable trace
        prefix, not nothing."""
        buffer = self.params.buffer
        config = (
            OntracConfig.unoptimized(buffer_bytes=buffer)
            if self.naive
            else OntracConfig(buffer_bytes=buffer)
        )
        pending = None
        if self.params.lake:
            from .lake import TraceLake, input_hash, program_hash

            pending = TraceLake(self.lake_root).begin_run(
                program=program_hash(self.compiled.source),
                input_hash=input_hash(self.runner.inputs),
                seed=self.params.seed,
                fidelity=self.spec.fidelity,
            )
            config.spill_path = pending.spill_path
        machine, tracer, result = self.runner.run_traced(config)
        lake_run = None
        if pending is not None:
            lake_run = pending.finish(tracer=tracer, compiled=self.compiled,
                                      registry=self.registry)
        return machine, tracer, result, lake_run


def _execute_log(job: _Job) -> dict:
    machine, result = job.runner.run()
    return {"run": _run_section(result, machine)}


def _execute_dift_stats(job: _Job) -> dict:
    """DIFT-only middle rung for ``trace``: taint stats, no trace store."""
    machine = job.runner.machine()
    # The engine resolves its own propagation kernel here and in
    # _execute_attack (array for the Bool and PC policies): untraced
    # machines engage the engine's inline micro-batching, so every job
    # rides the batch kernel with no wiring of its own.
    engine = DIFTEngine(BoolTaintPolicy(), sinks=[]).attach(machine)
    result = machine.run(max_instructions=job.runner.max_instructions)
    return {
        "run": _run_section(result, machine),
        "dift": {
            "instructions": engine.stats.instructions,
            "tainted_instructions": engine.stats.tainted_instructions,
            "taint_rate": engine.stats.taint_rate,
            "tainted_locations": engine.shadow.tainted_cells + engine.shadow.tainted_regs,
        },
    }


def _execute_trace(job: _Job) -> dict:
    machine, tracer, result, lake_run = job.run_traced()
    stats = tracer.stats
    out = {
        "run": _run_section(result, machine),
        "trace": {
            "instructions": stats.instructions,
            "stored_bytes": stats.stored_bytes,
            "bytes_per_instruction": stats.bytes_per_instruction,
            "slowdown": result.cycles.slowdown,
            "window_instructions": tracer.buffer.window_instructions(),
            "optimization_hits": dict(sorted(stats.skipped.items())),
            "ddg": tracer.dependence_graph().stats(),
        },
    }
    if lake_run is not None:
        out["lake_run"] = lake_run
    return out


def _execute_slice(job: _Job) -> dict:
    machine, tracer, result, lake_run = job.run_traced()
    emit = job.emit
    run_section = _run_section(result, machine)
    emit({"set": {"run": run_section}})
    ddg = tracer.dependence_graph()
    line = job.params.line
    if line is not None:
        pcs = job.compiled.pcs_of_line(line)
        if not pcs:
            raise JobError(f"no code generated for line {line}")
        criterion = last_instance_of_line(ddg, pcs)
        if criterion is None:
            raise JobError(f"line {line} never executed in the window")
    else:
        # default criterion: the last dynamic instance in the window —
        # the newest consumer seq, since producers precede consumers.
        criterion = ddg.buffer.newest_seq
        if criterion < 0:
            raise JobError("empty trace window: nothing to slice")
    sl = backward_slice(ddg, criterion)
    if job.registry is not None:
        # The indexed engine's query counters (slicing.queries, memo
        # hits, rows scanned).
        ddg.publish_telemetry(job.registry)
    pcs = sorted(sl.pcs)
    lines = sorted(sl.statement_lines(job.compiled))
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


def _execute_attack(job: _Job) -> dict:
    machine = job.runner.machine()
    # full = PC taint (detects *and* names the root cause); the dift
    # rung is boolean taint — detection without explanation (E11).
    full = job.spec.fidelity == FIDELITY_FULL
    sinks = [SinkRule(kind="icall")]
    if job.params.out_sink:
        sinks.append(SinkRule(kind="out", channels=None))
    policy = PCTaintPolicy() if full else BoolTaintPolicy()
    engine = DIFTEngine(policy, sinks=sinks).attach(machine)
    result = machine.run(max_instructions=job.runner.max_instructions)
    if job.registry is not None:
        engine.publish_telemetry(job.registry)
    emit = job.emit
    run_section = _run_section(result, machine)
    policy_name = "pc" if full else "bool"
    emit({"set": {"run": run_section,
                  "attack.policy": policy_name, "attack.alerts": []}})
    alerts = []
    for alert in engine.alerts:
        entry = {"seq": alert.seq, "pc": alert.pc, "message": str(alert)}
        if full:
            label = alert.label
            entry["root_cause_line"] = job.compiled.line_of(label) if isinstance(label, int) else 0
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


def _execute_lineage(job: _Job) -> dict:
    from .apps.lineage import LineageTracer

    tracer = LineageTracer(representation=job.params.representation)
    trace = tracer.trace(job.runner, output_channel=job.params.channel)
    emit = job.emit
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


def execute_job(
    spec: JobSpec,
    telemetry: Telemetry = NULL_TELEMETRY,
    emit=None,
    *,
    lake_root: str | None = None,
    max_instructions: int = 10_000_000,
    naive: bool = False,
) -> dict:
    """Run one job in process; returns the JSON-safe result envelope
    ``{"kind", "fidelity", "run", <kind section>}``.

    ``emit``, when given, receives
    :func:`repro.service.protocol.apply_stream_op` ops as stages land
    (section sets, then slice row chunks, attack alerts or lineage
    outputs one frame apiece).  Without it the ops are dropped: the
    blocking path *is* the streaming path, so reassembling every op
    yields the returned envelope exactly.  ``telemetry`` collects the
    run's metrics and spans and never changes the result.  The keyword
    arguments are the caller's local settings; ``lake_root`` defaults to
    ``REPRO_LAKE_DIR`` or ``./lake``.  Raises :class:`JobError` for a job
    its spec cannot run; :class:`~repro.lang.CompileError` and a lake's
    :class:`OSError` escape as themselves.
    """
    params = parse_params(spec.params)
    emit = emit or _no_emit
    emit({"set": {"kind": spec.kind, "fidelity": spec.fidelity}})
    if spec.source is not None:
        compiled, inputs = compile_source(spec.source), {}
    else:
        workload = WORKLOAD_FACTORIES[spec.workload](spec.scale)
        compiled, inputs = workload.compiled, workload.inputs
    if params.inputs is not None:
        inputs = params.inputs
    runner = ProgramRunner(
        compiled.program,
        inputs={int(ch): list(values) for ch, values in inputs.items()},
        max_instructions=max_instructions,
        telemetry=telemetry,
    )
    registry = telemetry.registry if telemetry.registry.enabled else None
    job = _Job(spec, params, compiled, runner, registry, emit, lake_root, naive)
    if spec.fidelity == FIDELITY_LOG:
        body = _execute_log(job)
        _emit_sections(emit, body)
    elif spec.kind == "trace":
        body = _execute_dift_stats(job) if spec.fidelity == FIDELITY_DIFT else _execute_trace(job)
        _emit_sections(emit, body)
    elif spec.kind == "slice":
        body = _execute_slice(job)
    elif spec.kind == "attack":
        body = _execute_attack(job)
    elif spec.kind == "lineage":
        body = _execute_lineage(job)
    else:
        raise JobError(f"unknown job kind {spec.kind!r}")
    return {"kind": spec.kind, "fidelity": spec.fidelity, **body}


__all__ = [
    "FIDELITY_DIFT",
    "FIDELITY_FULL",
    "FIDELITY_LADDER",
    "FIDELITY_LOG",
    "JOB_KINDS",
    "JobError",
    "JobParams",
    "JobSpec",
    "LINEAGE_REPRESENTATIONS",
    "STREAM_CHUNK_ROWS",
    "WORKLOAD_FACTORIES",
    "execute_job",
    "parse_params",
]
