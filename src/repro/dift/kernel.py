"""The DIFT record format, its one encoder and the propagation kernels.

The paper's helper core works because propagation consumes a *compact
stream* instead of re-executing the app (§2.1); the DIFT-coprocessor
line (PAPERS.md, arXiv 1812.01541) keeps one producer-side encoding in
front of a dedicated tag engine.  This module is that seam in software.
Each instruction event becomes a packed 24-byte record (:data:`RECORD`),
and propagation consumes batches of records through a kernel
interface:

* :class:`RecordEncoder` — the one producer: packs ``InstrEvent``s into
  records, owning skip runs, the summary-mode call markers, wide
  payloads, clamped-sink fixups and the GENERIC-record cache.  The
  inline engine's micro-batcher and :class:`RecordStreamCapture` both
  run it.
* :class:`PropagationKernel` — owns the shadow, stats and alerts and
  the one copy of the per-record taint rules, :meth:`~PropagationKernel.step`.
  Per-event consumers (lineage, the reference kernel without
  summaries, telemetry-on machines, the simulated helper core) call it
  per ``InstrEvent``.  Batch replay calls it per record, on the pc's
  template event.
* :class:`ReferenceKernel` — replays every record through ``step``.
* :class:`ArrayKernel` — the batch kernel for the two scalar-label
  policies: one loop applies the same taint rules to every live record
  inline, reading each pc's operand shape from one dict instead of
  building a template event.  Sink records split the batch at pack time
  (the producer flushes after a raise-capable sink), so alert
  seq/ordering and ``AttackDetected`` raise points are byte-identical
  to the reference — proven by the differential suite and the 200-seed
  fuzz.

Kernel selection is :func:`select_kernel` alone, from the caller's
``kernel=`` argument and the policy's type: the array kernel only
specializes the two label-sized policies
(:class:`~repro.dift.policy.BoolTaintPolicy`,
:class:`~repro.dift.policy.PCTaintPolicy`); anything else (the lineage
set policy) stays on the reference kernel.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

from ..isa.instructions import Opcode
from ..vm.errors import AttackDetected
from ..vm.events import Hook, InstrEvent
from .policy import BoolTaintPolicy, COPY_OPS, PCTaintPolicy, TaintPolicy
from .shadow import ShadowState

#: one packed record: kind u8, tid u16, pc u32, a i64, b i64, pad -> 24 B.
RECORD = struct.Struct("<BHIqqx")
RECORD_SIZE = RECORD.size

K_SKIP = 0
K_GENERIC = 1
K_LOAD = 2
K_STORE = 3
K_ALLOC = 4
K_SPAWN = 5
K_IN = 6
K_SINK = 7
#: call-boundary markers (function-summary mode only): zero-weight
#: metadata records cut into the stream by producers that run with
#: ``summaries=True``.  ``K_CALL`` carries ``a=0`` for a
#: direct CALL site and ``a=1`` for an ICALL (never summarized); both
#: kinds are pure no-ops to the base kernels — every kind >= K_CALL
#: represents zero guest instructions.
K_CALL = 8
K_RET = 9

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
#: ``b`` sentinel for "io_value is None" on K_SINK records.
_IO_NONE = _I64_MIN
#: ``b`` flag on a K_LOAD/K_STORE/K_ALLOC record whose operands do not
#: fit the i64 fields.  Guest values are unbounded ints and memory does
#: no bounds checks, so an address may not fit; it is never clamped
#: (that would alias cells).  The true payload — the address, or the
#: ``(base, size)`` block — travels beside the stream instead, keyed by
#: the record's seq (:attr:`PropagationKernel.wide`).
_WIDE = _I64_MIN

#: records per inline micro-batch (``DIFTEngine(kernel_batch=)``).
DEFAULT_KERNEL_BATCH = 2048

#: times an array-kernel request fell back to the reference kernel in
#: this process (reason "policy": the policy is not one it specializes).
kernel_fallbacks: dict[str, int] = {}
_fallback_warned = False


def _fit(v: int) -> int:
    """Clamp ``v`` into the representable i64 payload range (the true
    value is restored producer-side via the alert fixup table)."""
    if v > _I64_MAX:
        return _I64_MAX
    if v <= _I64_MIN:
        return _I64_MIN + 1
    return v


def wide_record(kind: int, tid: int, pc: int, seq: int, payload, wide: dict) -> bytes:
    """Pack a record whose operands overflow the i64 fields: the true
    payload goes to the consumer's side table ``wide``, keyed by seq."""
    wide[seq] = payload
    return RECORD.pack(kind, tid, pc, 0, _WIDE)


def classify_opcode(instr, reg_writes) -> int:
    """Record kind for one static instruction.

    Must mirror :meth:`PropagationKernel.step`'s dispatch chain so each
    pc's record kind matches the branch the taint rules take.
    """
    op = instr.opcode
    if op is Opcode.IN:
        return K_IN
    if op is Opcode.LOAD or op is Opcode.POP:
        return K_LOAD
    if op is Opcode.STORE or op is Opcode.PUSH:
        return K_STORE
    if op is Opcode.ALLOC:
        return K_ALLOC
    if op is Opcode.SPAWN:
        return K_SPAWN
    if reg_writes:
        return K_GENERIC
    if op is Opcode.ICALL or op is Opcode.OUT:
        return K_SINK
    return K_SKIP


@dataclass(frozen=True)
class TaintAlert:
    """A tainted value reached a sink."""

    seq: int
    tid: int
    pc: int  # the sink instruction
    sink: str  # "icall" | "out"
    label: object
    description: str
    #: the value that reached the sink (out value / icall target).
    value: int = 0
    #: output channel for "out" sinks (-1 otherwise).
    channel: int = -1

    def __str__(self) -> str:
        return f"[seq {self.seq}] tainted {self.sink} at pc={self.pc}: {self.description}"


@dataclass
class SinkRule:
    """What counts as a sink and what to do when taint reaches it."""

    kind: str  # "icall" | "out"
    channels: frozenset[int] | None = None  # for "out": which channels (None = all)
    action: str = "raise"  # "raise" -> AttackDetected, "record" -> alert list

    def matches(self, ev: InstrEvent) -> bool:
        if self.kind == "icall":
            return ev.instr.opcode is Opcode.ICALL
        if self.kind == "out":
            return ev.instr.opcode is Opcode.OUT and (
                self.channels is None or ev.channel in self.channels
            )
        return False


@dataclass
class DIFTStats:
    instructions: int = 0
    tainted_instructions: int = 0
    sources: int = 0
    sink_checks: int = 0

    @property
    def taint_rate(self) -> float:
        return self.tainted_instructions / self.instructions if self.instructions else 0.0


def publish_taint_metrics(registry, stats: DIFTStats, alerts, shadow: ShadowState) -> None:
    """The ``dift.*`` propagation/alert metrics every DIFT front end
    reports into a :class:`~repro.telemetry.MetricsRegistry`."""
    registry.counter("dift.instructions").inc(stats.instructions)
    registry.counter("dift.propagations").inc(stats.tainted_instructions)
    registry.counter("dift.sources").inc(stats.sources)
    registry.counter("dift.sink_checks").inc(stats.sink_checks)
    registry.counter("dift.alerts").inc(len(alerts))
    registry.gauge("dift.taint_rate").set(stats.taint_rate)
    registry.gauge("dift.tainted_locations.peak").set_max(shadow.peak_locations)
    registry.gauge("dift.tainted_locations.final").set(
        shadow.tainted_cells + shadow.tainted_regs
    )
    registry.gauge("dift.shadow_bytes").set(shadow.shadow_bytes)


#: encoder pseudo-kinds for call-boundary instructions (summary-mode
#: markers only); negative so no packed record kind collides.
_MARK_CALL, _MARK_RET, _MARK_ICALL = -1, -2, -3


class RecordEncoder:
    """The one producer-side encoder: ``InstrEvent`` -> packed records.

    :attr:`on_instruction` is the per-instruction packing closure (a
    hook callable).  It appends records to :attr:`batch` and owns every
    producer-side part of the format:

    * skip runs — consecutive instructions of kind ``K_SKIP`` collapse
      into one record carrying the run length;
    * call markers (``markers=True``) — CALL/RET fold their own skip
      weight into the run, cut it, then append a zero-weight
      ``K_CALL``/``K_RET`` record, so CALL's weight lands outside the
      region and RET's inside it; ICALL cuts the run and puts its
      ``K_CALL(a=1)`` marker just before its own sink record;
    * wide payloads — an address or ALLOC block past the i64 fields
      goes to the side table ``wide`` by seq (see :func:`wide_record`);
    * clamped sinks — a sink value past the i64 fields is clamped on the
      wire and the true value parked in :attr:`fixups` by seq;
    * GENERIC records — cached per (pc, tid), their payload is static.

    ``register(ev) -> (kind, may_raise)`` classifies a pc the first time
    it runs, registering its template before any record can reference
    it.  ``flush()`` consumes :attr:`batch` once it holds
    ``flush_bytes`` and right after a ``may_raise`` sink record, so an
    ``AttackDetected`` escapes from that instruction's own dispatch.  A
    skip run is never open at either point; :meth:`cut` closes the
    pending one when a consumer drains mid-run or at the stream's end.
    """

    def __init__(self, register, wide: dict, flush, flush_bytes: int, markers: bool = False):
        self.batch = batch = bytearray()
        #: seq -> true value of a clamped sink payload.
        self.fixups: dict[int, int] = {}
        #: [pending skip run, instructions in cut skip runs, skip
        #: records, marker records]; updated only when a run is cut.
        self.counts = cell = [0, 0, 0, 0]
        kinds: dict[int, int] = {}
        kinds_get = kinds.get
        raise_pcs: set[int] = set()
        generic: dict[int, bytes] = {}
        generic_get = generic.get
        fixups = self.fixups
        pack = RECORD.pack
        extend = batch.extend
        fit = _fit
        io_none = _IO_NONE
        SKIP, GENERIC, LOAD, STORE = K_SKIP, K_GENERIC, K_LOAD, K_STORE
        ALLOC, SPAWN, IN, SINK = K_ALLOC, K_SPAWN, K_IN, K_SINK
        CALL, RET, ICALL = Opcode.CALL, Opcode.RET, Opcode.ICALL

        def on_instruction(ev: InstrEvent) -> None:
            pc = ev.pc
            kind = kinds_get(pc)
            if kind is None:
                kind, may_raise = register(ev)
                if markers:
                    op = ev.instr.opcode
                    if op is CALL:
                        kind = _MARK_CALL
                    elif op is RET:
                        kind = _MARK_RET
                    elif op is ICALL:
                        kind = _MARK_ICALL
                kinds[pc] = kind
                if may_raise:
                    raise_pcs.add(pc)
            if kind < 0:
                if kind == _MARK_ICALL:
                    run = cell[0]
                    if run:
                        extend(pack(SKIP, 0, 0, run, 0))
                        cell[1] += run
                        cell[2] += 1
                        cell[0] = 0
                    extend(pack(K_CALL, ev.tid, pc, 1, 0))
                    cell[3] += 1
                    kind = SINK
                else:
                    cell[0] += 1
                    run = cell[0]
                    extend(pack(SKIP, 0, 0, run, 0))
                    cell[1] += run
                    cell[2] += 1
                    cell[0] = 0
                    extend(pack(K_CALL if kind == _MARK_CALL else K_RET, ev.tid, pc, 0, 0))
                    cell[3] += 1
                    if len(batch) >= flush_bytes:
                        flush()
                    return
            if kind == SKIP:
                cell[0] += 1
                return
            run = cell[0]
            if run:
                extend(pack(SKIP, 0, 0, run, 0))
                cell[1] += run
                cell[2] += 1
                cell[0] = 0
            tid = ev.tid
            if kind == GENERIC:
                key = pc << 16 | tid
                rec = generic_get(key)
                if rec is None:
                    rec = generic[key] = pack(GENERIC, tid, pc, 0, 0)
                extend(rec)
            elif kind == LOAD:
                addr = ev.mem_reads[0][0]
                try:
                    extend(pack(LOAD, tid, pc, addr, 0))
                except struct.error:
                    extend(wide_record(LOAD, tid, pc, ev.seq, addr, wide))
            elif kind == STORE:
                addr = ev.mem_writes[0][0]
                try:
                    extend(pack(STORE, tid, pc, addr, 0))
                except struct.error:
                    extend(wide_record(STORE, tid, pc, ev.seq, addr, wide))
            elif kind == SINK:
                value = ev.reg_reads[0][1]
                io = ev.io_value
                a = fit(value)
                b = io_none if io is None else fit(io)
                if a != value or (io is not None and b != io):
                    # Taint never depends on these values; keep the true
                    # sink value so the consumer's alerts can be patched.
                    fixups[ev.seq] = io if io is not None else value
                extend(pack(SINK, tid, pc, a, b))
                if pc in raise_pcs:
                    flush()
                    return
            elif kind == IN:
                extend(pack(IN, tid, pc, fit(ev.io_value), ev.input_index))
            elif kind == ALLOC:
                base, size = ev.alloc
                if base + size <= _I64_MAX:
                    extend(pack(ALLOC, tid, pc, base, size))
                else:
                    extend(wide_record(ALLOC, tid, pc, ev.seq, ev.alloc, wide))
            else:  # K_SPAWN
                extend(pack(SPAWN, tid, pc, ev.reg_writes[0][1], 0))
            if len(batch) >= flush_bytes:
                flush()

        self.on_instruction = on_instruction

    def patch(self, alerts: list[TaintAlert], start: int = 0) -> None:
        """Restore the true sink values of ``alerts[start:]`` in place."""
        fixups = self.fixups
        if fixups:
            for i in range(start, len(alerts)):
                value = fixups.get(alerts[i].seq)
                if value is not None:
                    alerts[i] = replace(alerts[i], value=value)

    def cut(self) -> None:
        """Close the pending skip run into :attr:`batch`."""
        cell = self.counts
        run = cell[0]
        if run:
            self.batch.extend(RECORD.pack(K_SKIP, 0, 0, run, 0))
            cell[1] += run
            cell[2] += 1
            cell[0] = 0


@dataclass
class BatchEffects:
    """What one ``propagate_batch`` call did (for accounting/telemetry)."""

    records: int = 0  # packed records consumed (incl. skip records)
    instructions: int = 0  # guest instructions they represent
    replayed: int = 0  # records run through per-record logic
    tainted: int = 0  # instructions with a tainted input
    overhead: int = 0  # modeled cycles (check + propagate stubs)
    raised: bool = False  # an AttackDetected escaped mid-batch


def select_kernel(explicit: str | None, policy: TaintPolicy) -> tuple[str, str | None]:
    """Resolve the propagation kernel for ``policy``: ``(name, fallback)``.

    ``"reference"`` is always honoured.  ``None`` and ``"array"`` get
    the array kernel when the policy is exactly
    :class:`~repro.dift.policy.BoolTaintPolicy` or
    :class:`~repro.dift.policy.PCTaintPolicy` (the array kernel
    specializes their scalar labels, and a subclass could override the
    algebra); otherwise they fall back to the reference kernel with
    ``fallback="policy"``.  Every fallback counts in
    :data:`kernel_fallbacks`; an explicit ``"array"`` request that falls
    back also warns, once per process.
    """
    if explicit not in (None, "array", "reference"):
        raise ValueError(f"unknown propagation kernel {explicit!r}")
    if explicit == "reference":
        return "reference", None
    if type(policy) in (BoolTaintPolicy, PCTaintPolicy):
        return "array", None
    global _fallback_warned
    kernel_fallbacks["policy"] = kernel_fallbacks.get("policy", 0) + 1
    if explicit == "array" and not _fallback_warned:
        import warnings

        warnings.warn(
            "array propagation kernel requested but unavailable (policy); "
            "falling back to the reference kernel",
            RuntimeWarning,
            stacklevel=3,
        )
        _fallback_warned = True
    return "reference", "policy"


class PropagationKernel:
    """Stateful propagation: the per-record taint rules and their state.

    A kernel owns the shadow, stats and alerts, the per-pc templates
    and the running ``seq``.  :meth:`step` applies the taint rules to
    one ``InstrEvent``; :meth:`propagate_batch` consumes the packed
    record stream batch by batch.  Producers register each pc's static
    operand template (:meth:`register_template`) strictly before the
    first record referencing it, and put each wide record's payload in
    :attr:`wide` before the record; a missing one raises ``KeyError``.

    Sources: ``in`` instructions on ``source_channels`` (None = all).
    Data flows propagate labels register<->register and through memory
    (loads/stores/push/pop), with spawn passing the argument's label
    into the child's r0.  Sinks (``sinks``, default a raising icall
    rule) are checked against the shadow; a tainted sink records a
    :class:`TaintAlert` and, for a raising rule, raises
    :class:`~repro.vm.AttackDetected`.  Address registers join loaded
    and stored labels only with ``propagate_addresses=True``.
    """

    #: cycles for the per-instruction "any operand tainted?" stub.
    check_cycles = 1

    def __init__(
        self,
        policy: TaintPolicy,
        source_channels: frozenset[int] | None = None,
        sinks=None,
        propagate_addresses: bool = False,
        shadow: ShadowState | None = None,
    ):
        self.policy = policy
        self.source_channels = source_channels
        self.sinks = sinks if sinks is not None else [SinkRule(kind="icall")]
        self.propagate_addresses = propagate_addresses
        self.shadow = shadow if shadow is not None else ShadowState(policy)
        self.stats = DIFTStats()
        self.alerts: list[TaintAlert] = []
        #: pc -> template InstrEvent (dynamic fields mutated in place).
        self.templates: dict[int, InstrEvent] = {}
        #: pc -> tuple of statically-matching SinkRules (K_SINK pcs).
        self.rules_for_pc: dict[int, tuple] = {}
        #: seq -> true payload of a wide record (see :data:`_WIDE`).
        self.wide: dict[int, object] = {}
        #: global dynamic instruction number of the next record.
        self.seq = 0
        #: effects of a batch that raised (stats were applied; the
        #: caller charges overhead before propagating the exception).
        self.raised_effects: BatchEffects | None = None
        self.batches = 0
        self.records_consumed = 0
        self.records_replayed = 0

    # -- the per-record taint rules -----------------------------------------
    def step(self, ev: InstrEvent) -> int:
        """Propagate one instruction; returns its modeled cycles.

        That is the check stub plus, when an input is tainted, the
        policy's propagate stub.  A tainted sink under a raising rule
        raises before returning: the instruction is counted but
        charges nothing.
        """
        op = ev.instr.opcode
        tid = ev.tid
        shadow = self.shadow
        regs_get = shadow.regs.get
        stats = self.stats
        stats.instructions += 1
        tainted = False

        if op is Opcode.IN:
            if self.source_channels is None or ev.channel in self.source_channels:
                label = self.policy.taint_for_input(ev)
                stats.sources += 1
                tainted = label is not None
            else:
                label = None
            shadow.set_reg(tid, ev.reg_writes[0][0], label)
        elif op is Opcode.LI:
            shadow.set_reg(tid, ev.reg_writes[0][0], None)
        elif op is Opcode.LOAD or op is Opcode.POP:
            label = shadow.mem.get(ev.mem_reads[0][0])
            labels = [] if label is None else [label]
            if self.propagate_addresses:
                labels += [l for r, _ in ev.reg_reads if (l := regs_get((tid, r))) is not None]
            label = self._join(ev, labels)
            tainted = label is not None
            # dst is the first (non-SP) written register
            shadow.set_reg(tid, ev.reg_writes[0][0], label)
        elif op is Opcode.STORE or op is Opcode.PUSH:
            reads = ev.reg_reads if self.propagate_addresses else ev.reg_reads[:1]
            labels = [l for r, _ in reads if (l := regs_get((tid, r))) is not None]
            label = self._join(ev, labels)
            tainted = label is not None
            shadow.set_cell(ev.mem_writes[0][0], label)
        elif op is Opcode.ALLOC:
            # Fresh memory is untainted even when a freed block is reused.
            base, size = ev.alloc
            shadow.clear_range(base, size)
            shadow.set_reg(tid, ev.reg_writes[0][0], None)
        elif op is Opcode.SPAWN:
            arg_label = regs_get((tid, ev.reg_reads[0][0]))
            shadow.set_reg(ev.reg_writes[0][1], 0, arg_label)
            shadow.set_reg(tid, ev.reg_writes[0][0], None)  # tid value is clean
            tainted = arg_label is not None
        elif ev.reg_writes:
            # Generic ALU/compare/move propagation.
            labels = [l for r, _ in ev.reg_reads if (l := regs_get((tid, r))) is not None]
            label = self._join(ev, labels)
            tainted = label is not None
            shadow.set_reg(tid, ev.reg_writes[0][0], label)
        elif op is Opcode.ICALL or op is Opcode.OUT:
            label = regs_get((tid, ev.reg_reads[0][0]))
            if label is not None:
                tainted = True
                for rule in self.sinks:
                    if rule.matches(ev):
                        self._alert(ev, rule, label)

        if tainted:
            stats.tainted_instructions += 1
            return self.check_cycles + self.policy.propagate_cycles
        return self.check_cycles

    def _join(self, ev: InstrEvent, labels: list) -> object | None:
        """The label an instruction writes from its tainted inputs."""
        if not labels:
            return None
        label = labels[0] if len(labels) == 1 else self.policy.combine(labels)
        return self.policy.through(ev, label)

    def _alert(self, ev: InstrEvent, rule: SinkRule, label: object) -> None:
        self.stats.sink_checks += 1
        alert = TaintAlert(
            seq=ev.seq,
            tid=ev.tid,
            pc=ev.pc,
            sink=rule.kind,
            label=label,
            description=self.policy.describe(label),
            value=ev.io_value if ev.io_value is not None else ev.reg_reads[0][1],
            channel=ev.channel if ev.channel is not None else -1,
        )
        self.alerts.append(alert)
        if rule.action == "raise":
            culprit = label if isinstance(self.policy, PCTaintPolicy) else -1
            raise AttackDetected(str(alert), culprit_pc=culprit)

    # -- templates ----------------------------------------------------------
    def register_template(
        self, pc: int, instr, reg_reads, reg_writes, channel
    ) -> tuple[int, bool]:
        """Register pc's static operand template.

        Returns ``(kind, may_raise)``: the record kind producers pack
        for this pc, and whether a sink here can raise (producers flush
        before such records so the raise escapes the sink instruction's
        own hook dispatch, exactly like the inline reference).
        """
        kind = classify_opcode(instr, reg_writes)
        may_raise = False
        if kind == K_SKIP:
            return kind, may_raise
        ev = InstrEvent(
            seq=0,
            tid=0,
            pc=pc,
            instr=instr,
            reg_reads=reg_reads,
            reg_writes=reg_writes,
            channel=channel,
        )
        self.templates[pc] = ev
        if kind == K_SINK:
            # Rule matching reads only static fields (opcode, channel).
            matched = tuple(r for r in self.sinks if r.matches(ev))
            self.rules_for_pc[pc] = matched
            may_raise = any(r.action == "raise" for r in matched)
        return kind, may_raise

    # -- the batch interface -------------------------------------------------
    def propagate_batch(self, records: bytes) -> BatchEffects:
        """Propagate one batch of packed records; returns its effects."""
        return self._propagate(records)

    def _propagate(self, records: bytes) -> BatchEffects:
        raise NotImplementedError

    # -- shared reference replay --------------------------------------------
    def _replay_all(self, records: bytes) -> BatchEffects:
        """Replay every record through :meth:`step` on its pc's template
        event — the reference semantics both kernels share."""
        stats = self.stats
        i0 = stats.instructions
        t0 = stats.tainted_instructions
        seq = self.seq
        n_records = len(records) // RECORD_SIZE
        templates = self.templates
        wide_payloads = self.wide
        step = self.step
        io_none = _IO_NONE
        wide = _WIDE
        SKIP, GENERIC, LOAD, STORE = K_SKIP, K_GENERIC, K_LOAD, K_STORE
        ALLOC, IN, SINK, CALL_M = K_ALLOC, K_IN, K_SINK, K_CALL
        check = self.check_cycles
        prop = self.policy.propagate_cycles
        try:
            for kind, tid, pc, a, b in RECORD.iter_unpack(records):
                # Skip records carry pc=0, so they must short-circuit
                # before any template lookup.
                if kind == SKIP:
                    stats.instructions += a
                    seq += a
                    continue
                if kind >= CALL_M:
                    # Call-boundary markers: zero-weight stream metadata
                    # consumed by the summary layer; plain no-ops here.
                    continue
                ev = templates[pc]
                ev.seq = seq
                seq += 1
                ev.tid = tid
                if kind == GENERIC:
                    pass
                elif kind == LOAD:
                    if b == wide:
                        a = wide_payloads.pop(ev.seq)
                    ev.mem_reads = ((a, 0),)
                elif kind == STORE:
                    if b == wide:
                        a = wide_payloads.pop(ev.seq)
                    ev.mem_writes = ((a, 0),)
                elif kind == SINK:
                    ev.reg_reads = ((ev.reg_reads[0][0], a),)
                    ev.io_value = None if b == io_none else b
                elif kind == IN:
                    ev.io_value = a
                    ev.input_index = b
                elif kind == ALLOC:
                    ev.alloc = wide_payloads.pop(ev.seq) if b == wide else (a, b)
                else:  # K_SPAWN
                    ev.reg_writes = ((ev.reg_writes[0][0], a),)
                step(ev)
        except AttackDetected:
            # Same stopping point as inline: stats/taint/alerts freeze
            # where the raise happened; the raising record counted an
            # instruction but charges no overhead cycles.
            self.seq = seq
            d_instr = stats.instructions - i0
            d_taint = stats.tainted_instructions - t0
            self.raised_effects = BatchEffects(
                records=n_records,
                instructions=d_instr,
                replayed=n_records,
                tainted=d_taint,
                overhead=check * (d_instr - 1) + prop * d_taint,
                raised=True,
            )
            self.batches += 1
            self.records_consumed += n_records
            self.records_replayed += n_records
            raise
        self.seq = seq
        d_instr = stats.instructions - i0
        d_taint = stats.tainted_instructions - t0
        self.batches += 1
        self.records_consumed += n_records
        self.records_replayed += n_records
        return BatchEffects(
            records=n_records,
            instructions=d_instr,
            replayed=n_records,
            tainted=d_taint,
            overhead=check * d_instr + prop * d_taint,
        )


class ReferenceKernel(PropagationKernel):
    """Pure-python propagation: every record replays through :meth:`step`."""

    def _propagate(self, records: bytes) -> BatchEffects:
        return self._replay_all(records)


class ArrayKernel(PropagationKernel):
    """Batch propagation specialized for the scalar-label policies.

    One loop walks the packed batch record by record and applies
    :meth:`~PropagationKernel.step`'s taint rules inline for
    :class:`~repro.dift.policy.BoolTaintPolicy` and
    :class:`~repro.dift.policy.PCTaintPolicy`: a skip record advances
    ``seq`` by its run length, a call marker is skipped, and every live
    record costs one dict hit on its pc's operand shape instead of a
    template event and a generic ``step`` call.  The ISA reads at most
    two registers per instruction, so the shape has two read slots.

    Replay order is record order, so alerts, raise points,
    peak-location high-water marks and stats are byte-identical to the
    reference."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        if type(self.policy) not in (BoolTaintPolicy, PCTaintPolicy):
            raise ValueError(
                "ArrayKernel specializes BoolTaintPolicy/PCTaintPolicy; "
                f"got {type(self.policy).__name__} (use ReferenceKernel)"
            )
        #: pc -> (r0, r1, w, is_source, is_copy, sink_rules, channel).
        self._info = {}

    def register_template(self, pc, instr, reg_reads, reg_writes, channel):
        kind, may_raise = super().register_template(
            pc, instr, reg_reads, reg_writes, channel
        )
        if kind == K_SKIP:
            return kind, may_raise
        if kind == K_GENERIC:
            reads = [r for r, _ in reg_reads]
        elif kind == K_STORE:
            reads = [reg_reads[0][0]]
            if self.propagate_addresses:
                reads += [r for r, _ in reg_reads[1:]]
        elif kind == K_LOAD:
            reads = [r for r, _ in reg_reads] if self.propagate_addresses else []
        elif kind in (K_SPAWN, K_SINK):
            reads = [reg_reads[0][0]]
        else:  # K_IN, K_ALLOC
            reads = []
        if len(reads) > 2:
            raise ValueError(
                f"pc {pc}: {instr.opcode.name} reads {len(reads)} registers; "
                "the batch loop has two read slots"
            )
        reads += [-1] * (2 - len(reads))
        self._info[pc] = (
            reads[0],
            reads[1],
            # SINKs write nothing; STOREs write memory, not a register.
            reg_writes[0][0] if kind not in (K_SINK, K_STORE) else -1,
            kind == K_IN
            and (self.source_channels is None or channel in self.source_channels),
            instr.opcode in COPY_OPS,
            self.rules_for_pc.get(pc, ()),
            channel if channel is not None else -1,
        )
        return kind, may_raise

    def _propagate(self, records: bytes) -> BatchEffects:
        policy = self.policy
        is_pc = type(policy) is PCTaintPolicy
        shadow = self.shadow
        stats = self.stats
        regs = shadow.regs
        mem = shadow.mem
        regs_get = regs.get
        regs_pop = regs.pop
        mem_get = mem.get
        mem_pop = mem.pop
        sh_clear = shadow.clear_range
        wide_pop = self.wide.pop
        alerts_append = self.alerts.append
        describe = policy.describe
        peak = shadow.peak_locations
        check = self.check_cycles
        prop = policy.propagate_cycles
        SKIP, GENERIC, LOAD, STORE = K_SKIP, K_GENERIC, K_LOAD, K_STORE
        ALLOC, SPAWN, IN, CALL_M = K_ALLOC, K_SPAWN, K_IN, K_CALL
        io_none = _IO_NONE
        wide = _WIDE
        info_get = self._info.__getitem__
        n_records = len(records) // RECORD_SIZE
        seq0 = seq = self.seq
        skipped = 0  # instructions in skip runs
        tainted_n = 0
        sources_n = 0
        sink_checks_n = 0
        try:
            for k, t, p, av, bv in RECORD.iter_unpack(records):
                if k == SKIP:
                    seq += av
                    skipped += av
                    continue
                if k >= CALL_M:
                    # Call-boundary markers: zero-weight stream metadata
                    # consumed by the summary layer; plain no-ops here.
                    continue
                sq = seq
                seq += 1
                r0, r1, wreg, src, copy, rules, chan_p = info_get(p)
                if k == GENERIC:
                    lab = regs_get((t, r0)) if r0 >= 0 else None
                    if r1 >= 0:
                        l2 = regs_get((t, r1))
                        if l2 is not None and (lab is None or not is_pc or l2 > lab):
                            lab = l2
                    if lab is None:
                        regs_pop((t, wreg), None)
                    else:
                        if is_pc and not copy:
                            lab = p
                        tainted_n += 1
                        regs[(t, wreg)] = lab
                        size = len(regs) + len(mem)
                        if size > peak:
                            peak = size
                elif k == LOAD:
                    if bv == wide:
                        av = wide_pop(sq)
                    lab = mem_get(av)
                    if r0 >= 0:  # propagate_addresses: address regs join in
                        l2 = regs_get((t, r0))
                        if l2 is not None and (lab is None or not is_pc or l2 > lab):
                            lab = l2
                        if r1 >= 0:
                            l2 = regs_get((t, r1))
                            if l2 is not None and (
                                lab is None or not is_pc or l2 > lab
                            ):
                                lab = l2
                    if lab is None:
                        regs_pop((t, wreg), None)
                    else:
                        if is_pc and not copy:
                            lab = p
                        tainted_n += 1
                        regs[(t, wreg)] = lab
                        size = len(regs) + len(mem)
                        if size > peak:
                            peak = size
                elif k == STORE:
                    if bv == wide:
                        av = wide_pop(sq)
                    lab = regs_get((t, r0))
                    if r1 >= 0:  # propagate_addresses
                        l2 = regs_get((t, r1))
                        if l2 is not None and (lab is None or not is_pc or l2 > lab):
                            lab = l2
                    if lab is None:
                        mem_pop(av, None)
                    else:
                        if is_pc and not copy:
                            lab = p
                        tainted_n += 1
                        mem[av] = lab
                        size = len(regs) + len(mem)
                        if size > peak:
                            peak = size
                elif k == IN:
                    if src:
                        sources_n += 1
                        tainted_n += 1
                        regs[(t, wreg)] = p if is_pc else True
                        size = len(regs) + len(mem)
                        if size > peak:
                            peak = size
                    else:
                        regs_pop((t, wreg), None)
                elif k == ALLOC:
                    if bv == wide:
                        av, bv = wide_pop(sq)
                    sh_clear(av, bv)
                    regs_pop((t, wreg), None)
                elif k == SPAWN:
                    arg = regs_get((t, r0))
                    child_key = (av, 0)
                    if arg is None:
                        regs_pop(child_key, None)
                    else:
                        regs[child_key] = arg
                        size = len(regs) + len(mem)
                        if size > peak:
                            peak = size
                    regs_pop((t, wreg), None)
                    if arg is not None:
                        tainted_n += 1
                else:  # K_SINK
                    lab = regs_get((t, r0))
                    if lab is not None:
                        for rule in rules:
                            sink_checks_n += 1
                            alert = TaintAlert(
                                seq=sq,
                                tid=t,
                                pc=p,
                                sink=rule.kind,
                                label=lab,
                                description=describe(lab),
                                value=bv if bv != io_none else av,
                                channel=chan_p,
                            )
                            alerts_append(alert)
                            if rule.action == "raise":
                                raise AttackDetected(
                                    str(alert), culprit_pc=lab if is_pc else -1
                                )
                        tainted_n += 1
        except AttackDetected:
            # Freeze exactly at the raise point: the raising record
            # counts an instruction and its sink checks/alert above, but
            # neither taint nor a check cycle — like the reference.
            self.raised_effects = BatchEffects(
                records=n_records,
                instructions=seq - seq0,
                replayed=seq - seq0 - skipped,
                tainted=tainted_n,
                overhead=check * (seq - seq0 - 1) + prop * tainted_n,
                raised=True,
            )
            raise
        finally:
            stats.instructions += seq - seq0
            stats.tainted_instructions += tainted_n
            stats.sources += sources_n
            stats.sink_checks += sink_checks_n
            shadow.peak_locations = peak
            self.seq = seq
            self.batches += 1
            self.records_consumed += n_records
            self.records_replayed += seq - seq0 - skipped
        return BatchEffects(
            records=n_records,
            instructions=seq - seq0,
            replayed=seq - seq0 - skipped,
            tainted=tainted_n,
            overhead=check * (seq - seq0) + prop * tainted_n,
        )


def build_kernel(name: str, policy: TaintPolicy, **kw) -> PropagationKernel:
    """Instantiate a kernel by resolved name ("array" | "reference")."""
    if name == "array":
        return ArrayKernel(policy, **kw)
    if name == "reference":
        return ReferenceKernel(policy, **kw)
    raise ValueError(f"unknown propagation kernel {name!r}")


class RecordStreamCapture(Hook):
    """Capture a run's packed record stream (bench/test aid).

    Attach to a machine like an engine; after the run, :attr:`chunks`
    holds the packed record bytes (skip-compressed, the format the
    kernels consume), :attr:`templates` the per-pc operand templates in
    first-use order, :attr:`fixups` the seq -> true-value patches for
    clamped sink payloads and :attr:`wide` the seq -> payload side
    table of wide records.  :meth:`prime` registers the templates and
    wide payloads into a kernel so the stream can be replayed through
    it.

    The records come from the one :class:`RecordEncoder`; each batch it
    flushes is kept instead of propagated.  ``markers=True`` cuts the
    summary-mode call-boundary markers into the stream.
    """

    def __init__(self, flush_records: int = 4096, markers: bool = False):
        self.chunks: list[bytes] = []
        self.templates: list[tuple] = []
        self.wide: dict[int, object] = {}
        self._encoder = RecordEncoder(
            self._register,
            self.wide,
            self._flush,
            flush_records * RECORD_SIZE,
            markers=markers,
        )
        self.on_instruction = self._encoder.on_instruction

    @property
    def fixups(self) -> dict[int, int]:
        return self._encoder.fixups

    @property
    def instructions(self) -> int:
        """Guest instructions the captured stream stands for."""
        return sum(
            a if kind == K_SKIP else kind < K_CALL
            for chunk in self.chunks
            for kind, _tid, _pc, a, _b in RECORD.iter_unpack(chunk)
        )

    def attach(self, machine) -> "RecordStreamCapture":
        machine.hooks.subscribe(self)
        return self

    def _register(self, ev: InstrEvent) -> tuple[int, bool]:
        kind = classify_opcode(ev.instr, ev.reg_writes)
        if kind != K_SKIP:
            self.templates.append((ev.pc, ev.instr, ev.reg_reads, ev.reg_writes, ev.channel))
        return kind, False

    def _flush(self) -> None:
        batch = self._encoder.batch
        self.chunks.append(bytes(batch))
        del batch[:]

    def finish(self) -> "RecordStreamCapture":
        self._encoder.cut()
        if self._encoder.batch:
            self._flush()
        return self

    on_run_end = finish

    def prime(self, kernel: PropagationKernel) -> PropagationKernel:
        """Register the captured templates and wide payloads into ``kernel``."""
        for pc, instr, reg_reads, reg_writes, channel in self.templates:
            kernel.register_template(pc, instr, reg_reads, reg_writes, channel)
        kernel.wide.update(self.wide)
        return kernel

    def patch_alerts(self, alerts: list[TaintAlert]) -> list[TaintAlert]:
        """Restore clamped sink values on replayed alerts."""
        alerts = list(alerts)
        self._encoder.patch(alerts)
        return alerts


__all__ = [
    "ArrayKernel",
    "BatchEffects",
    "DEFAULT_KERNEL_BATCH",
    "DIFTStats",
    "K_ALLOC",
    "K_CALL",
    "K_GENERIC",
    "K_IN",
    "K_LOAD",
    "K_RET",
    "K_SINK",
    "K_SKIP",
    "K_SPAWN",
    "K_STORE",
    "PropagationKernel",
    "RECORD",
    "RECORD_SIZE",
    "RecordEncoder",
    "RecordStreamCapture",
    "ReferenceKernel",
    "SinkRule",
    "TaintAlert",
    "build_kernel",
    "classify_opcode",
    "kernel_fallbacks",
    "publish_taint_metrics",
    "select_kernel",
    "wide_record",
]
