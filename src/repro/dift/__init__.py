"""Dynamic information flow tracking: policies, shadow state, engine.

The framework the paper's §3 applications instantiate:
:class:`BoolTaintPolicy` (attack detection), :class:`PCTaintPolicy`
(root-cause location), and the lineage policy in
:mod:`repro.apps.lineage` (data validation).

Propagation runs through a pluggable kernel (:mod:`repro.dift.kernel`),
which owns the one copy of the per-record taint rules:
:class:`ReferenceKernel` replays each record through the generic
rules, :class:`ArrayKernel` through one loop specialized for the two
scalar-label policies (the default for them; ``kernel=`` on the engine
selects).
"""

from .engine import DIFTEngine
from .kernel import (
    ArrayKernel,
    BatchEffects,
    DIFTStats,
    PropagationKernel,
    RecordEncoder,
    RecordStreamCapture,
    ReferenceKernel,
    SinkRule,
    TaintAlert,
    build_kernel,
    select_kernel,
)
from .policy import BoolTaintPolicy, PCTaintPolicy, TaintPolicy
from .shadow import ShadowState

__all__ = [
    "DIFTEngine",
    "DIFTStats",
    "SinkRule",
    "TaintAlert",
    "BoolTaintPolicy",
    "PCTaintPolicy",
    "TaintPolicy",
    "ShadowState",
    "ArrayKernel",
    "BatchEffects",
    "PropagationKernel",
    "RecordEncoder",
    "RecordStreamCapture",
    "ReferenceKernel",
    "build_kernel",
    "select_kernel",
]
