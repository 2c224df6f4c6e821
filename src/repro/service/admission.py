"""Bounded admission with fidelity-shedding backpressure.

The daemon's queue is a hard bound: a request that cannot be queued is
answered ``rejected`` immediately — explicit backpressure, never a
hang.  Before that wall is hit, overload degrades gracefully by
shedding *fidelity* (the §2.2 cheap-logging/expensive-replay split):

==============================  =====================================
queue depth / capacity          decision
==============================  =====================================
``< degrade_at``                admit at the requested fidelity
``>= degrade_at``               admit one rung down the kind's ladder
``>= shed_at``                  admit at the ladder's cheapest rung
``>= 1.0`` (capacity)           reject
==============================  =====================================

Degradation is a policy knob (``degrade=``, ``ServiceConfig.degrade``,
``repro serve --no-degrade``; default on): with it off, the middle
bands admit at the requested fidelity and overload goes straight to
the rejection wall.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..jobs import FIDELITY_LADDER

ACTION_ADMIT = "admit"
ACTION_REJECT = "reject"


@dataclass(frozen=True)
class AdmissionDecision:
    """What the controller chose for one request."""

    action: str  # ACTION_ADMIT | ACTION_REJECT
    fidelity: str  # the fidelity the job will actually run at
    degraded: bool  # fidelity differs from the requested one
    reason: str = ""


class AdmissionController:
    """Depth-based admit/degrade/reject policy over the job queue."""

    def __init__(
        self,
        capacity: int,
        degrade_fraction: float = 0.5,
        shed_fraction: float = 0.75,
        degrade: bool = True,
    ):
        if capacity < 1:
            raise ValueError("admission capacity must be >= 1")
        if not 0.0 < degrade_fraction <= shed_fraction <= 1.0:
            raise ValueError("need 0 < degrade_fraction <= shed_fraction <= 1")
        self.capacity = capacity
        self.degrade_at = degrade_fraction * capacity
        self.shed_at = shed_fraction * capacity
        self.degrade_enabled = degrade

    def decide(self, depth: int, kind: str, fidelity: str) -> AdmissionDecision:
        """Decide one request given the current queue ``depth``
        (queued + running jobs, i.e. admitted-but-unfinished work)."""
        if depth >= self.capacity:
            return AdmissionDecision(
                ACTION_REJECT,
                fidelity,
                False,
                f"queue at capacity ({depth}/{self.capacity})",
            )
        ladder = FIDELITY_LADDER.get(kind, (fidelity,))
        resolved = fidelity
        if self.degrade_enabled and depth >= self.degrade_at and fidelity in ladder:
            rung = ladder.index(fidelity)
            if depth >= self.shed_at:
                rung = len(ladder) - 1
            else:
                rung = min(rung + 1, len(ladder) - 1)
            resolved = ladder[rung]
        degraded = resolved != fidelity
        reason = (
            f"overload ({depth}/{self.capacity}): fidelity {fidelity} -> {resolved}"
            if degraded
            else ""
        )
        return AdmissionDecision(ACTION_ADMIT, resolved, degraded, reason)


__all__ = ["ACTION_ADMIT", "ACTION_REJECT", "AdmissionController", "AdmissionDecision"]
