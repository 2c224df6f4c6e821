"""Machine-readable run reports.

One :class:`RunReport` summarizes one tool run: final status, dynamic
instruction count, base/overhead/total cycles from the deterministic
cost model, and the full metrics snapshot of a
:class:`~repro.telemetry.metrics.MetricsRegistry`.  The JSON form is
what ``python -m repro <cmd> --report out.json`` writes and what the
benchmark suite records per experiment, so the paper's figures
(bytes/instr, slowdown, overhead %) all have a scriptable source.

Everything except ``wall_time_s`` is deterministic: two identical runs
serialize to byte-identical reports once the wall clock is excluded
(see :meth:`RunReport.to_dict` with ``deterministic=True``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Schema identifier; bump the suffix on breaking changes.
REPORT_SCHEMA = "repro.run_report/v1"

_REQUIRED_FIELDS = {
    "schema": str,
    "tool": str,
    "status": str,
    "instructions": int,
    "base_cycles": int,
    "overhead_cycles": int,
    "total_cycles": int,
    "slowdown": (int, float),
    "metrics": dict,
}


@dataclass
class RunReport:
    """Status + cycle accounting + metrics for one run."""

    tool: str
    status: str
    instructions: int
    base_cycles: int
    overhead_cycles: int
    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    wall_time_s: float | None = None
    schema: str = REPORT_SCHEMA

    @property
    def total_cycles(self) -> int:
        return self.base_cycles + self.overhead_cycles

    @property
    def slowdown(self) -> float:
        if self.base_cycles == 0:
            return float("inf") if self.overhead_cycles > 0 else 1.0
        return self.total_cycles / self.base_cycles

    def to_dict(self, deterministic: bool = False) -> dict:
        out = {
            "schema": self.schema,
            "tool": self.tool,
            "status": self.status,
            "instructions": self.instructions,
            "base_cycles": self.base_cycles,
            "overhead_cycles": self.overhead_cycles,
            "total_cycles": self.total_cycles,
            # JSON has no Infinity; clamp the empty-base pathology.
            "slowdown": self.slowdown if self.base_cycles else 0.0,
            "metrics": self.metrics,
            "extra": self.extra,
        }
        if not deterministic:
            out["wall_time_s"] = self.wall_time_s
        return out

    def to_json(self, deterministic: bool = False) -> str:
        return json.dumps(self.to_dict(deterministic=deterministic), indent=1, sort_keys=True)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        validate_report(data)
        return cls(
            tool=data["tool"],
            status=data["status"],
            instructions=data["instructions"],
            base_cycles=data["base_cycles"],
            overhead_cycles=data["overhead_cycles"],
            metrics=data["metrics"],
            extra=data.get("extra", {}),
            wall_time_s=data.get("wall_time_s"),
            schema=data["schema"],
        )


def validate_report(data: dict) -> None:
    """Raise ``ValueError`` unless ``data`` matches the documented schema."""
    if not isinstance(data, dict):
        raise ValueError("report must be a JSON object")
    for name, types in _REQUIRED_FIELDS.items():
        if name not in data:
            raise ValueError(f"report missing required field {name!r}")
        if not isinstance(data[name], types) or isinstance(data[name], bool):
            raise ValueError(f"report field {name!r} has wrong type {type(data[name]).__name__}")
    if data["schema"] != REPORT_SCHEMA:
        raise ValueError(f"unknown report schema {data['schema']!r} (expected {REPORT_SCHEMA!r})")
    if data["total_cycles"] != data["base_cycles"] + data["overhead_cycles"]:
        raise ValueError("total_cycles != base_cycles + overhead_cycles")
    if data["instructions"] < 0 or data["base_cycles"] < 0 or data["overhead_cycles"] < 0:
        raise ValueError("cycle/instruction counts must be non-negative")

