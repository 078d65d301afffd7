"""Machine-readable verification reports.

Reports serialize to strict JSON (a non-finite float becomes null) with sorted
keys, so identical runs (same command, same seed) are byte-identical except for
the wall-clock field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from . import __version__


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    if hasattr(value, "item"):  # numpy scalars
        return _jsonable(value.item())
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


@dataclass(frozen=True)
class Check:
    """One named pass/fail measurement with its threshold and tolerance."""

    name: str
    passed: bool
    measured: Optional[float] = None
    threshold: Optional[float] = None
    tolerance: Optional[float] = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": _jsonable(self.measured),
            "threshold": _jsonable(self.threshold),
            "tolerance": _jsonable(self.tolerance),
            "detail": self.detail,
        }


class CheckedReport:
    """Mixin for a library report whose verdict is every rule its ``checks()`` lists."""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks())


@dataclass
class VerificationReport:
    command: str
    parameters: dict
    checks: list
    provenance: dict = field(default_factory=dict)
    wall_time_ms: int = 0

    def __post_init__(self):
        self.provenance.setdefault("tool_version", __version__)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": _jsonable(self.parameters),
            "checks": [c.to_dict() for c in self.checks],
            "overall_pass": self.overall_pass,
            "provenance": _jsonable(self.provenance),
            "wall_time_ms": int(self.wall_time_ms),
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, allow_nan=False)
