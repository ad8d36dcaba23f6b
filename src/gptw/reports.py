"""Machine-readable check reports emitted by the CLI (one JSON object per line)."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping


def file_digest(path: str | Path) -> str:
    """sha256 of the input file bytes; stable across runs for identical inputs."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Report:
    """Outcome of one check: value against bound, with provenance.

    `passed` must reflect the check's own predicate on (value, bound, tol);
    `bound` may be None for purely informational checks (which always pass).
    """

    check: str
    inputs: Mapping[str, str]
    value: Any
    bound: float | None
    passed: bool
    tol: float
    seed: int | None = None
    wall_time_s: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "check": self.check,
            "inputs": dict(self.inputs),
            "value": self.value,
            "bound": self.bound,
            "pass": self.passed,
            "tol": self.tol,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        out.update(self.extra)
        out["wall_time_s"] = round(self.wall_time_s, 6)
        return out

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=False)

    def pretty(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        bound = "-" if self.bound is None else f"{self.bound:g}"
        value = f"{self.value:g}" if isinstance(self.value, float) else str(self.value)
        detail = " ".join(f"{k}={v}" for k, v in self.extra.items() if not isinstance(v, (dict, list)))
        return f"[{verdict}] {self.check}: value={value} bound={bound} tol={self.tol:g} {detail}".rstrip()
