"""Structured experiment reports with byte-reproducible JSON payloads.

Wall-clock runtime is kept on the report object (and shown on the console)
but excluded from the canonical payload, so replaying a run from its echoed
configuration and seed reproduces the JSON bytes exactly.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ExperimentReport", "assertion", "canonicalize", "canonical_json_bytes"]

REPORT_FORMAT = "phaselab-report"
REPORT_VERSION = 1


def canonicalize(obj):
    """Recursively convert to plain JSON-serializable Python types."""
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(canonicalize(obj), sort_keys=True, indent=2).encode() + b"\n"


def assertion(name: str, passed: bool, measured=None, tolerance=None, detail: str = "") -> dict:
    return {
        "name": name,
        "passed": bool(passed),
        "measured": measured,
        "tolerance": tolerance,
        "detail": detail,
    }


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    runs: list = field(default_factory=list)
    assertions: list = field(default_factory=list)
    runtime_seconds: float | None = None

    @property
    def passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def payload(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "experiment": self.experiment,
            "config": self.config,
            "runs": self.runs,
            "assertions": self.assertions,
            "passed": self.passed,
        }

    def to_json_bytes(self) -> bytes:
        return canonical_json_bytes(self.payload())

    def census(self) -> dict:
        return dict(Counter(r.get("outcome", "n/a") for r in self.runs))

    def convergence(self) -> dict:
        """Relaxation runs per group: label -> (reached a critical point, runs).

        A group is a row's surface, eps and kind, where present.  A run
        reached a critical point when its row has a ``residual``; rows that
        are neither that nor ``non_converged`` (fits, comparisons, slides)
        are no relaxations and are left out.
        """
        groups = {}
        for r in self.runs:
            reached = "residual" in r
            if not reached and r.get("outcome") != "non_converged":
                continue
            label = " ".join(
                f"eps={r[k]:g}" if k == "eps" else str(r[k])
                for k in ("surface", "eps", "kind")
                if k in r
            )
            hits, total = groups.get(label, (0, 0))
            groups[label] = (hits + reached, total + 1)
        return groups

    def summary_lines(self) -> list[str]:
        lines = [f"experiment: {self.experiment}"]
        census = self.census()
        if census:
            lines.append("outcomes: " + ", ".join(f"{k}={v}" for k, v in sorted(census.items())))
        for label, (hits, total) in self.convergence().items():
            lines.append(f"{label}: {hits}/{total} reached a critical point")
        for a in self.assertions:
            status = "PASS" if a["passed"] else "FAIL"
            extra = ""
            if a["measured"] is not None:
                extra = f" (measured {a['measured']:.6g}"
                if a["tolerance"] is not None:
                    extra += f", tolerance {a['tolerance']:.6g}"
                extra += ")"
            lines.append(f"  [{status}] {a['name']}{extra}")
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return lines
