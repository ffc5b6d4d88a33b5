"""Perf-regression gate: run metadata + floor comparison for benchmarks.

The benchmark harness (``benchmarks/conftest.py``) appends one record
per run to ``benchmarks/results/BENCH_<name>.json``.  This module adds
the two pieces that turn those records into a CI gate:

* :func:`run_metadata` — machine annotation (git SHA, UTC timestamp,
  hostname, python/numpy versions) stamped into every record, so a
  regression is attributable to a commit and a machine;
* :func:`check_floors` — compares the *latest* record of each benchmark
  against pinned floors (``benchmarks/floors.json``) with a per-check
  tolerance band.  Deterministic simulated metrics carry tight bands;
  wall-clock metrics carry wide ones (CI runners vary), so the gate
  catches order-of-magnitude regressions without flaking.

A check is ``{"bench", "metric", "kind": "floor"|"ceiling", "value",
"tolerance"}``: a floor passes when ``measured >= value * (1 -
tolerance)``, a ceiling when ``measured <= value * (1 + tolerance)``.
Missing result files or metrics fail explicitly — a gate that silently
skips is no gate.
"""

from __future__ import annotations

import json
import platform
import socket
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

__all__ = [
    "run_metadata",
    "CheckResult",
    "PerfCheckReport",
    "latest_record",
    "evaluate_check",
    "check_floors",
]


def _git_sha(repo_root: Optional[str] = None) -> str:
    """Current commit SHA, or "unknown" outside a repo / without git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip()


def run_metadata(repo_root: Optional[str] = None) -> Dict[str, str]:
    """Machine annotation for one benchmark run (all values strings)."""
    import datetime

    import numpy as np

    return {
        "git_sha": _git_sha(repo_root),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat(),
        "hostname": socket.gethostname(),
        "python": platform.python_version(),
        "numpy": str(np.__version__),
    }


@dataclass
class CheckResult:
    """Outcome of one floor/ceiling comparison."""

    bench: str
    metric: str
    kind: str  #: "floor" or "ceiling"
    value: float  #: the pinned reference
    tolerance: float
    bound: float  #: the pass/fail boundary after the tolerance band
    measured: Optional[float]  #: None when the record/metric is missing
    passed: bool
    reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bench": self.bench,
            "metric": self.metric,
            "kind": self.kind,
            "value": self.value,
            "tolerance": self.tolerance,
            "bound": self.bound,
            "measured": self.measured,
            "passed": self.passed,
            "reason": self.reason,
        }


@dataclass
class PerfCheckReport:
    """Every check's outcome plus the compared records' metadata."""

    results: List[CheckResult]
    metadata: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.results) and all(r.passed for r in self.results)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "checks": [r.to_dict() for r in self.results],
            "metadata": self.metadata,
        }

    def render_text(self) -> str:
        lines = [
            f"{'bench':<14} {'metric':<24} {'kind':<8} {'bound':>12} "
            f"{'measured':>12} {'result':<6}"
        ]
        for r in self.results:
            measured = f"{r.measured:.4g}" if r.measured is not None else "-"
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{r.bench:<14} {r.metric:<24} {r.kind:<8} "
                f"{r.bound:>12.4g} {measured:>12} {status:<6}"
                + (f"  ({r.reason})" if r.reason and not r.passed else "")
            )
        lines.append("perfcheck: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def latest_record(
    results_dir: Union[str, Path], bench: str
) -> Optional[Dict[str, Any]]:
    """The newest record of ``BENCH_<bench>.json``, or None if absent."""
    path = Path(results_dir) / f"BENCH_{bench}.json"
    if not path.exists():
        return None
    records = json.loads(path.read_text())
    if not isinstance(records, list) or not records:
        return None
    return records[-1]


def evaluate_check(
    check: Mapping[str, Any], record: Optional[Mapping[str, Any]]
) -> CheckResult:
    """Compare one pinned check against a benchmark record."""
    bench = str(check["bench"])
    metric = str(check["metric"])
    kind = str(check.get("kind", "floor"))
    value = float(check["value"])
    tolerance = float(check.get("tolerance", 0.0))
    if kind not in ("floor", "ceiling"):
        raise ValueError(f"unknown check kind {kind!r}")
    if tolerance < 0.0:
        raise ValueError("tolerance must be non-negative")
    bound = (
        value * (1.0 - tolerance) if kind == "floor" else value * (1.0 + tolerance)
    )
    if record is None:
        return CheckResult(
            bench, metric, kind, value, tolerance, bound, None, False,
            reason="no benchmark record",
        )
    metrics = record.get("metrics", {})
    if metric not in metrics:
        return CheckResult(
            bench, metric, kind, value, tolerance, bound, None, False,
            reason=f"metric {metric!r} missing from record",
        )
    measured = float(metrics[metric])
    if kind == "floor":
        passed = measured >= bound
        reason = "" if passed else f"{measured:.4g} < floor bound {bound:.4g}"
    else:
        passed = measured <= bound
        reason = "" if passed else f"{measured:.4g} > ceiling bound {bound:.4g}"
    return CheckResult(
        bench, metric, kind, value, tolerance, bound, measured, passed, reason
    )


def check_floors(
    results_dir: Union[str, Path], floors_path: Union[str, Path]
) -> PerfCheckReport:
    """Diff the latest benchmark records against the pinned floors file."""
    floors = json.loads(Path(floors_path).read_text())
    checks = floors.get("checks", [])
    if not checks:
        raise ValueError(f"{floors_path} pins no checks")
    records: Dict[str, Optional[Dict[str, Any]]] = {}
    results: List[CheckResult] = []
    metadata: Dict[str, Dict[str, Any]] = {}
    for check in checks:
        bench = str(check["bench"])
        if bench not in records:
            records[bench] = latest_record(results_dir, bench)
            record = records[bench]
            if record is not None and "meta" in record:
                metadata[bench] = record["meta"]
        results.append(evaluate_check(check, records[bench]))
    return PerfCheckReport(results=results, metadata=metadata)
