"""Kernel-level profiling: self-time attribution and the sim-gap ledger.

The ROADMAP's top open item is the ~100x gap between simulated goodput
(device cycles from :class:`repro.hw.pipeline.MacroPipeline`) and
wall-clock goodput of the NumPy kernels.  This module makes that gap
attributable:

* **self-time pass** — reconstructs the span tree per thread track
  (parents enclose children at ``depth + 1``) and charges each span its
  *self* time, so nested instrumentation (``batch.dot`` containing
  ``MULTPOLY`` containing nothing) never double-counts;
* **kernel buckets** — maps span names onto named kernels (NTT hoist,
  modmul, INTT, rescale/extract, key-switch, pack) with per-level
  sub-buckets where the span carries a ``level`` argument;
* **sim join** — prices the same workload on the macro-pipeline cost
  model and apportions each stage's simulated cycles over its kernels
  by wall share, yielding a per-kernel ``gap`` ratio: the ranked
  "where the 100x lives" ledger;
* **exporters** — OpenMetrics text off a metrics registry and
  collapsed-stack (flamegraph) text off the span tree.

:func:`profile_batched_hmvp` is the turnkey driver behind
``repro profile``: build a toy workload, warm the caches, trace one
measured batch, and return the ledger.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .metrics import REGISTRY, MetricsRegistry
from .tracing import TRACER, Span

__all__ = [
    "KERNEL_OF_SPAN",
    "STAGE_OF_KERNEL",
    "KernelRow",
    "SimGapLedger",
    "ProfileRun",
    "span_self_times",
    "build_ledger",
    "profile_batched_hmvp",
    "openmetrics_text",
    "collapsed_stacks",
]

#: span name -> kernel bucket: the paper's stage names, as the HMVP
#: engine opens them.  Spans not listed here are *structural*
#: (batch.batch, batch.dot, serve.request, ...): their self time is
#: orchestration overhead, reported under ``other``.
KERNEL_OF_SPAN: Dict[str, str] = {
    "NTT": "ntt_hoist",
    "MULTPOLY": "modmul",
    "INTT": "intt",
    "RESCALE+EXTRACT": "rescale_extract",
    "KEYSWITCH": "keyswitch",
    "PACK": "pack",
    "PACK.level": "pack",
    "batch.encode": "encode",
}

#: kernel bucket -> macro-pipeline stage group whose simulated cycles it
#: shares.  ``fill`` = the per-request vector NTTs, ``dot`` = stages 1-4,
#: ``pack`` = stages 5-9 (key-switch included); ``encode`` is one-time
#: staging with no per-request stage.
STAGE_OF_KERNEL: Dict[str, str] = {
    "ntt_hoist": "fill",
    "modmul": "dot",
    "intt": "dot",
    "rescale_extract": "dot",
    "keyswitch": "pack",
    "pack": "pack",
    "encode": "encode",
    "other": "other",
}


def _tree_annotate(
    spans: Sequence[Span],
) -> Tuple[Dict[int, float], Dict[int, Optional[Span]]]:
    """Per-span self time and parent pointers via per-track stacks.

    Within one track, spans are serial (one thread) and the recorder's
    ``depth`` field gives exact nesting: a span's parent is the most
    recent span one level shallower whose interval contains it.
    Returns ``(self_us, parent)`` keyed by ``id(span)``.
    """
    child_sum: Dict[int, float] = {}
    parent: Dict[int, Optional[Span]] = {}
    by_track: Dict[Tuple[int, int], List[Span]] = {}
    for s in spans:
        by_track.setdefault((s.pid, s.track), []).append(s)
    for group in by_track.values():
        group.sort(key=lambda s: (s.ts_us, -s.dur_us))
        open_at: Dict[int, Span] = {}
        for s in group:
            cand = open_at.get(s.depth - 1)
            if (
                cand is not None
                and s.ts_us >= cand.ts_us
                and s.ts_us + s.dur_us <= cand.ts_us + cand.dur_us + 1e-6
            ):
                child_sum[id(cand)] = child_sum.get(id(cand), 0.0) + s.dur_us
                parent[id(s)] = cand
            else:
                parent[id(s)] = None
            open_at[s.depth] = s
    self_us = {
        id(s): max(s.dur_us - child_sum.get(id(s), 0.0), 0.0) for s in spans
    }
    return self_us, parent


def span_self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time (``dur - sum(children dur)``) per span, keyed by id()."""
    self_us, _parent = _tree_annotate(spans)
    return self_us


def _span_level(s: Span) -> Optional[int]:
    """Per-level bucket key: explicit ``level`` arg, else RNS ``limbs``."""
    for key in ("level", "limbs"):
        value = s.args.get(key)
        if isinstance(value, int):
            return value
    return None


@dataclass
class KernelRow:
    """One ranked ledger entry: a kernel's wall time joined to sim cycles."""

    kernel: str
    stage: str
    calls: int
    wall_us: float
    wall_share: float  #: fraction of the measured run's total wall time
    sim_cycles: float  #: stage cycles apportioned to this kernel by wall share
    sim_us: float
    gap: float  #: wall_us / sim_us — "how far from the accelerator"
    by_level: Dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kernel": self.kernel,
            "stage": self.stage,
            "calls": self.calls,
            "wall_us": self.wall_us,
            "wall_share": self.wall_share,
            "sim_cycles": self.sim_cycles,
            "sim_us": self.sim_us,
            "gap": self.gap,
            "by_level": {str(k): v for k, v in sorted(self.by_level.items())},
        }


@dataclass
class SimGapLedger:
    """The ranked "where the 100x lives" table for one measured run."""

    rows: List[KernelRow]  #: ranked by wall_us, descending
    total_wall_us: float  #: duration of the measured root span(s)
    attributed_wall_us: float  #: self time landing in named kernel buckets
    sim_total_cycles: int
    clock_hz: float
    params: Dict[str, Any] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        """Fraction of measured wall time attributed to named kernels."""
        if self.total_wall_us <= 0.0:
            return 0.0
        return self.attributed_wall_us / self.total_wall_us

    @property
    def sim_total_us(self) -> float:
        return 1e6 * self.sim_total_cycles / self.clock_hz

    @property
    def overall_gap(self) -> float:
        """Measured wall time over simulated device time for the run."""
        sim = self.sim_total_us
        return self.total_wall_us / sim if sim > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "total_wall_us": self.total_wall_us,
            "attributed_wall_us": self.attributed_wall_us,
            "coverage": self.coverage,
            "sim_total_cycles": self.sim_total_cycles,
            "sim_total_us": self.sim_total_us,
            "overall_gap": self.overall_gap,
            "clock_hz": self.clock_hz,
            "params": dict(self.params),
        }

    def render_text(self) -> str:
        """Fixed-width table for terminals."""
        lines = [
            f"{'kernel':<16} {'stage':<7} {'calls':>6} {'wall_ms':>9} "
            f"{'share':>6} {'sim_us':>9} {'gap':>8}"
        ]
        for r in self.rows:
            gap = f"{r.gap:,.0f}x" if r.gap else "-"
            lines.append(
                f"{r.kernel:<16} {r.stage:<7} {r.calls:>6} "
                f"{r.wall_us / 1e3:>9.2f} {r.wall_share:>6.1%} "
                f"{r.sim_us:>9.1f} {gap:>8}"
            )
        lines.append(
            f"attributed {self.coverage:.1%} of {self.total_wall_us / 1e3:.2f} ms"
            f" wall; sim total {self.sim_total_us / 1e3:.3f} ms"
            f" -> overall gap {self.overall_gap:,.0f}x"
        )
        return "\n".join(lines)


def build_ledger(
    spans: Sequence[Span],
    *,
    rows: int,
    requests: int,
    col_tiles: int = 1,
    cham=None,
    root_names: Sequence[str] = ("batch.batch",),
) -> SimGapLedger:
    """Join measured span self-times against the macro-pipeline model.

    ``root_names`` are the measured-run roots whose durations form the
    coverage denominator.  Stage cycles from the cost model (per request,
    scaled by ``requests``) are apportioned over each stage's kernels by
    wall share, so ledger rows sum consistently within a stage.
    """
    from ..hw.arch import cham_default_config
    from ..hw.pipeline import MacroPipeline

    cfg = cham if cham is not None else cham_default_config()
    pipe = MacroPipeline(cfg.engine)
    stats = pipe.simulate_hmvp(rows, col_tiles)
    stage_cycles: Dict[str, float] = {
        "fill": float(pipe.fill_cycles * requests),
        "dot": float(stats.dot_busy_cycles * requests),
        "pack": float(stats.pack_busy_cycles * requests),
        "encode": 0.0,
        "other": 0.0,
    }

    self_us = span_self_times(spans)
    total_wall_us = sum(s.dur_us for s in spans if s.name in root_names)
    wall: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    by_level: Dict[str, Dict[int, float]] = {}
    for s in spans:
        kernel = KERNEL_OF_SPAN.get(s.name)
        if kernel is None:
            continue
        wall[kernel] = wall.get(kernel, 0.0) + self_us[id(s)]
        calls[kernel] = calls.get(kernel, 0) + 1
        level = _span_level(s)
        if level is not None:
            bucket = by_level.setdefault(kernel, {})
            bucket[level] = bucket.get(level, 0.0) + self_us[id(s)]

    stage_wall: Dict[str, float] = {}
    for kernel, us in wall.items():
        stage = STAGE_OF_KERNEL[kernel]
        stage_wall[stage] = stage_wall.get(stage, 0.0) + us

    ledger_rows: List[KernelRow] = []
    clock_hz = float(cfg.clock_hz)
    for kernel, us in wall.items():
        stage = STAGE_OF_KERNEL[kernel]
        stage_total = stage_wall.get(stage, 0.0)
        sim_cycles = (
            stage_cycles.get(stage, 0.0) * (us / stage_total)
            if stage_total > 0
            else 0.0
        )
        sim_us = 1e6 * sim_cycles / clock_hz
        ledger_rows.append(
            KernelRow(
                kernel=kernel,
                stage=stage,
                calls=calls[kernel],
                wall_us=us,
                wall_share=us / total_wall_us if total_wall_us > 0 else 0.0,
                sim_cycles=sim_cycles,
                sim_us=sim_us,
                gap=us / sim_us if sim_us > 0 else 0.0,
                by_level=by_level.get(kernel, {}),
            )
        )
    ledger_rows.sort(key=lambda r: -r.wall_us)
    attributed = sum(
        us for kernel, us in wall.items() if kernel != "encode"
    )
    return SimGapLedger(
        rows=ledger_rows,
        total_wall_us=total_wall_us,
        attributed_wall_us=attributed,
        sim_total_cycles=stats.total_cycles * requests,
        clock_hz=clock_hz,
        params={
            "rows": rows,
            "requests": requests,
            "col_tiles": col_tiles,
        },
    )


@dataclass
class ProfileRun:
    """Everything one profiling run produced."""

    ledger: SimGapLedger
    spans: List[Span]
    wall_s: float
    params: Dict[str, Any] = field(default_factory=dict)


def profile_batched_hmvp(
    rows: int = 8,
    n: int = 128,
    batch: int = 8,
    seed: int = 11,
    plain_bits: int = 40,
    tracer=None,
) -> ProfileRun:
    """Trace one *warm* batched-HMVP run and build its sim-gap ledger.

    Builds a toy scheme and matrix, encodes the matrix and runs one
    warm-up request untimed (caches hot, NumPy buffers allocated), then
    clears the tracer and measures one ``multiply_batch`` over ``batch``
    vectors.  The tracer's prior enabled-state is restored on exit;
    prior spans are cleared (the measured run must be the only content).
    """
    import numpy as np

    from ..core.batch import BatchedHmvp, EncodedMatrixCache
    from ..he.bfv import BfvScheme
    from ..he.params import toy_params

    tr = tracer if tracer is not None else TRACER
    scheme = BfvScheme(
        toy_params(n=n, plain_bits=plain_bits), seed=seed, max_pack=rows
    )
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-8, 8, (rows, n))
    # one thread: wall shares are fractions of one timeline, which pool
    # threads running kernels side by side would overfill
    engine = BatchedHmvp(
        scheme, matrix, cache=EncodedMatrixCache(), workers=1
    )
    cts = [
        scheme.encrypt_vector(rng.integers(-8, 8, n)) for _ in range(batch)
    ]
    engine.multiply_batch(cts[:1])  # warm-up: untimed, untraced

    was_enabled = tr.enabled
    tr.reset()
    tr.enabled = True
    try:
        start = time.perf_counter()
        engine.multiply_batch(cts)
        wall_s = time.perf_counter() - start
        spans = tr.spans
    finally:
        tr.enabled = was_enabled
    params = {
        "rows": rows,
        "n": n,
        "batch": batch,
        "seed": seed,
        "plain_bits": plain_bits,
        "wall_s": wall_s,
    }
    ledger = build_ledger(spans, rows=rows, requests=batch)
    ledger.params.update(params)
    return ProfileRun(ledger=ledger, spans=spans, wall_s=wall_s, params=params)


# -- exporters ---------------------------------------------------------------

_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str) -> str:
    return "repro_" + _METRIC_NAME_RE.sub("_", name)


def openmetrics_text(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry in OpenMetrics text exposition format.

    Counters export as ``counter`` (with the ``_total`` sample suffix),
    gauges as ``gauge``, histograms as ``summary`` with count/sum and
    p50/p95/p99 quantiles off the reservoir.
    """
    reg = registry if registry is not None else REGISTRY
    snap = reg.snapshot()
    lines: List[str] = []
    for name, value in snap["counters"].items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {value}")
    for name, value in snap["gauges"].items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value if value is not None else 'NaN'}")
    for name in snap["histograms"]:
        hist = reg.histogram(name)
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_count {hist.count}")
        lines.append(f"{metric}_sum {hist.total}")
        for q in (50, 95, 99):
            lines.append(
                f'{metric}{{quantile="{q / 100}"}} {hist.percentile(q)}'
            )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def collapsed_stacks(spans: Sequence[Span]) -> str:
    """Spans as collapsed stacks (``a;b;c value``) for flamegraph tools.

    Each line is a semicolon-joined ancestor path with the integer
    microseconds of *self* time accumulated at that path, summed over
    every occurrence — pipe into ``flamegraph.pl`` or speedscope.
    """
    self_us, parent = _tree_annotate(spans)
    totals: Dict[str, float] = {}
    for s in spans:
        names = [s.name]
        node = parent.get(id(s))
        while node is not None:
            names.append(node.name)
            node = parent.get(id(node))
        path = ";".join(reversed(names))
        totals[path] = totals.get(path, 0.0) + self_us[id(s)]
    lines = [
        f"{path} {int(round(us))}"
        for path, us in sorted(totals.items())
        if round(us) >= 1
    ]
    return "\n".join(lines) + ("\n" if lines else "")
