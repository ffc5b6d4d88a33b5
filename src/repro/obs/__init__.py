"""Unified observability layer: metrics registry + span tracer.

The islands of visibility the reproduction accumulated — the ASCII gantt
in :mod:`repro.hw.trace`, the ad-hoc counters in
:class:`repro.hw.runtime.FpgaRuntime`, benchmark stdout — all drain into
this package so that performance and robustness claims are auditable
from one place:

* :mod:`repro.obs.metrics` — counters / gauges / histograms in a
  thread-safe :class:`MetricsRegistry` (the process default is
  :data:`REGISTRY`);
* :mod:`repro.obs.tracing` — nested wall-clock (or synthetic-timebase)
  spans in a :class:`Tracer` (:data:`TRACER`), exported as Chrome
  trace-event JSON for chrome://tracing / Perfetto.

Both default instances start **disabled**: every instrumented call site
in the library reduces to a single branch, so the no-op overhead is
unmeasurable.  Turn them on around a region of interest::

    from repro import obs

    obs.enable_metrics()
    obs.enable_tracing()
    ...  # run HMVPs, simulations, training loops
    print(obs.REGISTRY.snapshot())
    obs.TRACER.export_chrome_trace("trace.json")

or use the CLI: ``python -m repro metrics`` and the ``--trace-out FILE``
flag on ``demo`` / ``trace`` / ``report``.

Instrumented call sites use the module-level helpers (:func:`inc`,
:func:`set_gauge`, :func:`observe`, :func:`span`), which write to the
default instances.
"""

from .metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
)
from .tracing import (
    TRACER,
    Span,
    TraceContext,
    Tracer,
    current_context,
    disable_tracing,
    enable_tracing,
    run_with_context,
    span,
    use_context,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "enable_metrics",
    "disable_metrics",
    "Span",
    "TraceContext",
    "Tracer",
    "TRACER",
    "current_context",
    "use_context",
    "run_with_context",
    "enable_tracing",
    "disable_tracing",
    "span",
    "inc",
    "set_gauge",
    "observe",
]


def inc(name: str, n: int = 1) -> None:
    """Increment a counter on the default registry (no-op when disabled)."""
    if REGISTRY.enabled:
        REGISTRY.inc(name, n)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the default registry (no-op when disabled)."""
    if REGISTRY.enabled:
        REGISTRY.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the default registry."""
    if REGISTRY.enabled:
        REGISTRY.observe(name, value)
