"""Metrics substrate: counters, gauges, histograms, and a registry.

The paper's runtime ships "FPGA health monitoring" (Section III-C) and
every headline result is a counter read out of a simulator; this module
is the common sink those numbers flow into.  Three instrument kinds:

* :class:`Counter` — monotonically increasing tallies (NTT transforms
  executed, pack reductions, pipeline stall cycles);
* :class:`Gauge` — last-written values (noise budget of the most recent
  ciphertext, reduce-buffer peak, device temperature);
* :class:`Histogram` — streaming count/sum/min/max over observations
  (per-job cycle counts, span durations).

A :class:`MetricsRegistry` owns instruments by name.  The module-level
:data:`REGISTRY` is the process-wide default every instrumented call
site in :mod:`repro` writes to; it starts *disabled*, and while disabled
every write is a single attribute check — the zero-overhead no-op mode
that keeps instrumentation permanently compiled into the hot paths.

Thread safety: instrument creation is guarded by a lock; updates rely on
the GIL plus per-instrument locks for the read-modify-write cases
(counters and histograms), so concurrent runtimes (the multi-engine
scheduler, threaded benchmark harnesses) can share the registry.
"""

from __future__ import annotations

import random
import threading
import zlib
from typing import Dict, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "enable_metrics",
    "disable_metrics",
]


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Streaming summary statistics plus a bounded quantile reservoir.

    The count/sum/min/max summary is exact and O(1); percentiles come
    from a uniform random sample of *all* observations, maintained with
    Vitter's Algorithm R: below :data:`RESERVOIR_CAP` every observation
    is kept (quantiles are exact there), above it each i-th observation
    replaces a random slot with probability cap/i, so late-arriving tail
    latencies stay representatively sampled instead of being dropped.
    The RNG is seeded from the instrument name, keeping runs
    reproducible.
    """

    RESERVOIR_CAP = 65536

    __slots__ = ("name", "count", "total", "min", "max", "_values", "_rng", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._values: list = []
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if len(self._values) < self.RESERVOIR_CAP:
                self._values.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < self.RESERVOIR_CAP:
                    self._values[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the reservoir (``0 < p <= 100``)."""
        if not 0 < p <= 100:
            raise ValueError("percentile must be in (0, 100]")
        with self._lock:
            values = sorted(self._values)
        if not values:
            return 0.0
        rank = max(1, -(-int(p * len(values)) // 100))  # ceil(p*n/100)
        return values[min(rank, len(values)) - 1]

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3g})"


class MetricsRegistry:
    """Named instruments plus the enabled/no-op switch.

    The convenience writers (:meth:`inc`, :meth:`set_gauge`,
    :meth:`observe`) return immediately while ``enabled`` is False, so
    call sites never need their own guard; hot paths that want to avoid
    even the function call can still check ``registry.enabled`` first.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors (get-or-create) -------------------------------

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            with self._lock:
                return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(name, Histogram(name))

    # -- convenience writers (no-ops while disabled) -------------------------

    def inc(self, name: str, n: int = 1) -> None:
        if not self.enabled:
            return
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.histogram(name).observe(value)

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Point-in-time dump of every instrument, JSON-serializable."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every instrument (the enabled flag is left as-is)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


#: Process-wide default registry; disabled (no-op) until
#: :func:`enable_metrics` is called.
REGISTRY = MetricsRegistry(enabled=False)


def enable_metrics() -> MetricsRegistry:
    """Turn on the default registry and return it."""
    REGISTRY.enabled = True
    return REGISTRY


def disable_metrics() -> MetricsRegistry:
    """Return the default registry to no-op mode (instruments retained)."""
    REGISTRY.enabled = False
    return REGISTRY
