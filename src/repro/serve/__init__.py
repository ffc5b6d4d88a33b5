"""Async fault-tolerant serving layer over the batched HMVP engines.

See :mod:`repro.serve.server` for the full design; the short version:

* requests enter through :meth:`HmvpServer.submit` into a bounded queue
  (shed-on-full), carry per-request deadlines, and are micro-batched
  adaptively (``max_batch`` / ``max_wait_ms``);
* batches fan out across multiple engine workers (the paper's
  two-engine configuration and beyond), each with its own
  fault-injectable RAS runtime;
* faulted offloads retry through :func:`repro.hw.runtime.offload`, the
  policy the cluster executor shares, then degrade to the CPU path — an
  admitted request always reaches a terminal :class:`ServeOutcome`,
  never a silent drop.
"""

from .server import (
    EngineWorker,
    HmvpServer,
    RequestStatus,
    ServeConfig,
    ServeOutcome,
    ServeReport,
    serve_requests,
)

__all__ = [
    "EngineWorker",
    "HmvpServer",
    "RequestStatus",
    "ServeConfig",
    "ServeOutcome",
    "ServeReport",
    "serve_requests",
]
