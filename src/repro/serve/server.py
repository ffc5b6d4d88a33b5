"""Async fault-tolerant HMVP serving front-end.

The production deployment the paper targets (Section V) is a host
process fielding a stream of encrypted-vector requests against one
resident plaintext matrix, with the CPU+FPGA pipeline overlapping
transfer and compute across **two** engines.  This module is that
front-end for the reproduction:

* :class:`HmvpServer` — an asyncio server that admits requests into a
  bounded queue (shed-on-full: ``serve.rejected``), micro-batches them
  adaptively (drain on ``max_batch`` or ``max_wait_ms``), and dispatches
  batches across ``engines`` independent workers, each owning a
  :class:`~repro.core.batch.BatchedHmvp` engine (one shared
  encoded-matrix cache: the matrix is encoded once process-wide; the
  engines split the host's CPUs between their worker pools) and a
  fault-injectable :class:`~repro.hw.runtime.FpgaRuntime`;
* fault tolerance — each request's simulated offload goes through
  :func:`~repro.hw.runtime.offload`, the policy the cluster executor
  shares: a failed attempt (device hang or register-load error) is
  retried on the engine's runtime up to ``max_retries`` times within
  the request's deadline, then **degraded** to the CPU path (same exact
  arithmetic, priced by :class:`~repro.hw.perf.CpuCostModel`) so no
  admitted request is ever silently dropped;
* deadlines — each request carries one; requests that expire while
  queued complete with :attr:`RequestStatus.DEADLINE` instead of
  consuming compute.

Every terminal state is an explicit :class:`ServeOutcome`; the invariant
the test-suite pins is *zero dropped*: ``submitted == ok + degraded +
rejected + deadline``.

:func:`serve_requests` is the synchronous convenience wrapper the CLI
(``python -m repro serve``), the benchmarks and most tests use.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..core.batch import BatchedHmvp, EncodedMatrixCache, host_cpus
from ..he.bfv import BfvScheme
from ..he.rlwe import RlweCiphertext
from ..hw.arch import ChamConfig, cham_default_config
from ..hw.runtime import FaultInjector, FpgaRuntime, HealthReport, offload

__all__ = [
    "ServeConfig",
    "RequestStatus",
    "ServeOutcome",
    "ServeReport",
    "EngineWorker",
    "HmvpServer",
    "serve_requests",
]


#: per-request deadline when ``submit`` is given none (generous: serving
#: must not time out under nominal load)
DEADLINE_MS = 60_000.0


@dataclass
class ServeConfig:
    """Serving-layer policy knobs (defaults model the paper's deployment)."""

    #: number of engine workers (CHAM ships 2; more models scaled parts)
    engines: int = 2
    #: micro-batch drain threshold: dispatch once this many are pending
    max_batch: int = 8
    #: ... or once the oldest pending request has waited this long
    max_wait_ms: float = 5.0
    #: admission bound; submissions beyond this are shed (never dropped
    #: silently: they resolve immediately as ``REJECTED``)
    queue_capacity: int = 256
    #: accelerator attempts = max_retries + 1, then degrade to CPU
    max_retries: int = 2
    #: device hang probability per job execution (FaultInjector.hang_prob)
    fault_rate: float = 0.0
    #: register-load bit-flip probability (FaultInjector.register_flip_prob)
    register_flip_rate: float = 0.0
    seed: int = 0


class RequestStatus(Enum):
    OK = "ok"  #: served on the accelerator path
    DEGRADED = "degraded"  #: accelerator gave up; served on the CPU path
    REJECTED = "rejected"  #: shed at admission (queue full)
    DEADLINE = "deadline"  #: expired while queued; not computed


@dataclass
class ServeOutcome:
    """Terminal record of one request (every request gets exactly one)."""

    request_id: int
    status: RequestStatus
    #: engine worker that served it; ``None`` for rejected/deadline,
    #: the worker that degraded it for CPU-path completions
    engine: Optional[int] = None
    retries: int = 0
    queue_ms: float = 0.0
    execute_ms: float = 0.0
    total_ms: float = 0.0
    #: simulated cost: device cycles (OK) or CPU-model cycles (DEGRADED)
    cycles: int = 0
    result: Optional[object] = None  #: HmvpResult for OK/DEGRADED

    @property
    def completed(self) -> bool:
        return self.status in (RequestStatus.OK, RequestStatus.DEGRADED)


@dataclass
class _Pending:
    """A request in flight between admission and its terminal outcome."""

    request_id: int
    ct: RlweCiphertext
    deadline_t: float  #: event-loop time after which it expires
    #: the budget it was admitted with; also bounds its offload attempts
    #: in simulated time
    deadline_ms: float
    enqueue_t: float
    future: "asyncio.Future[ServeOutcome]"
    #: trace root minted at admission; every span this request produces
    #: (batch compute, offload attempts, degrade) joins this trace
    ctx: Optional[obs.TraceContext] = None


class EngineWorker:
    """One serving engine: a batched HMVP kernel plus its RAS runtime."""

    def __init__(
        self,
        engine_id: int,
        engine: BatchedHmvp,
        runtime: FpgaRuntime,
    ) -> None:
        self.engine_id = engine_id
        self.engine = engine
        self.runtime = runtime
        self.requests_served = 0
        self.batches_served = 0

    def health(self) -> HealthReport:
        return self.runtime.health()


@dataclass
class ServeReport:
    """Everything one serving run produced, percentiles included."""

    outcomes: List[ServeOutcome]
    wall_s: float
    engine_health: List[HealthReport]
    per_engine_busy_cycles: List[int]
    clock_hz: float
    config: ServeConfig

    def _count(self, status: RequestStatus) -> int:
        return sum(1 for o in self.outcomes if o.status is status)

    @property
    def submitted(self) -> int:
        return len(self.outcomes)

    @property
    def ok(self) -> int:
        return self._count(RequestStatus.OK)

    @property
    def degraded(self) -> int:
        return self._count(RequestStatus.DEGRADED)

    @property
    def rejected(self) -> int:
        return self._count(RequestStatus.REJECTED)

    @property
    def deadline_expired(self) -> int:
        return self._count(RequestStatus.DEADLINE)

    @property
    def completed(self) -> int:
        return self.ok + self.degraded

    @property
    def dropped(self) -> int:
        """Requests with no terminal outcome — the invariant is zero."""
        return self.submitted - (
            self.ok + self.degraded + self.rejected + self.deadline_expired
        )

    @property
    def retries(self) -> int:
        return sum(o.retries for o in self.outcomes)

    def latency_ms(self, p: float) -> float:
        """Nearest-rank percentile of completed-request total latency.

        With zero completed requests there is no population to take a
        percentile of: the result is ``nan``, not a fake ``0.0`` that
        would read as "instant" on a dashboard (and silently pass any
        ``latency < threshold`` alert).
        """
        lats = sorted(o.total_ms for o in self.outcomes if o.completed)
        if not lats:
            return float("nan")
        rank = max(1, -(-int(p * len(lats)) // 100))
        return lats[min(rank, len(lats)) - 1]

    @property
    def goodput_rps(self) -> float:
        """Completed requests per wall-clock second."""
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def makespan_cycles(self) -> int:
        """Simulated makespan: the busiest engine's device cycles."""
        return max(self.per_engine_busy_cycles, default=0)

    @property
    def goodput_sim_rps(self) -> float:
        """Completed requests per *simulated* second (device clock).

        The deterministic multi-engine figure: distributing the same
        job set across K engines divides the makespan, independent of
        host-side GIL effects.
        """
        if self.makespan_cycles == 0:
            return 0.0
        return self.completed / (self.makespan_cycles / self.clock_hz)

    def to_dict(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "ok": self.ok,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "deadline": self.deadline_expired,
            "completed": self.completed,
            "dropped": self.dropped,
            "retries": self.retries,
            "engines": len(self.per_engine_busy_cycles),
            "wall_s": self.wall_s,
            "goodput_rps": self.goodput_rps,
            # None (JSON null) when nothing completed: nan is not valid
            # JSON and 0.0 is a lie
            "latency_ms": {
                "p50": self.latency_ms(50) if self.completed else None,
                "p95": self.latency_ms(95) if self.completed else None,
                "p99": self.latency_ms(99) if self.completed else None,
            },
            "sim": {
                "per_engine_busy_cycles": self.per_engine_busy_cycles,
                "makespan_cycles": self.makespan_cycles,
                "goodput_rps": self.goodput_sim_rps,
            },
            "health": [
                {
                    "jobs_completed": h.jobs_completed,
                    "jobs_failed": h.jobs_failed,
                    "hangs_detected": h.hangs_detected,
                    "resets": h.resets,
                    "register_retries": h.register_retries,
                }
                for h in self.engine_health
            ],
        }


class HmvpServer:
    """Asyncio serving front-end over multiple batched HMVP engines.

    Lifecycle: construct, ``await start()``, ``await submit(ct)`` any
    number of times (each returns a future resolving to the request's
    :class:`ServeOutcome`), ``await close()``.  ``close`` drains the
    queue before stopping workers, so every admitted request reaches a
    terminal state.
    """

    def __init__(
        self,
        scheme: BfvScheme,
        matrix: Sequence[Sequence[int]],
        config: Optional[ServeConfig] = None,
        cham: Optional[ChamConfig] = None,
        cache: Optional[EncodedMatrixCache] = None,
        fault_injectors: Optional[Sequence[FaultInjector]] = None,
    ) -> None:
        self.config = config or ServeConfig()
        if self.config.engines < 1:
            raise ValueError("need at least one engine")
        # asyncio.Queue(maxsize=0) is unbounded: shed-on-full would vanish
        if self.config.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.config.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.config.max_retries < 0:
            raise ValueError("max_retries must be at least 0")
        if fault_injectors is not None and len(fault_injectors) != self.config.engines:
            raise ValueError("one fault injector per engine")
        self.cham = cham or cham_default_config()
        self.scheme = scheme
        matrix = np.asarray(matrix)
        # one shared cache: the first engine encodes, the rest hit
        shared_cache = cache if cache is not None else EncodedMatrixCache()
        # the engine workers already run concurrently, so they split the
        # host's CPUs between their multiply_batch pools
        pool_width = max(1, host_cpus() // self.config.engines)
        self.workers: List[EngineWorker] = []
        for engine_id in range(self.config.engines):
            engine = BatchedHmvp(
                scheme, matrix, cache=shared_cache, workers=pool_width
            )
            if fault_injectors is not None:
                faults = fault_injectors[engine_id]
            else:
                faults = FaultInjector(
                    hang_prob=self.config.fault_rate,
                    register_flip_prob=self.config.register_flip_rate,
                    seed=self.config.seed + engine_id,
                )
            runtime = FpgaRuntime(
                cfg=self.cham, faults=faults, lane=engine_id + 1
            )
            self.workers.append(EngineWorker(engine_id, engine, runtime))
        if self.workers[0].engine.encoded.col_tiles != 1:
            raise ValueError(
                "serving covers single-column-tile matrices "
                "(cols <= ring degree); shard wider matrices upstream"
            )
        self.cache = shared_cache
        self.rows = int(matrix.shape[0])
        self.cols = int(matrix.shape[1])
        self._queue: "asyncio.Queue[_Pending]" = asyncio.Queue(
            maxsize=self.config.queue_capacity
        )
        self._next_request = 0
        self._tasks: List["asyncio.Task[None]"] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closing = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn one dispatch loop per engine worker."""
        if self._tasks:
            raise RuntimeError("server already started")
        if obs.TRACER.enabled:
            obs.TRACER.name_process(0, "serve.coordinator")
            for worker in self.workers:
                obs.TRACER.name_process(
                    worker.engine_id + 1, f"engine{worker.engine_id}"
                )
        self._closing = False
        self._pool = ThreadPoolExecutor(
            max_workers=len(self.workers),
            thread_name_prefix="serve-engine",
        )
        for worker in self.workers:
            self._tasks.append(
                asyncio.create_task(self._worker_loop(worker))
            )

    async def close(self) -> None:
        """Drain remaining work, then stop the workers."""
        self._closing = True
        await self._queue.join()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- admission ---------------------------------------------------------

    async def submit(
        self,
        ct: RlweCiphertext,
        deadline_ms: Optional[float] = None,
    ) -> "asyncio.Future[ServeOutcome]":
        """Admit one encrypted vector; resolves to its terminal outcome.

        Shed-on-full: when the queue is at capacity the returned future
        is already resolved with ``REJECTED`` — backpressure is an
        explicit outcome, not an exception and not a silent drop.  A
        ciphertext the engines cannot take (see
        :meth:`~repro.core.batch.BatchedHmvp.check_request`) raises
        ``ValueError`` here, before it can reach a batch.  A server that
        is not started, or is closing, raises ``RuntimeError``: no
        worker would ever resolve the future.
        """
        if not self._tasks or self._closing:
            raise RuntimeError("server is not running")
        self.workers[0].engine.check_request(ct)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[ServeOutcome]" = loop.create_future()
        request_id = self._next_request
        self._next_request += 1
        now = loop.time()
        budget_ms = deadline_ms if deadline_ms is not None else DEADLINE_MS
        pending = _Pending(
            request_id=request_id,
            ct=ct,
            deadline_t=now + budget_ms / 1000.0,
            deadline_ms=budget_ms,
            enqueue_t=now,
            future=future,
            ctx=obs.TRACER.new_trace() if obs.TRACER.enabled else None,
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            obs.inc("serve.rejected")
            future.set_result(
                ServeOutcome(
                    request_id=request_id, status=RequestStatus.REJECTED
                )
            )
            return future
        obs.inc("serve.accepted")
        obs.set_gauge("serve.queue.depth", self._queue.qsize())
        return future

    # -- dispatch ----------------------------------------------------------

    async def _worker_loop(self, worker: EngineWorker) -> None:
        """Pull micro-batches off the shared queue and serve them.

        Adaptive micro-batching: the first request opens a window; the
        batch dispatches when it reaches ``max_batch`` or the window
        has been open ``max_wait_ms``, whichever first.  Workers pull
        work as they free up, so load balances across engines without a
        central placement step.
        """
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            batch = [first]
            window_end = loop.time() + self.config.max_wait_ms / 1000.0
            while len(batch) < self.config.max_batch:
                timeout = window_end - loop.time()
                if timeout <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), timeout)
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    break
            obs.set_gauge("serve.queue.depth", self._queue.qsize())
            obs.observe("serve.batch.size", len(batch))
            try:
                await self._execute_batch(worker, batch)
            except Exception as exc:
                # a failed batch fails its own requests, loudly, and the
                # worker keeps serving: nothing is left unresolved
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(exc)
            finally:
                for _ in batch:
                    self._queue.task_done()

    async def _execute_batch(
        self, worker: EngineWorker, batch: List[_Pending]
    ) -> None:
        loop = asyncio.get_running_loop()
        start_t = loop.time()
        live: List[_Pending] = []
        for pending in batch:
            if start_t > pending.deadline_t:
                obs.inc("serve.deadline")
                self._resolve(
                    pending,
                    ServeOutcome(
                        request_id=pending.request_id,
                        status=RequestStatus.DEADLINE,
                        queue_ms=1e3 * (start_t - pending.enqueue_t),
                        total_ms=1e3 * (start_t - pending.enqueue_t),
                    ),
                )
            else:
                live.append(pending)
        if not live:
            return
        with obs.span(
            "serve.batch",
            engine=worker.engine_id,
            size=len(live),
            rids=[p.request_id for p in live],
        ) as batch_span:
            # exact functional results, off the event loop (the NumPy
            # kernels release the GIL, so engine workers overlap); the
            # batch's trace context is bridged across the executor hop
            # so the kernel spans land under serve.batch
            results = await loop.run_in_executor(
                self._pool,
                obs.run_with_context,
                obs.current_context(),
                worker.engine.multiply_batch,
                [p.ct for p in live],
            )
            exec_done_t = loop.time()
            # simulated accelerator offload per request: this decides
            # whether the request was served by the FPGA or degraded,
            # and what it cost on the device clock.  Its span opens under
            # the request's own trace root (minted at admission) and
            # links back to the batch that computed its ciphertext.
            for pending, result in zip(live, results):
                with obs.span(
                    "serve.request",
                    ctx=pending.ctx,
                    links=(batch_span.span_id,) if batch_span.span_id else None,
                    rid=pending.request_id,
                    engine=worker.engine_id,
                ) as request_span:
                    offloaded = offload(
                        [(worker.runtime, 0)],
                        rows=self.rows,
                        cols=self.cols,
                        ring_n=self.scheme.params.n,
                        tag=pending.request_id,
                        max_retries=self.config.max_retries,
                        deadline_ms=pending.deadline_ms,
                        clock_hz=self.cham.clock_hz,
                    )
                    retries = max(offloaded.attempts - 1, 0)
                    status = (
                        RequestStatus.DEGRADED
                        if offloaded.degraded
                        else RequestStatus.OK
                    )
                    request_span.set(status=status.value, retries=retries)
                if retries:
                    obs.inc("serve.retries", retries)
                obs.inc("serve.degraded" if offloaded.degraded else "serve.completed")
                self._resolve(
                    pending,
                    ServeOutcome(
                        request_id=pending.request_id,
                        status=status,
                        engine=worker.engine_id,
                        retries=retries,
                        queue_ms=1e3 * (start_t - pending.enqueue_t),
                        execute_ms=1e3 * (exec_done_t - start_t),
                        total_ms=1e3 * (loop.time() - pending.enqueue_t),
                        cycles=offloaded.cycles,
                        result=result,
                    ),
                )
        worker.batches_served += 1
        worker.requests_served += len(live)

    @staticmethod
    def _resolve(pending: _Pending, outcome: ServeOutcome) -> None:
        obs.observe("serve.latency.queue_ms", outcome.queue_ms)
        obs.observe("serve.latency.execute_ms", outcome.execute_ms)
        obs.observe("serve.latency.total_ms", outcome.total_ms)
        if not pending.future.done():
            pending.future.set_result(outcome)

    # -- reporting ---------------------------------------------------------

    def report(
        self, outcomes: List[ServeOutcome], wall_s: float
    ) -> ServeReport:
        return ServeReport(
            outcomes=outcomes,
            wall_s=wall_s,
            engine_health=[w.health() for w in self.workers],
            per_engine_busy_cycles=[
                w.runtime.busy_cycles for w in self.workers
            ],
            clock_hz=self.cham.clock_hz,
            config=self.config,
        )


def serve_requests(
    scheme: BfvScheme,
    matrix: Sequence[Sequence[int]],
    cts: Sequence[RlweCiphertext],
    config: Optional[ServeConfig] = None,
    deadlines_ms: Optional[Sequence[Optional[float]]] = None,
) -> ServeReport:
    """Serve a fixed request list end to end and report.

    The synchronous entry point (CLI load generator, benchmarks,
    tests): starts a server, submits every ciphertext, awaits every
    outcome, closes the server, returns the :class:`ServeReport`.
    """
    if deadlines_ms is not None and len(deadlines_ms) != len(cts):
        raise ValueError("one deadline per request (or None)")

    async def _run() -> ServeReport:
        server = HmvpServer(scheme, matrix, config)
        await server.start()
        try:
            start = time.perf_counter()
            futures = []
            for i, ct in enumerate(cts):
                deadline = deadlines_ms[i] if deadlines_ms is not None else None
                futures.append(await server.submit(ct, deadline_ms=deadline))
            # retrieve every future, so a failed batch's mates are read too
            settled = await asyncio.gather(*futures, return_exceptions=True)
            wall_s = time.perf_counter() - start
        finally:
            await server.close()
        for outcome in settled:
            if isinstance(outcome, BaseException):
                raise outcome
        return server.report(list(settled), wall_s)

    return asyncio.run(_run())
