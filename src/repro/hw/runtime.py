"""Software runtime / driver simulation with RAS features (Section III-C).

The paper: "In addition to provide APIs for application, the runtime also
support reliability, availability, and serviceability (RAS) features
including FPGA register loading error handling, FPGA hang/reset, and FPGA
health monitoring."  This module reproduces those control paths against a
fault-injectable virtual device:

* :class:`VirtualFpga` — register file, job execution with configurable
  fault injection (register-load bit flips, hangs);
* :class:`FpgaRuntime` — the host runtime: CRC-checked register loading
  with bounded retry, a watchdog that resets a hung device, and a health
  monitor aggregating counters;
* :func:`offload` — the host's one policy for what follows a failed
  attempt: fail over across runtimes under a simulated-time deadline,
  then degrade to the CPU path.  The serving layer and the cluster
  executor both call it.

Applications drive jobs through :meth:`FpgaRuntime.submit` /
:meth:`FpgaRuntime.poll_once`, or through :func:`offload`; the
test-suite injects every fault class and asserts recovery.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .arch import ChamConfig, cham_default_config
from .perf import CpuCostModel
from .pipeline import MacroPipeline

__all__ = [
    "FaultInjector",
    "VirtualFpga",
    "JobState",
    "Job",
    "HealthReport",
    "FpgaRuntime",
    "OffloadOutcome",
    "offload",
    "RegisterLoadError",
    "DeviceHangError",
]

#: job-descriptor register file base; a job with tag ``t`` loads its
#: descriptor into ``REGISTER_BASE + t % 256``
REGISTER_BASE = 0x1000


class RegisterLoadError(RuntimeError):
    """Register image failed CRC validation after all retries."""


class DeviceHangError(RuntimeError):
    """Device stopped making progress and reset did not recover it."""


@dataclass
class FaultInjector:
    """Deterministic fault injection knobs (all default off)."""

    register_flip_prob: float = 0.0
    hang_prob: float = 0.0
    #: device recovers after this many resets (simulates transient hangs)
    resets_to_recover: int = 1
    seed: int = 0
    #: scripted hang outcomes consumed *before* the probabilistic draw —
    #: lets tests stage exact fault sequences ("hang twice, then run")
    hang_script: Optional[Sequence[bool]] = None

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self._hang_script = list(self.hang_script or [])

    def corrupt_register(self) -> bool:
        return self.rng.random() < self.register_flip_prob

    def hang(self) -> bool:
        if self._hang_script:
            return bool(self._hang_script.pop(0))
        return self.rng.random() < self.hang_prob


class JobState(Enum):
    QUEUED = "queued"
    DONE = "done"
    FAILED = "failed"


@dataclass
class Job:
    """One offloaded HMVP job: one attempt on one device."""

    job_id: int
    rows: int
    col_tiles: int = 1
    state: JobState = JobState.QUEUED
    cycles: int = 0


@dataclass
class HealthReport:
    """Snapshot of the health monitor (the paper's monitoring feature)."""

    jobs_completed: int
    jobs_failed: int
    register_retries: int
    hangs_detected: int
    resets: int
    busy_cycles: int
    temperature_c: float

    @property
    def healthy(self) -> bool:
        return self.jobs_failed == 0 and self.temperature_c < 95.0

    def record_metrics(self, registry=None) -> None:
        """Re-export the RAS counters through the metrics registry, so
        the paper's health-monitoring endpoint and the rest of the stack
        share one sink.  Values are absolute snapshots, hence gauges."""
        reg = registry if registry is not None else obs.REGISTRY
        if not reg.enabled:
            return
        for name in (
            "jobs_completed",
            "jobs_failed",
            "register_retries",
            "hangs_detected",
            "resets",
            "busy_cycles",
            "temperature_c",
        ):
            reg.set_gauge(f"hw.runtime.{name}", getattr(self, name))
        reg.set_gauge("hw.runtime.healthy", float(self.healthy))


class VirtualFpga:
    """A fault-injectable device model executing pipeline jobs."""

    def __init__(
        self, cfg: ChamConfig, faults: Optional[FaultInjector] = None
    ) -> None:
        self.cfg = cfg
        self.faults = faults or FaultInjector()
        self.registers: Dict[int, int] = {}
        self.hung = False
        self._resets_seen = 0
        self._pipeline = MacroPipeline(cfg.engine)

    def load_register(self, addr: int, value: int) -> int:
        """Write a register, returning the readback value (maybe corrupt)."""
        stored = value
        if self.faults.corrupt_register():
            stored = value ^ (1 << int(self.faults.rng.integers(0, 32)))
        self.registers[addr] = stored
        return stored

    def estimate_cycles(self, rows: int, col_tiles: int = 1) -> int:
        """Cycle cost of a job without executing it (no fault draws).

        :func:`offload` prices each attempt against the request deadline
        with this: it must match what :meth:`run_job` would charge, and
        it must not advance the fault injector's RNG stream.
        """
        return self._pipeline.total_cycles(rows, col_tiles)

    def run_job(self, job: Job) -> int:
        """Execute a job; may hang (raises nothing — caller polls)."""
        if self.hung:
            raise DeviceHangError("device is hung")
        if self.faults.hang():
            self.hung = True
            raise DeviceHangError("device hang during job execution")
        return self._pipeline.total_cycles(job.rows, job.col_tiles)

    def reset(self) -> bool:
        """Full device reset; returns True if the device came back."""
        self._resets_seen += 1
        if self._resets_seen >= self.faults.resets_to_recover:
            self.hung = False
            self._resets_seen = 0
            return True
        return False


def _crc(value: int) -> int:
    return zlib.crc32(int(value).to_bytes(8, "little"))


class FpgaRuntime:
    """Host runtime with RAS: checked register loads, watchdog, health."""

    def __init__(
        self,
        cfg: Optional[ChamConfig] = None,
        faults: Optional[FaultInjector] = None,
        max_register_retries: int = 3,
        lane: Optional[int] = None,
    ) -> None:
        self.cfg = cfg or cham_default_config()
        self.device = VirtualFpga(self.cfg, faults)
        self.max_register_retries = max_register_retries
        #: Chrome ``pid`` lane for :func:`offload`'s attempt spans on
        #: this runtime (None = inherit from the trace context); serve
        #: and cluster assign one lane per engine/node so traces
        #: separate visually
        self.trace_lane = lane
        self._next_job = 0
        #: submitted jobs still held; :func:`offload` drops each job it
        #: submitted once it has read the outcome
        self.jobs: Dict[int, Job] = {}
        # health counters
        self.jobs_completed = 0
        self.register_retries = 0
        self.hangs_detected = 0
        self.resets = 0
        self.jobs_failed = 0
        self.busy_cycles = 0

    # -- register loading with error handling -----------------------------------

    def load_register_checked(self, addr: int, value: int) -> None:
        """Write-and-verify a register, retrying on corruption.

        The paper's "FPGA register loading error handling": every write is
        read back and CRC-compared; mismatches retry up to the bound.
        """
        for _attempt in range(self.max_register_retries + 1):
            stored = self.device.load_register(addr, value)
            if _crc(stored) == _crc(value):
                return
            self.register_retries += 1
        raise RegisterLoadError(
            f"register 0x{addr:x} failed to load after "
            f"{self.max_register_retries} retries"
        )

    # -- job lifecycle with watchdog ----------------------------------------------

    def estimate_cycles(self, rows: int, col_tiles: int = 1) -> int:
        """Price a job on this runtime's device without submitting it."""
        return self.device.estimate_cycles(rows, col_tiles)

    def submit(self, rows: int, col_tiles: int = 1) -> int:
        """Queue an HMVP job; returns a job id."""
        job = Job(job_id=self._next_job, rows=rows, col_tiles=col_tiles)
        self._next_job += 1
        self.jobs[job.job_id] = job
        return job.job_id

    def poll_once(self, job_id: int) -> JobState:
        """Make the job's one attempt: ``DONE``, or ``FAILED`` on a hang.

        A hang runs one watchdog episode before the job fails.  The
        episode may not recover the device (a transient hang with slow
        recovery); the next job's attempt then finds it hung, fails and
        runs a fresh episode, so a device never stays wedged.  Whether
        and where to try again is :func:`offload`'s decision, not the
        runtime's.  Terminal states are sticky.
        """
        job = self.jobs[job_id]
        if job.state is not JobState.QUEUED:
            return job.state
        try:
            job.cycles = self.device.run_job(job)
        except DeviceHangError:
            self.hangs_detected += 1
            self._watchdog_reset()
            job.state = JobState.FAILED
            self.jobs_failed += 1
            return job.state
        job.state = JobState.DONE
        self.busy_cycles += job.cycles
        self.jobs_completed += 1
        return job.state

    def _watchdog_reset(self) -> bool:
        """Reset until the device recovers or gives up (3 attempts)."""
        for _ in range(3):
            self.resets += 1
            if self.device.reset():
                return True
        return False

    # -- health monitoring ------------------------------------------------------------

    def health(self) -> HealthReport:
        """The monitoring endpoint (temperature modeled from utilization)."""
        # toy thermal model: idle 45C, + up to 30C with accumulated load
        temp = 45.0 + 30.0 * min(self.busy_cycles / 3e9, 1.0)
        report = HealthReport(
            jobs_completed=self.jobs_completed,
            jobs_failed=self.jobs_failed,
            register_retries=self.register_retries,
            hangs_detected=self.hangs_detected,
            resets=self.resets,
            busy_cycles=self.busy_cycles,
            temperature_c=temp,
        )
        report.record_metrics()
        return report


@dataclass
class OffloadOutcome:
    """What one offloaded job came to.

    ``served_by`` indexes the candidate list :func:`offload` was given;
    ``None`` means the job degraded to the CPU path, and ``cycles`` are
    then CPU-model cycles on the device clock.
    """

    served_by: Optional[int]
    attempts: int
    cycles: int

    @property
    def degraded(self) -> bool:
        return self.served_by is None

    @property
    def failed_attempts(self) -> int:
        return self.attempts - (0 if self.degraded else 1)


_CPU_MODEL = CpuCostModel()


def offload(
    candidates: Sequence[Tuple[FpgaRuntime, int]],
    *,
    rows: int,
    cols: int,
    ring_n: int,
    tag: int,
    max_retries: int,
    deadline_ms: float,
    clock_hz: float,
) -> OffloadOutcome:
    """Offload one HMVP job: fail over across runtimes, then degrade.

    ``candidates`` pairs each runtime with the transfer cycles an
    attempt on it adds, in failover order; the serving layer passes its
    engine's runtime alone, the cluster a shard's replicas, primary
    first.  The list is walked ``max_retries + 1`` times.  Each attempt
    loads the job descriptor ``(rows << 16) | (tag & 0xFFFF)``, submits
    the job, polls it once and drops it from ``runtime.jobs``, so a
    runtime holds no per-attempt history.  Before an attempt its cost
    is priced with :meth:`FpgaRuntime.estimate_cycles` plus the
    transfer, which draws nothing from the fault injector; the walk
    stops once the simulated time of the failed attempts plus that
    estimate would pass ``deadline_ms``.  The job then degrades: the
    CPU path computes the same exact result, priced by
    :class:`~repro.hw.perf.CpuCostModel`, so no job is ever dropped.

    Every attempt opens one ``hw.offload.attempt`` span on its
    runtime's trace lane; later attempts and the ``hw.offload.degrade``
    span link back to the first, so an exported trace connects the
    failover chain.
    """
    col_tiles = -(-cols // ring_n)
    spent_ms = 0.0
    attempts = 0
    first_sid = ""
    order = [i for _ in range(max_retries + 1) for i in range(len(candidates))]
    for index in order:
        runtime, transfer_cycles = candidates[index]
        est_cycles = runtime.estimate_cycles(rows, col_tiles) + transfer_cycles
        est_ms = 1e3 * est_cycles / clock_hz
        if spent_ms + est_ms > deadline_ms:
            # the next attempt cannot finish inside the deadline on the
            # simulated clock: stop failing over
            break
        attempts += 1
        with obs.span(
            "hw.offload.attempt",
            pid=runtime.trace_lane,
            links=(first_sid,) if first_sid else None,
            tag=tag,
            rows=rows,
            candidate=index,
            attempt=attempts,
        ) as attempt_span:
            first_sid = first_sid or attempt_span.span_id
            try:
                runtime.load_register_checked(
                    REGISTER_BASE + tag % 256, (rows << 16) | (tag & 0xFFFF)
                )
                job_id = runtime.submit(rows, col_tiles)
                done = runtime.poll_once(job_id) is JobState.DONE
                cycles = runtime.jobs.pop(job_id).cycles
            except RegisterLoadError:
                done = False
            if not done:
                attempt_span.set(outcome="hang")
                spent_ms += est_ms
                continue
            attempt_span.set(outcome="ok", cycles=cycles)
            return OffloadOutcome(served_by=index, attempts=attempts, cycles=cycles)
    with obs.span(
        "hw.offload.degrade",
        links=(first_sid,) if first_sid else None,
        tag=tag,
        attempts=attempts,
    ):
        cpu_s = _CPU_MODEL.hmvp_s(rows, cols, ring_n=ring_n)
    return OffloadOutcome(
        served_by=None, attempts=attempts, cycles=int(cpu_s * clock_hz)
    )
