"""Heterogeneous CPU+FPGA execution model (Fig. 1b, Section III-C).

The host pipelines three phases per work chunk — encode (CPU), transfer
(PCIe DMA), compute (a CHAM engine) — across ``host_threads`` threads and
``engines`` engines, with per-thread staging RAMs on the card.  This
module simulates that interleaving with a simple resource-constrained
event loop, exposing the overlap efficiency and the offloaded-compute
fraction the paper quotes (">90% computation offloaded").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List

from .arch import ChamConfig

__all__ = ["ChunkTiming", "HeteroSchedule", "simulate_hetero"]


@dataclass(frozen=True)
class ChunkTiming:
    """Per-chunk phase durations in seconds."""

    encode_s: float
    transfer_s: float
    compute_s: float
    readback_s: float = 0.0


@dataclass
class HeteroSchedule:
    """Result of a heterogeneous schedule simulation."""

    chunks: int
    total_s: float
    cpu_busy_s: float
    fpga_busy_s: float
    serial_s: float

    @property
    def fpga_utilization(self) -> float:
        return self.fpga_busy_s / self.total_s if self.total_s else 0.0


def simulate_hetero(
    cfg: ChamConfig, timings: List[ChunkTiming]
) -> HeteroSchedule:
    """Simulate the Fig. 1b pipeline over a list of chunks.

    Each chunk flows encode -> transfer -> compute -> readback.  Encodes
    share ``host_threads`` CPU threads; host-to-card transfers serialize
    on the inbound DMA direction and readbacks on the outbound direction
    (PCIe is full duplex); computes share ``cfg.engines`` engines.
    """
    if not timings:
        return HeteroSchedule(0, 0.0, 0.0, 0.0, 0.0)

    threads = [0.0] * cfg.host_threads
    engines = [0.0] * cfg.engines
    dma_in_free = 0.0
    dma_out_free = 0.0
    heapq.heapify(threads)
    heapq.heapify(engines)

    cpu_busy = 0.0
    fpga_busy = 0.0
    finish = 0.0
    for chunk in timings:
        t_start = heapq.heappop(threads)
        encode_done = t_start + chunk.encode_s
        heapq.heappush(threads, encode_done)
        cpu_busy += chunk.encode_s

        transfer_start = max(encode_done, dma_in_free)
        transfer_done = transfer_start + chunk.transfer_s
        dma_in_free = transfer_done

        e_start = heapq.heappop(engines)
        compute_start = max(transfer_done, e_start)
        compute_done = compute_start + chunk.compute_s
        heapq.heappush(engines, compute_done)
        fpga_busy += chunk.compute_s

        read_start = max(compute_done, dma_out_free)
        read_done = read_start + chunk.readback_s
        dma_out_free = read_done
        finish = max(finish, read_done)

    serial = sum(
        c.encode_s + c.transfer_s + c.compute_s + c.readback_s for c in timings
    )
    return HeteroSchedule(
        chunks=len(timings),
        total_s=finish,
        cpu_busy_s=cpu_busy,
        fpga_busy_s=fpga_busy,
        serial_s=serial,
    )
