"""Tests for the heterogeneous CPU+FPGA schedule simulation (Fig. 1b)."""

import pytest

from repro.hw.arch import ChamConfig
from repro.hw.hetero import ChunkTiming, simulate_hetero


def uniform_chunks(n, encode=0.01, transfer=0.002, compute=0.02):
    return [ChunkTiming(encode, transfer, compute) for _ in range(n)]


def test_empty_schedule():
    sched = simulate_hetero(ChamConfig(), [])
    assert sched.total_s == 0.0
    assert sched.chunks == 0


def test_pipelining_beats_serial():
    cfg = ChamConfig(host_threads=4, engines=2)
    sched = simulate_hetero(cfg, uniform_chunks(16))
    assert sched.total_s < sched.serial_s
    assert sched.serial_s / sched.total_s > 1.5


def test_single_chunk_is_serial():
    cfg = ChamConfig()
    c = ChunkTiming(0.01, 0.002, 0.02, 0.001)
    sched = simulate_hetero(cfg, [c])
    assert sched.total_s == pytest.approx(0.033)
    assert sched.serial_s == pytest.approx(sched.total_s)


def test_compute_bound_saturates_engines():
    cfg = ChamConfig(host_threads=8, engines=2)
    chunks = uniform_chunks(32, encode=0.001, transfer=0.0001, compute=0.05)
    sched = simulate_hetero(cfg, chunks)
    # 32 chunks of 50ms across 2 engines ≈ 800ms floor
    assert sched.total_s == pytest.approx(32 * 0.05 / 2, rel=0.1)
    assert sched.fpga_utilization > 0.9


def test_encode_bound_saturates_threads():
    cfg = ChamConfig(host_threads=2, engines=2)
    chunks = uniform_chunks(20, encode=0.05, transfer=0.0001, compute=0.001)
    sched = simulate_hetero(cfg, chunks)
    assert sched.total_s == pytest.approx(20 * 0.05 / 2, rel=0.1)


def test_more_threads_help_encode_bound_workloads():
    chunks = uniform_chunks(16, encode=0.04, compute=0.01)
    two = simulate_hetero(ChamConfig(host_threads=2), chunks)
    eight = simulate_hetero(ChamConfig(host_threads=8), chunks)
    assert eight.total_s < two.total_s


def test_more_engines_help_compute_bound_workloads():
    chunks = uniform_chunks(16, encode=0.001, compute=0.04)
    one = simulate_hetero(ChamConfig(engines=1), chunks)
    two = simulate_hetero(ChamConfig(engines=2), chunks)
    assert two.total_s < one.total_s


def test_offload_fraction():
    chunks = uniform_chunks(8, encode=0.01, compute=0.09)
    sched = simulate_hetero(ChamConfig(), chunks)
    busy = sched.cpu_busy_s + sched.fpga_busy_s
    assert sched.fpga_busy_s / busy == pytest.approx(0.9)


def test_dma_serializes():
    """Transfers share one DMA channel: huge transfers bound the rate."""
    cfg = ChamConfig(host_threads=8, engines=8)
    chunks = uniform_chunks(10, encode=0.0001, transfer=0.05, compute=0.0001)
    sched = simulate_hetero(cfg, chunks)
    assert sched.total_s >= 10 * 0.05
