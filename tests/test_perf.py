"""Tests for the calibrated performance models against the paper's anchors."""

import pytest

from repro.hw.perf import (
    ChamPerfModel,
    CpuCostModel,
    GpuCostModel,
    PaillierCostModel,
    hmvp_latency_all,
)


@pytest.fixture(scope="module")
def cham():
    return ChamPerfModel()


@pytest.fixture(scope="module")
def cpu():
    return CpuCostModel()


@pytest.fixture(scope="module")
def gpu():
    return GpuCostModel()


def test_ntt_offload_throughput_anchor(cham):
    """'60 NTT units which can perform 195 k ops/sec' — PCIe bound."""
    thr = cham.ntt_offload_throughput()
    assert thr == pytest.approx(195_000, rel=0.02)


def test_ntt_throughput_vs_heax_and_gpu(cham, gpu):
    """CHAM 195k vs HEAX 117k (1.67x) vs GPU 45k (4.3x)."""
    thr = cham.ntt_offload_throughput()
    assert 1.5 < thr / 117_000 < 1.9
    assert 4.0 < thr / gpu.ntt_throughput < 4.7


def test_keyswitch_anchor(cham, cpu):
    """'throughput of 65 k ops/sec that is 105x higher than CPU'."""
    ks = cham.keyswitch_throughput()
    assert ks == pytest.approx(65_000, rel=0.1)
    ratio = ks / cpu.keyswitch_throughput()
    assert 90 <= ratio <= 120  # paper: 105x


def test_saturated_rows_per_sec(cham):
    # 2 engines x (300 MHz / 6144 cycles)
    assert cham.saturated_rows_per_s() == pytest.approx(2 * 300e6 / 6144)


def test_hmvp_latency_ordering(cham, cpu, gpu):
    """Fig. 8: cham < gpu << cpu at every plotted point."""
    for m, n in [(2048, 256), (8192, 256), (8192, 4096), (16384, 4096)]:
        lat = hmvp_latency_all(m, n, cham, cpu, gpu)
        assert lat["cham"] < lat["gpu"] < lat["cpu"], (m, n)


def test_cham_gpu_latency_band(cham, cpu, gpu):
    """Paper: CHAM latency is 0.3x ~ 0.7x of the GPU's."""
    ratios = []
    for m, n in [(2048, 256), (8192, 256), (16384, 256), (8192, 4096)]:
        lat = hmvp_latency_all(m, n, cham, cpu, gpu)
        ratios.append(lat["cham"] / lat["gpu"])
    assert all(0.25 <= r <= 0.85 for r in ratios), ratios


def test_cpu_speedup_band(cham, cpu):
    """>10x over the BFV CPU baseline everywhere; ~30x at the small end."""
    for m, n in [(2048, 256), (8192, 4096), (8192, 8192)]:
        ratio = cpu.hmvp_s(m, n) / cham.hmvp_s(m, n)
        assert ratio > 10, (m, n, ratio)
    small = cpu.hmvp_s(2048, 256) / cham.hmvp_s(2048, 256)
    assert 40 <= small <= 130


def test_paillier_speedup_reaches_1800x(cham):
    """The abstract's 1800x HMVP speed-up (vs the Paillier incumbent)."""
    pail = PaillierCostModel()
    big = pail.matvec_s(8192, 4096) / cham.hmvp_s(8192, 4096)
    assert 1400 <= big <= 2400
    small = pail.matvec_s(2048, 256) / cham.hmvp_s(2048, 256)
    assert small < 200  # overheads compress the small end


def test_gpu_throughput_ratio(cham, gpu):
    """Fig. 6: CHAM sustains ~4.5x the GPU's HMVP throughput."""
    m, n = 16384, 4096
    cham_thr = cham.hmvp_throughput_rows_per_s(m, n)
    gpu_thr = m / gpu.hmvp_s(m, n, cham.saturated_rows_per_s())
    assert 2.5 <= cham_thr / gpu_thr <= 4.6


def test_hmvp_cycles_scale(cham):
    c1 = cham.hmvp_cycles(1024, 4096)
    c2 = cham.hmvp_cycles(2048, 4096)
    assert c2 == pytest.approx(2 * c1, rel=0.1)


def test_schedule_overlaps(cham):
    sched = cham.hmvp_schedule(4096, 4096)
    assert sched.serial_s / sched.total_s > 1.2
    assert sched.chunks == 8  # 4096 rows / 512 per chunk


def test_cpu_model_components(cpu):
    assert cpu.dot_product_s() > 0
    assert cpu.pack_reduction_s() == pytest.approx(1.61e-3)
    assert cpu.hmvp_s(100, 256) < cpu.hmvp_s(200, 256)
    assert cpu.hmvp_s(100, 8192) > cpu.hmvp_s(100, 4096)


def test_paillier_model_components():
    pail = PaillierCostModel()
    per_entry = (pail.mul_plain_us + pail.add_us) * 1e-6
    assert pail.matvec_s(10, 10) == pytest.approx(100 * per_entry)
    assert pail.encrypt_vec_s(100) == pytest.approx(100 * pail.encrypt_ms * 1e-3)
    assert pail.decrypt_vec_s(10) == pytest.approx(10 * pail.decrypt_ms * 1e-3)
    assert pail.add_vec_s(1000) == pytest.approx(1000 * pail.add_us * 1e-6)


def test_offloaded_fraction_of_cpu_work(cham, cpu):
    """'more than 90% computation has been offloaded': the HMVP the FPGA
    absorbs dominates what stays on the host."""
    m, n = 8192, 4096
    total_cpu = cpu.hmvp_s(m, n)
    host_side = m * cham.encode_row_us * 1e-6  # all that remains on CPU
    assert (total_cpu - host_side) / total_cpu > 0.9
