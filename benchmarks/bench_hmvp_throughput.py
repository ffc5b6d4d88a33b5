"""E6 — Fig. 6: HMVP throughput of CHAM for different matrices.

Reproduces the figure's three claims:

* throughput grows near-linearly with the row count ``m``;
* the column count ``n`` barely matters until a row spans multiple
  ciphertexts (``n > N``, the ``n >= m`` regime of the figure), where
  LWE aggregation degrades it;
* CHAM sustains ~4.5x the GPU's throughput.
"""

import pytest
from conftest import print_table

from repro.core.batch import BatchedHmvp
from repro.hw.perf import ChamPerfModel, GpuCostModel

M_GRID = [1024, 2048, 4096, 8192, 16384]
N_GRID = [256, 4096, 8192, 16384]


@pytest.fixture(scope="module")
def cham():
    return ChamPerfModel()


def test_figure_6_grid(cham):
    gpu = GpuCostModel()
    rows = []
    grid = {}
    for m in M_GRID:
        for n in N_GRID:
            thr = cham.hmvp_throughput_rows_per_s(m, n)
            grid[(m, n)] = thr
        gpu_thr = m / gpu.hmvp_s(m, 4096, cham.saturated_rows_per_s())
        rows.append(
            (m,)
            + tuple(f"{grid[(m, n)]:,.0f}" for n in N_GRID)
            + (f"{gpu_thr:,.0f}",)
        )
    print_table(
        "Fig. 6: CHAM HMVP throughput (rows/s)",
        ["m \\ n"] + [str(n) for n in N_GRID] + ["GPU (n=4096)"],
        rows,
    )

    # near-linear in m at fixed n (throughput monotonically increasing)
    for n in N_GRID:
        series = [grid[(m, n)] for m in M_GRID]
        assert all(b > a for a, b in zip(series, series[1:])), n

    # n has little impact below the ring degree...
    for m in M_GRID:
        assert grid[(m, 256)] == pytest.approx(grid[(m, 4096)], rel=0.01), m
    # ...and degrades roughly per extra ciphertext tile beyond it
    for m in M_GRID:
        assert grid[(m, 8192)] < 0.65 * grid[(m, 4096)]
        assert grid[(m, 16384)] < 0.65 * grid[(m, 8192)]


def test_gpu_throughput_ratio(cham):
    """Fig. 6 text: CHAM throughput ~4.5x the GPU's at saturation."""
    gpu = GpuCostModel()
    m, n = 16384, 4096
    cham_thr = cham.hmvp_throughput_rows_per_s(m, n)
    gpu_thr = m / gpu.hmvp_s(m, n, cham.saturated_rows_per_s())
    ratio = cham_thr / gpu_thr
    print(f"\nCHAM/GPU sustained throughput ratio: {ratio:.2f}x (paper: 4.5x)")
    assert 2.5 <= ratio <= 4.6


def test_saturation_approaches_engine_limit(cham):
    sat = cham.saturated_rows_per_s()
    big = cham.hmvp_throughput_rows_per_s(65536, 4096)
    assert big > 0.8 * sat


@pytest.mark.benchmark(group="hmvp")
def test_perf_functional_hmvp_8x128(benchmark, bench_scheme, rng):
    """The real Alg. 1 pipeline (toy ring) as a timing kernel."""
    a = rng.integers(-50, 50, (8, 128))
    v = rng.integers(-50, 50, 128)
    ct = bench_scheme.encrypt_vector(v)
    benchmark(BatchedHmvp.once, bench_scheme, a, [ct])


@pytest.mark.benchmark(group="hmvp")
def test_perf_throughput_model(benchmark, cham):
    benchmark(cham.hmvp_throughput_rows_per_s, 4096, 4096)
