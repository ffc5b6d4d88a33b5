"""Tests for the macro-pipeline discrete-event simulator (Section III-A)."""

from dataclasses import replace

import pytest

from repro.hw.arch import ChamConfig, EngineConfig, cham_default_config
from repro.hw.pipeline import MacroPipeline, simulate_multi_engine


@pytest.fixture(scope="module")
def pipe():
    return MacroPipeline(EngineConfig())


def test_reduction_count_is_rows_minus_one(pipe):
    """'Totally 4095 reductions are required to pack 4096 ciphertexts.'"""
    for rows in (2, 16, 256, 4096):
        stats = pipe.simulate_hmvp(rows)
        assert stats.reductions == rows - 1


def test_single_row_needs_no_reductions(pipe):
    stats = pipe.simulate_hmvp(1)
    assert stats.reductions == 0
    assert stats.total_cycles > 0


def test_throughput_approaches_row_interval(pipe):
    """Near-linear scaling with m (Fig. 6): large packs saturate the
    engine at one row per dot-product interval."""
    cfg = cham_default_config()
    sat = cfg.clock_hz / EngineConfig().dot_product_interval
    small = pipe.simulate_hmvp(16).throughput_rows_per_sec(cfg.clock_hz)
    large = pipe.simulate_hmvp(4096).throughput_rows_per_sec(cfg.clock_hz)
    assert small < large <= sat
    assert large > 0.99 * sat


def test_throughput_monotone_in_rows(pipe):
    cfg = cham_default_config()
    prev = 0.0
    for rows in (4, 16, 64, 256, 1024):
        thr = pipe.simulate_hmvp(rows).throughput_rows_per_sec(cfg.clock_hz)
        assert thr > prev
        prev = thr


def test_column_tiles_degrade_throughput(pipe):
    """Fig. 6: once a row spans multiple ciphertexts (n >= m regime),
    aggregation halves the effective rate per extra tile."""
    cfg = cham_default_config()
    t1 = pipe.simulate_hmvp(512, col_tiles=1).throughput_rows_per_sec(cfg.clock_hz)
    t2 = pipe.simulate_hmvp(512, col_tiles=2).throughput_rows_per_sec(cfg.clock_hz)
    t4 = pipe.simulate_hmvp(512, col_tiles=4).throughput_rows_per_sec(cfg.clock_hz)
    assert t2 == pytest.approx(t1 / 2, rel=0.1)
    assert t4 == pytest.approx(t1 / 4, rel=0.1)


def test_preemptions_occur(pipe):
    """Higher-level reductions preempt the leaf stream (Section III-A)."""
    stats = pipe.simulate_hmvp(256)
    assert stats.preemptions > 0


def test_reduce_buffer_peak_is_logarithmic(pipe):
    """With pair-on-arrival scheduling the buffer needs ~log2(m) slots."""
    for rows in (16, 256, 4096):
        stats = pipe.simulate_hmvp(rows)
        levels = rows.bit_length()
        assert stats.reduce_buffer_peak <= levels + 2, rows


def test_tiny_reduce_buffer_deadlocks():
    engine = EngineConfig(reduce_buffer_entries=2)
    with pytest.raises(RuntimeError, match="deadlock"):
        MacroPipeline(engine).simulate_hmvp(512)


def test_dot_utilization_saturates(pipe):
    stats = pipe.simulate_hmvp(2048)
    assert stats.dot_utilization > 0.95
    assert 0 < stats.pack_utilization < 1


def test_rejects_nonpositive_rows(pipe):
    with pytest.raises(ValueError):
        pipe.simulate_hmvp(0)


def test_multi_engine_splits_rows():
    cfg = cham_default_config()
    one = simulate_multi_engine(replace(cfg, engines=1), 4096)
    two = simulate_multi_engine(replace(cfg, engines=2), 4096)
    assert two.total_cycles < one.total_cycles
    assert two.total_cycles == pytest.approx(one.total_cycles / 2, rel=0.05)
    assert two.reductions == 4094  # two independent packs of 2048


def test_multi_engine_stats_aggregate():
    cfg = cham_default_config()
    stats = simulate_multi_engine(cfg, 100)
    assert stats.rows == 100
    assert stats.dot_products == 100


def test_faster_pack_config_reduces_tail():
    slow = EngineConfig(pack_ntt_units=6)
    fast = EngineConfig(pack_ntt_units=24)
    rows = 128
    t_slow = MacroPipeline(slow).simulate_hmvp(rows).total_cycles
    t_fast = MacroPipeline(fast).simulate_hmvp(rows).total_cycles
    assert t_fast < t_slow


def test_eight_pe_engine_halves_cycles():
    from repro.hw.arch import NttUnitConfig

    base = MacroPipeline(EngineConfig()).simulate_hmvp(1024).total_cycles
    fast = (
        MacroPipeline(EngineConfig(ntt_unit=NttUnitConfig(n_bfu=8)))
        .simulate_hmvp(1024)
        .total_cycles
    )
    assert fast == pytest.approx(base / 2, rel=0.05)


def _padded_tree(rows):
    """Reductions of the pack tree padded to a power of two (0 for one row)."""
    return (1 << (rows - 1).bit_length()) - 1


@pytest.mark.parametrize(
    "rows,col_tiles",
    [(1, 1), (2, 1), (7, 1), (16, 1), (16, 3), (100, 2), (256, 1),
     (1000, 1), (4096, 1)],
)
def test_pipeline_counts_match_the_pack_tree(pipe, rows, col_tiles):
    """One dot product per row and tile, the padded tree's reductions,
    and never fewer cycles than the serial work of the slower unit."""
    stats = pipe.simulate_hmvp(rows, col_tiles)
    assert stats.dot_products == rows * col_tiles
    assert stats.reductions == _padded_tree(rows)
    engine = EngineConfig()
    assert stats.total_cycles >= max(
        stats.dot_products * engine.dot_product_interval,
        stats.reductions * engine.pack_interval,
    )


@pytest.mark.parametrize(
    "rows,cols", [(8, 128), (6, 300)], ids=["8x128", "6x300"]
)
def test_functional_op_count_matches_the_pipeline(
    pipe, scheme128, rng, rows, cols
):
    """A real engine run tallies the dot products the pipeline schedules,
    the padded tree's reductions and one LWE addition per extra tile."""
    from repro.core.batch import BatchedHmvp, encrypt_tiles

    a = rng.integers(-10, 10, (rows, cols))
    v = rng.integers(-10, 10, cols)
    ops = BatchedHmvp.once(scheme128, a, encrypt_tiles(scheme128, v)).ops
    tiles = -(-cols // scheme128.params.n)
    assert ops.dot_products == pipe.simulate_hmvp(rows, tiles).dot_products
    assert ops.pack_reductions == _padded_tree(rows)
    assert ops.lwe_additions == rows * (tiles - 1)
