"""Tests for the architecture description."""

from dataclasses import replace

import pytest

from repro.hw.arch import (
    ChamConfig,
    EngineConfig,
    NttUnitConfig,
    U200,
    VU9P,
    cham_default_config,
)


def test_ntt_unit_cycles_table3():
    """(N/2 * log2 N) / n_bfu = 6144 at the production point."""
    unit = NttUnitConfig()
    assert unit.n == 4096
    assert unit.n_bfu == 4
    assert unit.cycles == 6144


def test_ntt_unit_scaling():
    assert NttUnitConfig(n_bfu=8).cycles == 3072
    assert NttUnitConfig(n=1024, n_bfu=4).cycles == 1280


def test_engine_ntt_unit_total_is_thirty():
    """9 + 6 + 15 transform lanes per engine; 60 across two engines."""
    engine = EngineConfig()
    assert engine.total_ntt_units == 30
    assert cham_default_config().total_ntt_units == 60


def test_dot_product_interval_balanced():
    """All stages of the default engine sustain one row per NTT latency."""
    engine = EngineConfig()
    assert engine.dot_product_interval == 6144


def test_pack_interval_keeps_up():
    """The pack module must be at least as fast as row arrival."""
    engine = EngineConfig()
    assert engine.pack_interval <= engine.dot_product_interval


def test_default_config():
    cfg = cham_default_config()
    assert cfg.engines == 2
    assert cfg.clock_hz == 300e6
    assert replace(cfg, engines=1).engines == 1


def test_devices():
    assert VU9P.dsps == 6840
    assert VU9P.peak_ops_per_sec == pytest.approx(6840 * 300e6)
    assert U200.ridge_intensity == pytest.approx(
        6840 * 300e6 / (77e9), rel=1e-6
    )


def test_eight_pe_engine_is_twice_as_fast():
    fast = EngineConfig(ntt_unit=NttUnitConfig(n_bfu=8))
    assert fast.dot_product_interval == EngineConfig().dot_product_interval // 2
