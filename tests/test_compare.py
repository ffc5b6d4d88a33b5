"""Tests for the published-accelerator comparison data."""

import pytest

from repro.hw.compare import KNOWN_ACCELERATORS, cham_entry, comparison_rows


def test_cham_matches_our_simulator():
    from repro.hw.arch import NttUnitConfig, cham_default_config

    cham = cham_entry()
    assert cham.ntt_cycles == NttUnitConfig().cycles
    assert cham.clock_mhz * 1e6 == cham_default_config().clock_hz


def test_f1_atp_ratio_matches_table3():
    f1 = KNOWN_ACCELERATORS["F1"]
    cham = cham_entry()
    assert f1.atp / cham.atp == pytest.approx(7.36, abs=0.05)


def test_asic_areas_in_paper_band():
    """§I: ASIC areas are 'extremely large (100 mm^2 ~ 400 mm^2)'."""
    asics = [a for a in KNOWN_ACCELERATORS.values() if a.technology == "ASIC"]
    assert asics
    for acc in asics:
        assert 100 <= acc.area_mm2 <= 500


def test_cham_is_the_only_multischeme_kernel_accelerator():
    cham = cham_entry()
    assert cham.scope == "kernel" and cham.multi_scheme
    others = [
        a
        for name, a in KNOWN_ACCELERATORS.items()
        if name != "CHAM" and a.multi_scheme
    ]
    assert not others


def test_comparison_rows_shape():
    rows = comparison_rows()
    assert rows[0][0] == "CHAM"
    assert len(rows) == len(KNOWN_ACCELERATORS)
    assert all(len(r) == 8 for r in rows)


def test_ntt_rate_heax_vs_cham():
    cham = cham_entry()
    heax = KNOWN_ACCELERATORS["HEAX"]
    # same per-unit rate at the same clock; CHAM wins on unit count/compactness
    assert (cham.clock_mhz, cham.ntt_cycles) == (heax.clock_mhz, heax.ntt_cycles)
