"""Cross-layer consistency regression tests."""

import numpy as np
import pytest

from repro.hw.validation import sweep, validate_consistency


def test_default_sweep_is_consistent():
    reports = sweep()
    for report in reports:
        assert report.consistent, (report.rows, report.col_tiles, report.mismatches)


def test_counts_exposed():
    report = validate_consistency(16, 2)
    assert report.dot_products == 32
    assert report.aggregations == 16
    assert report.reductions == 15
    assert report.cycles > 0


def test_functional_layer_reconciles(scheme128, rng):
    """A real functional run's op counts agree with driver and pipeline."""
    from repro.core.batch import BatchedHmvp

    a = rng.integers(-20, 20, (8, 128))
    v = rng.integers(-20, 20, 128)
    result = BatchedHmvp.once(scheme128, a, [scheme128.encrypt_vector(v)])
    report = validate_consistency(8, 1, functional_ops=result.ops)
    assert report.consistent, report.mismatches


def test_functional_tiled_reconciles(scheme128, rng):
    from repro.core.batch import BatchedHmvp, encrypt_tiles

    a = rng.integers(-10, 10, (6, 300))
    v = rng.integers(-10, 10, 300)
    result = BatchedHmvp.once(scheme128, a, encrypt_tiles(scheme128, v))
    report = validate_consistency(6, 3, functional_ops=result.ops)
    assert report.consistent, report.mismatches


def test_mismatch_detection():
    """Broken functional tallies must be flagged, not silently passed."""
    from repro.core.hmvp import HmvpOpCount

    bogus = HmvpOpCount(dot_products=999, pack_reductions=1, lwe_additions=5)
    report = validate_consistency(8, 1, functional_ops=bogus)
    assert not report.consistent
    assert any("functional dots" in m for m in report.mismatches)
    assert any("functional reductions" in m for m in report.mismatches)
    assert any("aggregations" in m for m in report.mismatches)


def test_single_row_edge_case():
    report = validate_consistency(1, 1)
    assert report.consistent
    assert report.reductions == 0
