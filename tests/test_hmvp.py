"""Tests for the core contribution: Algorithm 1 HMVP and tiling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchedHmvp, EncodedMatrixCache, encrypt_tiles
from repro.core.hmvp import HmvpOpCount


def matmul_obj(a, v):
    return a.astype(object) @ v.astype(object)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 16])
def test_hmvp_correctness(scheme128, rng, m):
    a = rng.integers(-100, 100, (m, 128))
    v = rng.integers(-100, 100, 128)
    res = BatchedHmvp.once(scheme128, a, [scheme128.encrypt_vector(v)])
    assert np.array_equal(res.decrypt(scheme128), matmul_obj(a, v))


def test_hmvp_short_rows(scheme128, rng):
    a = rng.integers(-100, 100, (4, 60))  # n < ring degree
    v = rng.integers(-100, 100, 60)
    ct = scheme128.encrypt_vector(v)
    res = BatchedHmvp.once(scheme128, a, [ct])
    assert np.array_equal(res.decrypt(scheme128), matmul_obj(a, v))


def test_hmvp_op_counts(scheme128, rng):
    a = rng.integers(-10, 10, (8, 128))
    v = rng.integers(-10, 10, 128)
    res = BatchedHmvp.once(scheme128, a, [scheme128.encrypt_vector(v)])
    ops = res.ops
    assert ops.dot_products == 8
    assert ops.extracts == 8
    assert ops.pack_reductions == 7
    assert ops.keyswitches == 7
    assert ops.automorphisms == 7
    # a one-shot product pays the encode: 3 plaintext limbs per row + 6
    # one-off ciphertext transforms, plus the pack key-switch transforms
    assert ops.ntts == 8 * 3 + 6 + 7 * 2 * 3


def test_op_count_addition():
    a = HmvpOpCount(rows=1, ntts=5)
    b = HmvpOpCount(rows=2, ntts=7, keyswitches=1)
    c = a + b
    assert c.rows == 3 and c.ntts == 12 and c.keyswitches == 1


def test_tiled_column_and_row_counts(scheme128):
    def encoded(shape):
        return BatchedHmvp(
            scheme128, np.zeros(shape, dtype=np.int64), cache=EncodedMatrixCache()
        ).encoded

    assert encoded((1, 128)).col_tiles == 1
    assert encoded((257, 129)).col_tiles == 2
    assert encoded((257, 129)).row_tiles == 3


def test_tiled_wide_matrix(scheme128, rng):
    """n > N: partial dot products aggregate as LWE additions."""
    a = rng.integers(-50, 50, (6, 300))
    v = rng.integers(-50, 50, 300)
    got = BatchedHmvp.once(scheme128, a, encrypt_tiles(scheme128, v))
    assert np.array_equal(got.decrypt(scheme128), matmul_obj(a, v))


def test_tiled_tall_matrix(scheme128, rng):
    """m > N: multiple packed outputs."""
    a = rng.integers(-20, 20, (150, 64))
    v = rng.integers(-20, 20, 64)
    res = BatchedHmvp.once(scheme128, a, encrypt_tiles(scheme128, v))
    assert len(res.packs) == 2
    assert np.array_equal(res.decrypt(scheme128), matmul_obj(a, v))


def test_tiled_records_lwe_additions(scheme128, rng):
    a = rng.integers(-10, 10, (3, 256))
    v = rng.integers(-10, 10, 256)
    res = BatchedHmvp.once(scheme128, a, encrypt_tiles(scheme128, v))
    assert res.ops.lwe_additions == 3  # one extra tile of 3 rows


def test_tiled_rows_per_pack(scheme128, rng):
    """Every N rows are one pack; the last tile holds the remainder."""
    ring = scheme128.params.n
    a = rng.integers(-10, 10, (ring + 4, 32))
    v = rng.integers(-10, 10, 32)
    engine = BatchedHmvp(scheme128, a)
    res = engine.multiply_tiles(encrypt_tiles(scheme128, v))
    assert [pack.count for pack in res.packs] == [ring, 4]
    assert np.array_equal(res.decrypt(scheme128), matmul_obj(a, v))


def test_tiled_tile_count_mismatch(scheme128, rng):
    engine = BatchedHmvp(scheme128, rng.integers(-10, 10, (3, 256)))
    single = encrypt_tiles(scheme128, np.zeros(128, dtype=np.int64))
    with pytest.raises(ValueError, match="vector tiles"):
        engine.multiply_tiles(single)


def test_one_shot_product_leaves_the_default_cache_alone(scheme128, rng):
    """A fresh matrix per call must not pile up in MATRIX_CACHE."""
    from repro.core.batch import MATRIX_CACHE

    before = (len(MATRIX_CACHE), MATRIX_CACHE.hits, MATRIX_CACHE.misses)
    a = rng.integers(-10, 10, (3, 128))
    BatchedHmvp.once(scheme128, a, [scheme128.encrypt_vector(np.ones(128))])
    assert (len(MATRIX_CACHE), MATRIX_CACHE.hits, MATRIX_CACHE.misses) == before


def test_hmvp_matches_plain_reference_property(scheme128):
    @given(
        m=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=8, deadline=None)
    def inner(m, seed):
        r = np.random.default_rng(seed)
        a = r.integers(-30, 30, (m, 128))
        v = r.integers(-30, 30, 128)
        res = BatchedHmvp.once(scheme128, a, [scheme128.encrypt_vector(v)])
        assert np.array_equal(res.decrypt(scheme128), matmul_obj(a, v))

    inner()
