"""Tests for batched (multi-vector) HMVP."""

import sys

import numpy as np
import pytest

from repro import obs
from repro.core import batch as batch_module
from repro.core.batch import (
    BatchedHmvp,
    EncodedMatrixCache,
    matrix_fingerprint,
)
from tests.oracles import hmvp_oracle


@pytest.fixture(scope="module")
def matrix(rng_module):
    return rng_module.integers(-40, 40, (6, 128))


@pytest.fixture(scope="module")
def rng_module():
    return np.random.default_rng(0xBA7C)


def test_batched_matches_single(scheme128, matrix, rng_module):
    batched = BatchedHmvp(scheme128, matrix)
    v = rng_module.integers(-40, 40, 128)
    ct = scheme128.encrypt_vector(v)
    got = batched.multiply_one(ct).decrypt(scheme128)
    want = matrix.astype(object) @ v.astype(object)
    assert np.array_equal(got, want)
    # and is the very ciphertext the scalar per-row oracle packs
    ref = hmvp_oracle(scheme128, matrix, [ct])
    assert np.array_equal(got, ref.decrypt(scheme128))
    assert np.array_equal(batched.multiply_one(ct).packs[0].ct.c0, ref.packs[0].ct.c0)


def test_batch_of_vectors(scheme128, matrix, rng_module):
    batched = BatchedHmvp(scheme128, matrix)
    vs = [rng_module.integers(-40, 40, 128) for _ in range(3)]
    cts = [scheme128.encrypt_vector(v) for v in vs]
    results = batched.multiply_batch(cts)
    for res, v in zip(results, vs):
        assert np.array_equal(
            res.decrypt(scheme128), matrix.astype(object) @ v.astype(object)
        )


def test_cached_ntt_savings(scheme128, matrix, rng_module):
    """The resident path skips the per-vector row transforms a one-shot
    product pays."""
    batched = BatchedHmvp(scheme128, matrix)
    v = rng_module.integers(-10, 10, 128)
    ct = scheme128.encrypt_vector(v)
    cached_ops = batched.multiply_one(ct).ops
    uncached_ops = BatchedHmvp.once(scheme128, matrix, [ct]).ops
    assert cached_ops.ntts < uncached_ops.ntts
    # exactly the m*limbs_aug row transforms are saved per vector
    m = matrix.shape[0]
    assert uncached_ops.ntts - cached_ops.ntts == m * 3


def test_amortized_op_count(scheme128, matrix):
    batched = BatchedHmvp(scheme128, matrix)
    one = batched.amortized_op_count(1)
    ten = batched.amortized_op_count(10)
    # encode cost appears once; per-vector cost scales linearly
    per_vec = (ten.ntts - one.ntts) / 9
    assert per_vec < one.ntts  # encode ntts amortized away
    assert ten.dot_products == 10 * matrix.shape[0]


def test_rejects_bad_inputs(scheme128, rng_module):
    with pytest.raises(ValueError):
        BatchedHmvp(scheme128, np.zeros(128))
    with pytest.raises(ValueError, match="nothing to pack"):
        BatchedHmvp(scheme128, np.zeros((0, 128)))
    batched = BatchedHmvp(scheme128, rng_module.integers(-5, 5, (2, 128)))
    ct = scheme128.encrypt_vector([1], augmented=False)
    with pytest.raises(ValueError, match="augmented"):
        batched.multiply_one(ct)


def test_shape_property(scheme128, matrix):
    assert BatchedHmvp(scheme128, matrix).shape == (6, 128)


# -- encoded-matrix cache -------------------------------------------------------


def test_cache_hit_on_identical_matrix(scheme128, matrix):
    cache = EncodedMatrixCache()
    a = BatchedHmvp(scheme128, matrix, cache=cache)
    b = BatchedHmvp(scheme128, np.array(matrix), cache=cache)
    assert cache.misses == 1 and cache.hits == 1
    # the hit serves the very same NTT-domain tiles, no re-encode
    assert a.encoded is b.encoded


def test_cache_miss_on_mutated_matrix(scheme128, matrix, rng_module):
    """Content fingerprinting: a mutated matrix must never be served
    stale NTT-domain rows from the cache."""
    cache = EncodedMatrixCache()
    BatchedHmvp(scheme128, matrix, cache=cache)
    mutated = np.array(matrix)
    mutated[0, 0] += 1
    engine = BatchedHmvp(scheme128, mutated, cache=cache)
    assert cache.misses == 2 and cache.hits == 0
    # and the fresh encoding computes the *mutated* product exactly
    v = rng_module.integers(-40, 40, 128)
    got = engine.multiply_one(scheme128.encrypt_vector(v)).decrypt(scheme128)
    assert np.array_equal(got, mutated.astype(object) @ v.astype(object))


def test_cache_counters_reported(scheme128, matrix):
    reg = obs.enable_metrics()
    try:
        cache = EncodedMatrixCache()
        BatchedHmvp(scheme128, matrix, cache=cache)
        BatchedHmvp(scheme128, matrix, cache=cache)
        snap = reg.snapshot()
        assert snap["counters"]["batch.cache.miss"] == 1
        assert snap["counters"]["batch.cache.hit"] == 1
    finally:
        obs.disable_metrics()
        obs.REGISTRY.reset()


def test_cache_lru_eviction(scheme128, rng_module):
    cache = EncodedMatrixCache(capacity=1)
    m1 = rng_module.integers(-5, 5, (2, 128))
    m2 = rng_module.integers(-5, 5, (2, 128))
    BatchedHmvp(scheme128, m1, cache=cache)
    BatchedHmvp(scheme128, m2, cache=cache)  # evicts m1
    BatchedHmvp(scheme128, m1, cache=cache)  # re-encode
    assert cache.misses == 3 and cache.hits == 0
    assert len(cache) == 1
    with pytest.raises(ValueError):
        EncodedMatrixCache(capacity=0)


def test_fingerprint_depends_on_params_and_content(scheme128, matrix):
    base = matrix_fingerprint(matrix, scheme128.params)
    assert base == matrix_fingerprint(np.array(matrix), scheme128.params)
    mutated = np.array(matrix)
    mutated[0, 0] += 1
    assert matrix_fingerprint(mutated, scheme128.params) != base


def test_encoded_tiles_are_frozen(scheme128, matrix):
    engine = BatchedHmvp(scheme128, matrix, cache=EncodedMatrixCache())
    tile = engine.encoded.tiles[(0, 0)]
    with pytest.raises(ValueError):
        tile[0, 0, 0] = 1


# -- worker pool and request queue ---------------------------------------------


def test_multiply_batch_with_workers(
    scheme128, matrix, rng_module, monkeypatch
):
    """The thread-pool fan-out returns the same ciphertext results in
    request order.

    24 requests against the 6-row matrix form three request groups
    (10, 10 and 4), so four workers really share the tasks; a tiny
    switch interval makes the threads interleave inside the kernels."""
    pools = []

    class CountingPool(batch_module.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(batch_module, "ThreadPoolExecutor", CountingPool)
    assert BatchedHmvp(scheme128, matrix).workers == batch_module.host_cpus()
    one = BatchedHmvp(scheme128, matrix, workers=1)
    four = BatchedHmvp(scheme128, matrix, workers=4)
    vs = [rng_module.integers(-40, 40, 128) for _ in range(24)]
    cts = [scheme128.encrypt_vector(v) for v in vs]
    assert len(cts) > 2 * one._group_size()
    serial = one.multiply_batch(cts)
    assert not pools
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = four.multiply_batch(cts)
    finally:
        sys.setswitchinterval(interval)
    assert len(pools) == 1
    for s, p, v in zip(serial, pooled, vs):
        assert np.array_equal(s.packs[0].ct.c0, p.packs[0].ct.c0)
        assert np.array_equal(s.packs[0].ct.c1, p.packs[0].ct.c1)
        assert np.array_equal(
            p.decrypt(scheme128), matrix.astype(object) @ v.astype(object)
        )
