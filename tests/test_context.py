"""Tests for the shared HE context (sampling, per-limb NTT helpers)."""

import numpy as np
import pytest

from repro.he.context import CheContext
from repro.he.params import toy_params
from tests.oracles import negacyclic_convolution_schoolbook


@pytest.fixture(scope="module")
def ctx():
    return CheContext(toy_params(n=128, plain_bits=40), seed=123)


def test_ntt_cache_returns_same_object(ctx):
    basis = ctx.ct_basis
    assert ctx.fused_ntt(basis) is ctx.fused_ntt(basis)


def test_ntt_limbs_roundtrip(ctx, rng):
    basis = ctx.aug_basis
    limbs = np.stack([rng.integers(0, q, 128, dtype=np.uint64) for q in basis])
    back = ctx.intt_limbs(ctx.ntt_limbs(limbs, basis), basis)
    assert np.array_equal(back, limbs)


def test_negacyclic_multiply_per_limb(ctx, rng):
    basis = ctx.ct_basis
    a = np.stack([rng.integers(0, q, 128, dtype=np.uint64) for q in basis])
    b = np.stack([rng.integers(0, q, 128, dtype=np.uint64) for q in basis])
    prod = ctx.negacyclic_multiply(a, b, basis)
    for i, q in enumerate(basis):
        assert np.array_equal(prod[i], negacyclic_convolution_schoolbook(a[i], b[i], q))


def test_sample_uniform_shape_and_range(ctx):
    limbs = ctx.sample_uniform(ctx.aug_basis)
    assert limbs.shape == (3, 128)
    for i, q in enumerate(ctx.aug_basis):
        assert limbs[i].max() < q


def test_ternary_sampler(ctx):
    s = ctx.sample_ternary_signed()
    assert set(np.unique(s)).issubset({-1, 0, 1})
    # roughly uniform over the three values
    assert 20 < np.count_nonzero(s == 0) < 70


def test_error_sampler_statistics(ctx):
    samples = np.concatenate([ctx.sample_error_signed() for _ in range(50)])
    assert abs(samples.mean()) < 0.5
    assert 2.0 < samples.std() < 4.5  # sigma = 3.2
    wide = ctx.sample_error_signed(std=30.0)
    assert wide.std() > 15


def test_signed_to_limbs_consistency(ctx):
    signed = np.array([-1, 0, 5] + [0] * 125, dtype=np.int64)
    limbs = ctx.signed_to_limbs(signed, ctx.ct_basis)
    q0 = ctx.ct_basis.moduli[0]
    assert limbs[0][0] == q0 - 1
    assert limbs[0][2] == 5


def test_limbs_for_bigints(ctx):
    big = [ctx.ct_basis.product - 1] + [0] * 127
    limbs = ctx.limbs_for(big, ctx.ct_basis)
    # Q-1 is congruent to q_i - 1 in each limb
    for i, q in enumerate(ctx.ct_basis):
        assert limbs[i][0] == q - 1


def test_seeded_reproducibility():
    params = toy_params(n=64, plain_bits=40)
    a = CheContext(params, seed=9).sample_uniform(params.ct_basis)
    b = CheContext(params, seed=9).sample_uniform(params.ct_basis)
    assert np.array_equal(a, b)
    c = CheContext(params, seed=10).sample_uniform(params.ct_basis)
    assert not np.array_equal(a, c)


def test_fork_is_independent(ctx):
    fork = ctx.fork(55)
    assert fork.params is ctx.params
    assert fork.rng is not ctx.rng


def test_properties(ctx):
    assert ctx.n == 128
    assert ctx.t == ctx.params.plain_modulus
    assert ctx.ct_basis is ctx.params.ct_basis
    assert ctx.aug_basis is ctx.params.aug_basis
