"""Tests for the gold-model negacyclic NTT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.math.modular import modadd_vec
from repro.math.ntt import (
    NegacyclicNtt,
    bit_reverse,
    bit_reverse_indices,
    fused_limb_ntt,
)
from repro.math.primes import CHAM_P, CHAM_Q0, CHAM_Q1, find_ntt_prime
from tests.oracles import negacyclic_convolution_schoolbook

MODULI = [CHAM_Q0, CHAM_Q1, CHAM_P]


def test_bit_reverse():
    assert bit_reverse(0b001, 3) == 0b100
    assert bit_reverse(0b110, 3) == 0b011
    assert bit_reverse(5, 4) == 10


def test_bit_reverse_indices_is_involution():
    perm = bit_reverse_indices(64)
    assert np.array_equal(perm[perm], np.arange(64))


def test_bit_reverse_indices_rejects_non_pow2():
    with pytest.raises(ValueError):
        bit_reverse_indices(48)


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("n", [4, 16, 128, 1024])
def test_roundtrip(q, n, rng):
    ctx = NegacyclicNtt(n, q)
    a = rng.integers(0, q, n, dtype=np.uint64)
    assert np.array_equal(ctx.inverse(ctx.forward(a)), a)


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("n", [8, 32, 128])
def test_multiply_matches_schoolbook(q, n, rng):
    ctx = NegacyclicNtt(n, q)
    a = rng.integers(0, q, n, dtype=np.uint64)
    b = rng.integers(0, q, n, dtype=np.uint64)
    assert np.array_equal(
        ctx.multiply(a, b), negacyclic_convolution_schoolbook(a, b, q)
    )


def test_negacyclic_wraparound_sign():
    """X^(n-1) * X = X^n = -1: the defining identity of the ring."""
    n, q = 16, CHAM_Q0
    ctx = NegacyclicNtt(n, q)
    x_last = np.zeros(n, dtype=np.uint64)
    x_last[n - 1] = 1
    x_one = np.zeros(n, dtype=np.uint64)
    x_one[1] = 1
    prod = ctx.multiply(x_last, x_one)
    want = np.zeros(n, dtype=np.uint64)
    want[0] = q - 1
    assert np.array_equal(prod, want)


def test_forward_is_linear(rng):
    n, q = 64, CHAM_Q1
    ctx = NegacyclicNtt(n, q)
    a = rng.integers(0, q, n, dtype=np.uint64)
    b = rng.integers(0, q, n, dtype=np.uint64)
    lhs = ctx.forward(modadd_vec(a, b, q))
    rhs = modadd_vec(ctx.forward(a), ctx.forward(b), q)
    assert np.array_equal(lhs, rhs)


def test_batch_transform_matches_loop(rng):
    n, q = 64, CHAM_Q0
    ctx = NegacyclicNtt(n, q)
    batch = rng.integers(0, q, (5, n), dtype=np.uint64)
    stacked = ctx.forward(batch)
    for i in range(5):
        assert np.array_equal(stacked[i], ctx.forward(batch[i]))


def test_three_dim_batch(rng):
    n, q = 32, CHAM_P
    ctx = NegacyclicNtt(n, q)
    batch = rng.integers(0, q, (2, 3, n), dtype=np.uint64)
    out = ctx.forward(batch)
    assert out.shape == (2, 3, n)
    assert np.array_equal(out[1, 2], ctx.forward(batch[1, 2]))


def test_constant_polynomial_transform():
    """NTT of a constant is that constant in every position."""
    n, q = 16, CHAM_Q0
    ctx = NegacyclicNtt(n, q)
    a = np.zeros(n, dtype=np.uint64)
    a[0] = 7
    assert np.array_equal(ctx.forward(a), np.full(n, 7, dtype=np.uint64))


def test_rejects_bad_length(rng):
    ctx = NegacyclicNtt(64, CHAM_Q0)
    with pytest.raises(ValueError):
        ctx.forward(rng.integers(0, 10, 32, dtype=np.uint64))
    with pytest.raises(ValueError):
        ctx.inverse(rng.integers(0, 10, 128, dtype=np.uint64))


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        NegacyclicNtt(48, CHAM_Q0)  # not a power of two
    with pytest.raises(ValueError):
        NegacyclicNtt(64, 97)  # 97 != 1 mod 128


@given(st.lists(st.integers(min_value=0, max_value=CHAM_Q0 - 1), min_size=16, max_size=16))
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(coeffs):
    a = np.array(coeffs, dtype=np.uint64)
    ctx = NegacyclicNtt(16, CHAM_Q0)
    assert np.array_equal(ctx.inverse(ctx.forward(a)), a)


@given(
    st.lists(st.integers(min_value=0, max_value=999), min_size=8, max_size=8),
    st.lists(st.integers(min_value=0, max_value=999), min_size=8, max_size=8),
)
@settings(max_examples=50, deadline=None)
def test_convolution_commutes_property(xs, ys):
    q = find_ntt_prime(20, 8)
    a = np.array(xs, dtype=np.uint64) % q
    b = np.array(ys, dtype=np.uint64) % q
    ctx = NegacyclicNtt(8, q)
    assert np.array_equal(ctx.multiply(a, b), ctx.multiply(b, a))
    assert np.array_equal(
        ctx.multiply(a, b), negacyclic_convolution_schoolbook(a, b, q)
    )


@given(
    log_n=st.integers(min_value=1, max_value=12),
    toy=st.booleans(),
    batch=st.lists(st.integers(min_value=1, max_value=3), max_size=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_constant_coefficient_is_scaled_slot_sum(log_n, toy, batch, seed):
    """Coefficient 0 of an inverse transform is ``n^-1`` times the sum of
    the transform slots (mod q), over the CHAM moduli and a toy basis up
    to the 41-bit cap — how the HMVP engine reads EXTRACTLWES's ``b``."""
    n = 1 << log_n
    if toy:
        moduli = tuple(find_ntt_prime(bits, n) for bits in (17, 30, 41))
    else:
        moduli = tuple(MODULI)
    rng = np.random.default_rng(seed)
    x = np.stack(
        [rng.integers(0, q, (*batch, n), dtype=np.uint64) for q in moduli]
    )
    want = np.stack(
        [
            np.asarray(x[i].astype(object).sum(axis=-1), dtype=object)
            * pow(n, -1, q)
            % q
            for i, q in enumerate(moduli)
        ]
    ).astype(np.uint64)
    fused = fused_limb_ntt(n, moduli)
    assert np.array_equal(fused.inverse(x)[..., 0], want)
    assert np.array_equal(fused.inverse_constant(x), want)
