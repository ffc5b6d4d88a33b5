"""Tests for noise measurement and the analytical model — including the
paper's rescale noise-reduction claim (Section III-A)."""

import math

import numpy as np
import pytest

from repro.he.encoder import CoefficientEncoder
from repro.he.noise import (
    NoiseModel,
    absolute_noise_bits,
    invariant_noise_budget,
    packed_slot_positions,
)
from repro.he.rlwe import encrypt
from tests.oracles import zero_ciphertext


@pytest.fixture(scope="module")
def enc(params128):
    return CoefficientEncoder(params128)


def test_fresh_noise_is_small(ctx128, sk128, enc, rng):
    pt = enc.encode_coeffs(rng.integers(-1000, 1000, 128))
    ct = encrypt(ctx128, sk128, pt)
    bits = absolute_noise_bits(ctx128, sk128, ct)
    assert 0 < bits < 8


def test_budget_decreases_with_additions(ctx128, sk128, enc, rng):
    pt = enc.encode_coeffs(rng.integers(-1000, 1000, 128))
    ct = encrypt(ctx128, sk128, pt, augmented=False)
    budget0 = invariant_noise_budget(ctx128, sk128, ct)
    acc = ct
    for _ in range(7):
        acc = acc + ct
    budget1 = invariant_noise_budget(ctx128, sk128, acc)
    assert budget1 < budget0
    assert budget1 > 0  # still decryptable


def test_zero_ciphertext_budget_is_full(ctx128, sk128):
    z = zero_ciphertext(ctx128, ctx128.ct_basis)
    assert invariant_noise_budget(ctx128, sk128, z) == float(
        ctx128.ct_basis.product.bit_length()
    )


def test_rescale_reduces_multiplication_noise(ctx128, sk128, enc, rng):
    """The paper's stage-4 claim: rescaling after the plaintext product
    knocks the multiplication noise down (30 -> 26 bit in their setting)."""
    v = rng.integers(-(1 << 15), 1 << 15, 128)
    row = rng.integers(-(1 << 15), 1 << 15, 128)
    ct = encrypt(ctx128, sk128, enc.encode_vector(v), augmented=True)
    prod = ct.multiply_plain(enc.encode_row(row))
    pre = absolute_noise_bits(ctx128, sk128, prod)
    post = absolute_noise_bits(ctx128, sk128, prod.rescale())
    assert post < pre - 5  # a large, decisive reduction
    assert pre > 15  # the multiplication really did inflate the noise


def test_slot_restricted_measurement(ctx128, sk128, galois128, enc, rng):
    """Packed garbage coefficients must not pollute slot noise readings."""
    from repro.he.lwe import extract_lwe
    from repro.he.packing import pack_lwes

    lwes = []
    for v in rng.integers(-100, 100, 4):
        coeffs = rng.integers(-100, 100, 128)
        coeffs[0] = v
        ct = encrypt(ctx128, sk128, enc.encode_coeffs(coeffs), augmented=False)
        lwes.append(extract_lwe(ct, 0))
    packed = pack_lwes(lwes, galois128)
    pos = packed_slot_positions(128, 4)
    slot_bits = absolute_noise_bits(ctx128, sk128, packed.ct, pos)
    all_bits = absolute_noise_bits(ctx128, sk128, packed.ct)
    assert slot_bits < all_bits  # garbage dominates the unrestricted view
    assert invariant_noise_budget(ctx128, sk128, packed.ct, pos) > 5


# -- analytical model -------------------------------------------------------------


def test_model_fresh_bounds_measurement(ctx128, sk128, enc, rng):
    model = NoiseModel.for_context(ctx128)
    pt = enc.encode_coeffs(rng.integers(-1000, 1000, 128))
    ct = encrypt(ctx128, sk128, pt)
    measured = absolute_noise_bits(ctx128, sk128, ct)
    assert measured <= math.log2(model.fresh_sym()) + 2


def test_model_pk_noise_larger_than_sym():
    model = NoiseModel(n=4096, sigma=3.2, t=1 << 40, q=1 << 69, p=1 << 39)
    assert model.fresh_pk() > model.fresh_sym()


def test_model_rescale_divides(ctx128):
    model = NoiseModel.for_context(ctx128)
    big = 2.0 ** 30
    rescaled = model.rescale(big)
    assert rescaled < big / 1e6
    assert rescaled > 0


def test_model_pack_doubles_per_level():
    model = NoiseModel(n=128, sigma=3.2, t=1 << 40, q=1 << 69, p=1 << 39)
    base = 100.0
    ks = model.keyswitch(dnum=2, q_max=1 << 35)
    one = model.pack(base, 1, ks)
    two = model.pack(base, 2, ks)
    assert one == pytest.approx(2 * base + ks)
    assert two == pytest.approx(2 * one + ks)


def test_model_multiply_plain_scales_with_norm():
    model = NoiseModel(n=4096, sigma=3.2, t=1 << 40, q=1 << 69, p=1 << 39)
    assert model.multiply_plain(8.0, 2**16) == pytest.approx(
        8.0 * 2**16 * math.sqrt(4096)
    )


def test_paper_noise_figures_at_production_parameters():
    """With 16-bit matrix entries and the pk-encryption noise profile,
    the model lands near the paper's 30-bit pre-rescale figure and the
    rescale output sits near the paper's 26-bit figure once the pack
    tree's 12 doubling levels are included."""
    model = NoiseModel(
        n=4096, sigma=3.2, t=(1 << 40) + 15, q=1 << 69, p=1 << 39
    )
    pre = model.multiply_plain(model.fresh_pk(), 2**16)
    assert 28 <= math.log2(pre) <= 34  # "30 bit"
    ks = model.keyswitch(dnum=2, q_max=(1 << 34) + (1 << 27) + 1)
    packed = model.pack(model.rescale(pre), 12, ks)
    assert 20 <= math.log2(packed) <= 28  # "26 bit"
