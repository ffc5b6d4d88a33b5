"""Tests for RLWE ciphertexts and homomorphic operations."""

import numpy as np
import pytest

from repro.he.encoder import CoefficientEncoder
from repro.he.noise import absolute_noise_bits
from repro.he.rlwe import (
    RlweCiphertext,
    decrypt,
    encrypt,
    encrypt_pk,
    scaled_plaintext_limbs,
)
from repro.math.polynomial import automorph
from tests.oracles import multiply_monomial, zero_ciphertext


@pytest.fixture(scope="module")
def enc(params128):
    return CoefficientEncoder(params128)


def rand_pt(enc, rng, lo=-(1 << 30), hi=1 << 30):
    return enc.encode_coeffs(rng.integers(lo, hi, enc.n))


@pytest.mark.parametrize("augmented", [True, False])
def test_sym_encrypt_decrypt(ctx128, sk128, enc, rng, augmented):
    pt = rand_pt(enc, rng)
    ct = encrypt(ctx128, sk128, pt, augmented=augmented)
    assert decrypt(ctx128, sk128, ct) == pt
    assert ct.is_augmented == augmented
    assert ct.poly_count == (6 if augmented else 4)


@pytest.mark.parametrize("augmented", [True, False])
def test_pk_encrypt_decrypt(ctx128, sk128, pk128, enc, rng, augmented):
    pt = rand_pt(enc, rng)
    ct = encrypt_pk(ctx128, pk128, pt, augmented=augmented)
    assert decrypt(ctx128, sk128, ct) == pt


def test_decrypt_with_wrong_key_garbles(ctx128, sk128, enc, rng):
    from repro.he.keys import generate_secret_key

    pt = rand_pt(enc, rng)
    ct = encrypt(ctx128, sk128, pt)
    other = generate_secret_key(ctx128)
    assert decrypt(ctx128, other, ct) != pt


def test_homomorphic_addition(ctx128, sk128, enc, rng):
    a = rng.integers(-1000, 1000, 128)
    b = rng.integers(-1000, 1000, 128)
    ct = encrypt(ctx128, sk128, enc.encode_coeffs(a)) + encrypt(
        ctx128, sk128, enc.encode_coeffs(b)
    )
    assert np.array_equal(decrypt(ctx128, sk128, ct).centered(), a + b)


def test_homomorphic_subtraction_and_negation(ctx128, sk128, enc, rng):
    a = rng.integers(-1000, 1000, 128)
    b = rng.integers(-1000, 1000, 128)
    ct_a = encrypt(ctx128, sk128, enc.encode_coeffs(a))
    ct_b = encrypt(ctx128, sk128, enc.encode_coeffs(b))
    assert np.array_equal(decrypt(ctx128, sk128, ct_a - ct_b).centered(), a - b)
    assert np.array_equal(decrypt(ctx128, sk128, -ct_a).centered(), -a)


def test_add_plain(ctx128, sk128, enc, rng):
    a = rng.integers(-1000, 1000, 128)
    b = rng.integers(-1000, 1000, 128)
    ct = encrypt(ctx128, sk128, enc.encode_coeffs(a))
    out = ct.add_plain(enc.encode_coeffs(b))
    assert np.array_equal(decrypt(ctx128, sk128, out).centered(), a + b)


def test_multiply_plain_polynomial_semantics(ctx128, sk128, enc, rng):
    """pt-ct multiply is a negacyclic polynomial product mod t."""
    from tests.oracles import negacyclic_convolution_schoolbook

    a = rng.integers(-100, 100, 128)
    b = rng.integers(-100, 100, 128)
    pt_a = enc.encode_coeffs(a)
    pt_b = enc.encode_coeffs(b)
    ct = encrypt(ctx128, sk128, pt_a, augmented=True)
    out = ct.multiply_plain(pt_b).rescale()
    want = negacyclic_convolution_schoolbook(
        pt_a.coeffs, pt_b.coeffs, ctx128.t
    )
    assert np.array_equal(decrypt(ctx128, sk128, out).coeffs, want)


def test_multiply_scalar(ctx128, sk128, enc, rng):
    a = rng.integers(-100, 100, 128)
    ct = encrypt(ctx128, sk128, enc.encode_coeffs(a))
    out = ct.multiply_plain(enc.encode_coeffs([7]))
    assert np.array_equal(decrypt(ctx128, sk128, out).centered(), 7 * a)


def test_multiply_monomial_noise_free(ctx128, sk128, enc, rng):
    a = rng.integers(-100, 100, 128)
    ct = encrypt(ctx128, sk128, enc.encode_coeffs(a))
    before = absolute_noise_bits(ctx128, sk128, ct)
    out = multiply_monomial(ct, 5)
    after = absolute_noise_bits(ctx128, sk128, out)
    assert after == pytest.approx(before, abs=0.6)
    # plaintext rotated negacyclically
    want = np.concatenate([-a[-5:], a[:-5]])
    assert np.array_equal(decrypt(ctx128, sk128, out).centered(), want)


def test_automorph_raw_decrypts_under_rotated_key(ctx128, sk128, enc, rng):
    a = rng.integers(-100, 100, 128)
    ct = encrypt(ctx128, sk128, enc.encode_coeffs(a))
    g = 5
    rotated = ct.automorph_raw(g)
    rotated_key = sk128.automorphed(g)
    got = decrypt(ctx128, rotated_key, rotated)
    want = automorph(enc.encode_coeffs(a).coeffs, g, ctx128.t)
    assert np.array_equal(got.coeffs, want)


def test_rescale_reduces_basis(ctx128, sk128, enc, rng):
    pt = rand_pt(enc, rng)
    ct = encrypt(ctx128, sk128, pt, augmented=True)
    res = ct.rescale()
    assert not res.is_augmented
    assert res.poly_count == 4
    assert decrypt(ctx128, sk128, res) == pt


def test_rescale_rejects_normal_basis(ctx128, sk128, enc, rng):
    ct = encrypt(ctx128, sk128, rand_pt(enc, rng), augmented=False)
    with pytest.raises(ValueError):
        ct.rescale()


def test_basis_mismatch_raises(ctx128, sk128, enc, rng):
    pt = rand_pt(enc, rng)
    aug = encrypt(ctx128, sk128, pt, augmented=True)
    norm = encrypt(ctx128, sk128, pt, augmented=False)
    with pytest.raises(ValueError):
        _ = aug + norm


def test_zero_ciphertext_is_transparent(ctx128, sk128, enc):
    z = zero_ciphertext(ctx128, ctx128.ct_basis)
    pt = decrypt(ctx128, sk128, z)
    assert (pt.coeffs == 0).all()
    assert absolute_noise_bits(ctx128, sk128, z) == 0.0


def test_zero_plus_real_preserves_message(ctx128, sk128, enc, rng):
    a = rng.integers(-100, 100, 128)
    ct = encrypt(ctx128, sk128, enc.encode_coeffs(a), augmented=False)
    z = zero_ciphertext(ctx128, ctx128.ct_basis)
    assert np.array_equal(decrypt(ctx128, sk128, ct + z).centered(), a)


def test_scaled_plaintext_limbs_match_per_coefficient_rounding(ctx128, enc, rng):
    """The object-array embedding equals ``(2 M c + t) // (2 t)`` taken
    coefficient by coefficient, at the centered extremes too."""
    t = ctx128.t
    half = (t - 1) // 2
    coeffs = rng.integers(0, t, enc.n).astype(object)
    coeffs[:4] = [0, half, t - half, t - 1]  # centered 0, ±(t-1)/2, -1
    pt = enc.encode_coeffs(coeffs)
    assert list(pt.centered()[:4]) == [0, half, -half, -1]
    for basis in (ctx128.ct_basis, ctx128.aug_basis):
        modulus = basis.product
        want = [(2 * modulus * int(c) + t) // (2 * t) for c in pt.centered()]
        got = scaled_plaintext_limbs(ctx128, pt, basis)
        for limb, q in zip(got, basis):
            assert [int(v) for v in limb] == [w % q for w in want]


def test_shape_validation(ctx128):
    with pytest.raises(ValueError):
        RlweCiphertext(
            ctx128,
            ctx128.ct_basis,
            np.zeros((3, 128), np.uint64),
            np.zeros((2, 128), np.uint64),
        )


def test_copy_is_independent(ctx128, sk128, enc, rng):
    ct = encrypt(ctx128, sk128, rand_pt(enc, rng))
    cp = ct.copy()
    cp.c0[:] = 0
    assert not np.array_equal(ct.c0, cp.c0)


def test_large_plaintext_values_full_range(ctx128, sk128, enc, rng):
    """Coefficients across the entire plaintext space survive (exact
    scaling; the classical floor(Q/t) embedding would fail here)."""
    t = ctx128.t
    vals = rng.integers(0, t, 128, dtype=np.uint64).astype(object)
    pt = enc.encode_coeffs(vals)
    ct = encrypt(ctx128, sk128, pt, augmented=False)
    assert decrypt(ctx128, sk128, ct) == pt
