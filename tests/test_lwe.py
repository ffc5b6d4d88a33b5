"""Tests for LWE extraction and the Eq. 3 embedding."""

import numpy as np
import pytest

from repro.he.encoder import CoefficientEncoder
from repro.he.lwe import LweCiphertext, decrypt_lwe, extract_lwe, lwe_to_rlwe
from repro.he.rlwe import decrypt, encrypt


@pytest.fixture(scope="module")
def enc(params128):
    return CoefficientEncoder(params128)


@pytest.mark.parametrize("idx", [0, 1, 63, 127])
def test_extract_recovers_coefficient(ctx128, sk128, enc, rng, idx):
    vals = rng.integers(-(1 << 20), 1 << 20, 128)
    ct = encrypt(ctx128, sk128, enc.encode_coeffs(vals), augmented=False)
    lwe = extract_lwe(ct, idx)
    assert decrypt_lwe(ctx128, sk128, lwe) == vals[idx]


def test_extract_index_out_of_range(ctx128, sk128, enc, rng):
    ct = encrypt(ctx128, sk128, enc.encode_coeffs([1]), augmented=False)
    with pytest.raises(ValueError):
        extract_lwe(ct, 128)
    with pytest.raises(ValueError):
        extract_lwe(ct, -1)


def test_extract_from_augmented_basis(ctx128, sk128, enc, rng):
    """Extraction works in any basis (it is pure data movement)."""
    vals = rng.integers(-1000, 1000, 128)
    ct = encrypt(ctx128, sk128, enc.encode_coeffs(vals), augmented=True)
    lwe = extract_lwe(ct, 3)
    assert decrypt_lwe(ctx128, sk128, lwe) == vals[3]


def test_lwe_addition(ctx128, sk128, enc, rng):
    a = rng.integers(-1000, 1000, 128)
    b = rng.integers(-1000, 1000, 128)
    lwe_a = extract_lwe(encrypt(ctx128, sk128, enc.encode_coeffs(a), augmented=False))
    lwe_b = extract_lwe(encrypt(ctx128, sk128, enc.encode_coeffs(b), augmented=False))
    assert decrypt_lwe(ctx128, sk128, lwe_a + lwe_b) == a[0] + b[0]


def test_lwe_basis_mismatch(ctx128, sk128, enc, rng):
    a = rng.integers(-10, 10, 128)
    lwe_n = extract_lwe(encrypt(ctx128, sk128, enc.encode_coeffs(a), augmented=False))
    lwe_a = extract_lwe(encrypt(ctx128, sk128, enc.encode_coeffs(a), augmented=True))
    with pytest.raises(ValueError):
        _ = lwe_n + lwe_a


def test_embed_preserves_constant_coefficient(ctx128, sk128, enc, rng):
    """Eq. 3: the RLWE embedding keeps the LWE message at coeff 0."""
    vals = rng.integers(-1000, 1000, 128)
    ct = encrypt(ctx128, sk128, enc.encode_coeffs(vals), augmented=False)
    lwe = extract_lwe(ct, 7)
    emb = lwe_to_rlwe(lwe)
    out = decrypt(ctx128, sk128, emb)
    assert int(out.centered()[0]) == vals[7]


def test_extract_zero_then_embed_restores_mask(ctx128, sk128, enc, rng):
    """For idx=0 the embedding returns exactly the original c1 — the
    double-transformation identity behind the paper's Eq. 3."""
    vals = rng.integers(-1000, 1000, 128)
    ct = encrypt(ctx128, sk128, enc.encode_coeffs(vals), augmented=False)
    emb = lwe_to_rlwe(extract_lwe(ct, 0))
    assert np.array_equal(emb.c1, ct.c1)
    assert np.array_equal(emb.c0[:, 0], ct.c0[:, 0])
    assert (emb.c0[:, 1:] == 0).all()


def test_lwe_shape_validation(ctx128):
    basis = ctx128.ct_basis
    with pytest.raises(ValueError):
        LweCiphertext(
            ctx128, basis, np.zeros(3, np.uint64), np.zeros((2, 128), np.uint64)
        )
    with pytest.raises(ValueError):
        LweCiphertext(
            ctx128, basis, np.zeros(2, np.uint64), np.zeros((2, 64), np.uint64)
        )


def test_lwe_dimension(ctx128, sk128, enc, rng):
    a = rng.integers(-10, 10, 128)
    lwe = extract_lwe(encrypt(ctx128, sk128, enc.encode_coeffs(a), augmented=False))
    assert lwe.a.shape == (len(ctx128.ct_basis), 128)
