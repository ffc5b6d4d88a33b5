"""Tests for the CKKS scheme over the CHAM substrate."""

import numpy as np
import pytest

from repro.he.ckks import CkksScheme, CkksSlotEncoder
from repro.he.params import toy_params


@pytest.fixture(scope="module")
def ckks():
    return CkksScheme(toy_params(n=128, plain_bits=40), seed=17, max_pack=16)


def test_coeff_roundtrip(ckks):
    v = np.array([1.5, -2.25, 3.14159, 1e-3, -7.0])
    ct = ckks.encrypt_coeffs(v, augmented=False)
    out = ckks.decrypt_coeffs(ct, 5)
    assert np.max(np.abs(out - v)) < 1e-5


def test_coeff_roundtrip_augmented(ckks):
    v = np.linspace(-1, 1, 32)
    ct = ckks.encrypt_coeffs(v)
    assert ct.is_augmented
    assert np.max(np.abs(ckks.decrypt_coeffs(ct, 32) - v)) < 1e-5


def test_slot_roundtrip(ckks):
    z = np.array([1 + 2j, -0.5 + 0.25j, 3.0 - 1.0j])
    ct = ckks.encrypt_slots(z)
    out = ckks.slot_encoder.decode(ckks.decrypt_raw(ct), ct.scale, 3)
    assert np.max(np.abs(out - z)) < 1e-5


def test_slot_encoder_capacity():
    enc = CkksSlotEncoder(128)
    assert enc.slots == 64
    with pytest.raises(ValueError):
        enc.encode(np.zeros(65), 2.0**20)


def test_addition(ckks):
    a = np.array([1.0, -2.0, 3.0])
    b = np.array([0.5, 0.25, -0.125])
    ct = ckks.encrypt_coeffs(a, augmented=False) + ckks.encrypt_coeffs(
        b, augmented=False
    )
    assert np.max(np.abs(ckks.decrypt_coeffs(ct, 3) - (a + b))) < 1e-5


def test_subtraction_and_negation(ckks):
    a = np.array([1.0, -2.0])
    b = np.array([0.5, 0.25])
    ct = ckks.encrypt_coeffs(a, augmented=False) - ckks.encrypt_coeffs(
        b, augmented=False
    )
    assert np.max(np.abs(ckks.decrypt_coeffs(ct, 2) - (a - b))) < 1e-5
    neg = -ckks.encrypt_coeffs(a, augmented=False)
    assert np.max(np.abs(ckks.decrypt_coeffs(neg, 2) + a)) < 1e-5


def test_scale_mismatch_raises(ckks):
    a = ckks.encrypt_coeffs([1.0], scale=2.0**20, augmented=False)
    b = ckks.encrypt_coeffs([1.0], scale=2.0**25, augmented=False)
    with pytest.raises(ValueError, match="scale"):
        _ = a + b


def test_encoding_mismatch_raises(ckks):
    a = ckks.encrypt_coeffs([1.0], augmented=False)
    b = ckks.encrypt_slots([1.0])
    with pytest.raises(ValueError, match="encoding"):
        _ = a + b


def test_slotwise_plaintext_product(ckks):
    """The canonical embedding is a homomorphism: polynomial product =
    slotwise product."""
    z = np.array([1 + 1j, 2.0, -0.5j])
    w = np.array([2.0, -1.5, 4.0])
    ct = ckks.encrypt_slots(z, augmented=True)
    scaled = ckks.slot_encoder.encode(w, ckks.default_scale)
    prod = ckks._multiply_scaled_poly(ct, scaled, ckks.default_scale)
    prod = ckks.rescale(prod)
    out = ckks.slot_encoder.decode(ckks.decrypt_raw(prod), prod.scale, 3)
    assert np.max(np.abs(out - z * w)) < 1e-4


def test_rescale_reduces_scale(ckks):
    ct = ckks.encrypt_coeffs([1.0])
    two = np.zeros(ckks.params.n, dtype=np.int64)
    two[0] = round(2.0 * ckks.default_scale)
    prod = ckks._multiply_scaled_poly(ct, two, ckks.default_scale)
    assert prod.scale == pytest.approx(ckks.default_scale**2)
    res = ckks.rescale(prod)
    assert res.scale == pytest.approx(
        ckks.default_scale**2 / ckks.params.special_modulus
    )
    assert abs(ckks.decrypt_coeffs(res, 1)[0] - 2.0) < 1e-3


def test_rescale_requires_augmented(ckks):
    ct = ckks.encrypt_coeffs([1.0], augmented=False)
    with pytest.raises(ValueError):
        ckks.rescale(ct)


def test_dot_product(ckks, rng):
    v = rng.normal(0, 1, 128)
    row = rng.normal(0, 1, 128)
    ct = ckks.encrypt_coeffs(v)
    dp = ckks.dot_product(ct, row)
    got = ckks.decrypt_coeffs(dp, 1)[0]
    assert abs(got - float(row @ v)) < 1e-3


def test_dot_product_short_row(ckks, rng):
    v = rng.normal(0, 1, 128)
    row = rng.normal(0, 1, 16)
    dp = ckks.dot_product(ckks.encrypt_coeffs(v), row)
    assert abs(ckks.decrypt_coeffs(dp, 1)[0] - float(row @ v[:16])) < 1e-3


def test_dot_requires_coeff_encoding(ckks):
    ct = ckks.encrypt_slots([1.0])
    with pytest.raises(ValueError, match="coefficient"):
        ckks.dot_product(ct, [1.0])


def test_extract_and_pack_ckks(ckks, rng):
    """The BFV pack machinery works unchanged on CKKS ciphertexts —
    the hardware-sharing argument of the paper's multi-scheme pitch."""
    v = rng.normal(0, 1, 128)
    ct = ckks.encrypt_coeffs(v)
    rows = [rng.normal(0, 1, 128) for _ in range(4)]
    dps = [ckks.dot_product(ct, r) for r in rows]
    packed, stride = ckks.extract_and_pack(dps)
    got = ckks.decrypt_packed(packed, 4, stride)
    want = np.array([float(r @ v) for r in rows])
    assert np.max(np.abs(got - want)) < 1e-2


def test_pack_scale_mismatch(ckks, rng):
    a = ckks.encrypt_coeffs([1.0], scale=2.0**20, augmented=False)
    b = ckks.encrypt_coeffs([1.0], scale=2.0**22, augmented=False)
    with pytest.raises(ValueError, match="share a scale"):
        ckks.extract_and_pack([a, b])


def test_shared_secret_key():
    from repro.he.bfv import BfvScheme

    params = toy_params(n=64, plain_bits=40)
    bfv = BfvScheme(params, seed=3, max_pack=2)
    ckks = CkksScheme(params, seed=4, shared_secret=bfv.secret_key, max_pack=2)
    assert ckks.secret_key is bfv.secret_key
    ct = ckks.encrypt_coeffs([2.5], augmented=False)
    assert abs(ckks.decrypt_coeffs(ct, 1)[0] - 2.5) < 1e-5

