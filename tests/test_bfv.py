"""Tests for the BfvScheme facade."""

import numpy as np
import pytest

from repro.he.bfv import BfvScheme
from repro.he.encoder import FixedPointCodec
from repro.he.params import toy_params


def test_default_params_are_production():
    # constructing at N=4096 is expensive; just check the wiring without keys
    from repro.he.params import cham_params

    p = cham_params()
    assert p.n == 4096


def test_encrypt_decrypt_vector(scheme128, rng):
    v = rng.integers(-1000, 1000, 128)
    ct = scheme128.encrypt_vector(v)
    got = scheme128.decrypt_coeffs(ct, 128)
    assert np.array_equal(got, v)


def test_public_encryption_path(scheme128, rng):
    v = rng.integers(-1000, 1000, 128)
    ct = scheme128.encrypt_vector(v, public=True)
    assert np.array_equal(scheme128.decrypt_coeffs(ct, 128), v)


def test_dot_product_end_to_end(scheme128, rng):
    v = rng.integers(-100, 100, 128)
    row = rng.integers(-100, 100, 128)
    ct = scheme128.encrypt_vector(v)
    out = scheme128.dot_product(ct, row)
    assert not out.is_augmented  # rescaled
    got = int(scheme128.decrypt_plaintext(out).centered()[0])
    assert got == int(np.dot(row.astype(object), v.astype(object)))


def test_dot_product_normal_basis_passthrough(scheme128, rng):
    v = rng.integers(-100, 100, 128)
    row = rng.integers(-100, 100, 128)
    ct = scheme128.encrypt_vector(v, augmented=False)
    out = scheme128.dot_product(ct, row)
    got = int(scheme128.decrypt_plaintext(out).centered()[0])
    assert got == int(np.dot(row.astype(object), v.astype(object)))


def test_extract_pack_decrypt_cycle(scheme128, rng):
    v = rng.integers(-50, 50, 128)
    ct = scheme128.encrypt_vector(v)
    rows = [rng.integers(-50, 50, 128) for _ in range(6)]
    lwes = [scheme128.extract(scheme128.dot_product(ct, r)) for r in rows]
    packed = scheme128.pack(lwes)
    got = scheme128.decrypt_packed(packed)
    want = [int(np.dot(r.astype(object), v.astype(object))) for r in rows]
    assert [int(x) for x in got] == want


def test_decrypt_lwe(scheme128, rng):
    v = rng.integers(-500, 500, 128)
    ct = scheme128.encrypt_vector(v, augmented=False)
    lwe = scheme128.extract(ct, 5)
    assert scheme128.decrypt_lwe(lwe) == v[5]


def test_fixed_point_helper(scheme128):
    """Fixed-point reals under the scheme's plaintext modulus survive an
    encrypt/decrypt round trip (the HeteroLR encoding)."""
    codec = FixedPointCodec(scheme128.params.plain_modulus, frac_bits=10)
    assert codec.scale == 1024
    x = np.array([0.5, -1.25, 3.0009765625])
    ct = scheme128.encrypt_vector(codec.encode(x), augmented=False)
    assert np.array_equal(codec.decode(scheme128.decrypt_coeffs(ct, 3)), x)


def test_noise_helpers(scheme128, rng):
    v = rng.integers(-10, 10, 128)
    ct = scheme128.encrypt_vector(v)
    assert scheme128.noise_bits(ct) < 10
    assert scheme128.noise_budget(ct) > 20


def test_max_pack_limits_galois_keys():
    s = BfvScheme(toy_params(n=64, plain_bits=30), seed=1, max_pack=4)
    assert len(s.galois_keys.keys) == 2  # levels 1 and 2
