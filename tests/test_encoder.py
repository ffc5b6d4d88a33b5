"""Tests for plaintexts and the Eq. 1 coefficient encoders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he.encoder import CoefficientEncoder, FixedPointCodec, Plaintext
from repro.he.params import toy_params
from tests.oracles import negacyclic_convolution_schoolbook


@pytest.fixture(scope="module")
def enc():
    return CoefficientEncoder(toy_params(n=64, plain_bits=30))


def test_plaintext_centered():
    pt = Plaintext(np.array([0, 1, 9, 10], dtype=np.uint64), 11)
    assert list(pt.centered()) == [0, 1, -2, -1]


def test_plaintext_validation():
    with pytest.raises(ValueError):
        Plaintext(np.zeros((2, 2), dtype=np.uint64), 11)


def test_encode_decode_roundtrip(enc, rng):
    vals = rng.integers(-1000, 1000, 64)
    pt = enc.encode_coeffs(vals)
    assert np.array_equal(pt.centered(), vals)


def test_encode_short_vector_pads(enc):
    pt = enc.encode_coeffs([5, -3])
    assert pt.coeffs[0] == 5
    assert (pt.coeffs[2:] == 0).all()


def test_encode_rejects_long_input(enc):
    with pytest.raises(ValueError):
        enc.encode_coeffs(np.zeros(65))
    with pytest.raises(ValueError):
        enc.encode_row(np.zeros(65))


def test_row_encoding_layout(enc):
    """Eq. 1: A_{i,0} at X^0, -A_{i,j} at X^{N-j}."""
    row = np.array([7, 1, 2, 3])
    pt = enc.encode_row(row)
    t = enc.t
    assert pt.coeffs[0] == 7
    assert pt.coeffs[63] == t - 1
    assert pt.coeffs[62] == t - 2
    assert pt.coeffs[61] == t - 3
    assert (pt.coeffs[1:61] == 0).all()


def test_eq2_inner_product_in_constant_coefficient(enc, rng):
    """The defining property: const coeff of pt(row) * pt(vec) = <row, vec>."""
    t = enc.t
    for _ in range(10):
        row = rng.integers(-50, 50, 64)
        vec = rng.integers(-50, 50, 64)
        pt_r = enc.encode_row(row)
        pt_v = enc.encode_vector(vec)
        prod = negacyclic_convolution_schoolbook(pt_r.coeffs, pt_v.coeffs, t)
        got = int(prod[0])
        if got > t // 2:
            got -= t
        assert got == int(np.dot(row.astype(object), vec.astype(object)))


def test_eq2_short_row(enc, rng):
    row = rng.integers(-50, 50, 10)
    vec = rng.integers(-50, 50, 64)
    pt_r = enc.encode_row(row)
    pt_v = enc.encode_vector(vec)
    prod = negacyclic_convolution_schoolbook(pt_r.coeffs, pt_v.coeffs, enc.t)
    got = int(prod[0])
    if got > enc.t // 2:
        got -= enc.t
    assert got == int(np.dot(row.astype(object), vec[:10].astype(object)))


def test_decode_packed_scaling(enc):
    """decode_packed removes the 2^k PACKLWES factor mod t."""
    t = enc.t
    count, levels = 4, 2
    stride = 64 >> levels
    coeffs = np.zeros(64, dtype=np.uint64)
    values = [3, -7, 11, 0]
    for i, v in enumerate(values):
        coeffs[i * stride] = (v * (1 << levels)) % t
    pt = Plaintext(coeffs, t)
    got = enc.decode_packed(pt, count, levels)
    assert [int(x) for x in got] == values


def test_decode_packed_single(enc):
    coeffs = np.zeros(64, dtype=np.uint64)
    coeffs[0] = 42
    got = enc.decode_packed(Plaintext(coeffs, enc.t), 1, 0)
    assert list(got) == [42]


# -- fixed point --------------------------------------------------------------------


def test_fixed_point_roundtrip():
    codec = FixedPointCodec(t=(1 << 40) + 15, frac_bits=13)
    x = np.array([0.5, -1.25, 3.14159, 0.0])
    enc_x = codec.encode(x)
    dec = codec.decode(enc_x)
    assert np.allclose(dec, x, atol=2 ** -13)


def test_fixed_point_product_scale():
    codec = FixedPointCodec(t=(1 << 40) + 15, frac_bits=10)
    a, b = 1.5, -2.25
    ea = int(codec.encode(np.array([a]))[0])
    eb = int(codec.encode(np.array([b]))[0])
    prod = (ea * eb) % codec.t
    dec = codec.decode(np.array([prod], dtype=object), scale_bits=20)
    assert abs(dec[0] - a * b) < 2 ** -9


def test_fixed_point_huge_modulus():
    """Must stay exact for a 1024-bit Paillier modulus (regression)."""
    n = (1 << 512) + 951  # stand-in large odd modulus
    codec = FixedPointCodec(t=n, frac_bits=13)
    x = np.array([-1.999, 2.5])
    enc_x = codec.encode(x)
    assert int(enc_x[0]) == n - 16376
    assert np.allclose(codec.decode(enc_x), x, atol=2 ** -12)


@given(st.floats(min_value=-1000, max_value=1000, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_fixed_point_property(x):
    codec = FixedPointCodec(t=(1 << 40) + 15, frac_bits=13)
    dec = codec.decode(codec.encode(np.array([x])))
    assert abs(dec[0] - x) <= 2 ** -13
