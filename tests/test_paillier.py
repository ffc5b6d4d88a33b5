"""Tests for the Paillier baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he.paillier import Paillier, paillier_keygen
from repro.math.primes import is_prime


@pytest.fixture(scope="module")
def paillier():
    return Paillier(bits=256, seed=42)


def test_keygen_structure():
    sk = paillier_keygen(bits=128, seed=0)
    n = sk.public.n
    assert n.bit_length() in (127, 128)
    assert sk.public.g == n + 1
    # lam must invert correctly: decrypting Enc(0) gives 0
    p = Paillier(bits=128, seed=0)
    assert p.decrypt(p.encrypt(0)) == 0


def test_encrypt_decrypt_roundtrip(paillier, rng):
    for v in rng.integers(-(1 << 40), 1 << 40, 20):
        assert paillier.decrypt(paillier.encrypt(int(v))) == int(v)


def test_encryption_is_randomized(paillier):
    assert paillier.encrypt(7) != paillier.encrypt(7)


def test_homomorphic_addition(paillier, rng):
    a, b = int(rng.integers(-1000, 1000)), int(rng.integers(-1000, 1000))
    c = paillier.add(paillier.encrypt(a), paillier.encrypt(b))
    assert paillier.decrypt(c) == a + b


def test_add_plain(paillier):
    c = paillier.add_plain(paillier.encrypt(10), -25)
    assert paillier.decrypt(c) == -15


def test_mul_plain(paillier):
    c = paillier.mul_plain(paillier.encrypt(-7), 6)
    assert paillier.decrypt(c) == -42


def test_mul_plain_negative_scalar(paillier):
    c = paillier.mul_plain(paillier.encrypt(9), -3)
    assert paillier.decrypt(c) == -27


def test_vector_helpers(paillier):
    cts = paillier.encrypt_vector([1, -2, 3])
    assert paillier.decrypt_vector(cts) == [1, -2, 3]


def test_matvec(paillier, rng):
    import numpy as np

    a = rng.integers(-20, 20, (4, 6))
    v = rng.integers(-20, 20, 6)
    cts = paillier.encrypt_vector(v)
    out = paillier.decrypt_vector(paillier.matvec(a, cts))
    want = list(a.astype(object) @ v.astype(object))
    assert out == want


def test_matvec_shape_check(paillier):
    with pytest.raises(ValueError):
        paillier.matvec([[1, 2]], paillier.encrypt_vector([1, 2, 3]))


@given(
    a=st.integers(min_value=-(1 << 32), max_value=1 << 32),
    b=st.integers(min_value=-(1 << 32), max_value=1 << 32),
    k=st.integers(min_value=-1000, max_value=1000),
)
@settings(max_examples=25, deadline=None)
def test_homomorphism_property(a, b, k):
    p = Paillier(bits=128, seed=3)
    lhs = p.decrypt(p.add(p.encrypt(a), p.encrypt(b)))
    assert lhs == a + b
    assert p.decrypt(p.mul_plain(p.encrypt(a), k)) == a * k
