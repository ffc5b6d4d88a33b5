"""Tests for the Table I PPU operations and the ring laws of the NTT
product, on raw coefficient arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.math.modular import modadd_vec, modinv, modmul_vec, modneg_vec, modsub_vec
from repro.math.ntt import NegacyclicNtt
from repro.math.polynomial import automorph, automorph_permutation, shiftneg
from repro.math.primes import CHAM_Q0
from tests.oracles import negacyclic_convolution_schoolbook

Q = CHAM_Q0
N = 32
RING = NegacyclicNtt(N, Q)


def rand_poly(rng, n=N, q=Q):
    return rng.integers(0, q, n, dtype=np.uint64)


def monomial(exponent, n=N, q=Q):
    """``X^exponent`` written out directly: ``X^N = -1``, period ``2N``."""
    e = exponent % (2 * n)
    out = np.zeros(n, dtype=np.uint64)
    out[e % n] = 1 if e < n else q - 1
    return out


def test_monomial():
    one = monomial(0)
    m = shiftneg(one, 3, Q)
    assert m[3] == 1 and m.sum() == 1
    # X^N == -1
    assert shiftneg(one, N, Q)[0] == Q - 1
    # X^{-1} == -X^{N-1}
    assert shiftneg(one, -1, Q)[N - 1] == Q - 1


# -- ring arithmetic ------------------------------------------------------------------


def test_add_sub_neg(rng):
    a, b = rand_poly(rng), rand_poly(rng)
    assert np.array_equal(modsub_vec(modadd_vec(a, b, Q), b, Q), a)
    assert np.array_equal(modneg_vec(modneg_vec(a, Q), Q), a)
    assert not modsub_vec(a, a, Q).any()


def test_mul_matches_schoolbook(rng):
    a, b = rand_poly(rng), rand_poly(rng)
    want = negacyclic_convolution_schoolbook(a, b, Q)
    assert np.array_equal(RING.multiply(a, b), want)


def test_mul_distributes(rng):
    a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
    lhs = RING.multiply(a, modadd_vec(b, c, Q))
    rhs = modadd_vec(RING.multiply(a, b), RING.multiply(a, c), Q)
    assert np.array_equal(lhs, rhs)


def test_scalar_mul_and_inverse_scalar(rng):
    a = rand_poly(rng)
    three = modmul_vec(a, np.uint64(3), Q)
    assert np.array_equal(modmul_vec(three, np.uint64(modinv(3, Q)), Q), a)
    # a scalar is the constant polynomial
    assert np.array_equal(RING.multiply(monomial(0) * np.uint64(3), a), three)


def test_hadamard(rng):
    a, b = rand_poly(rng), rand_poly(rng)
    got = modmul_vec(a, b, Q)
    want = (a.astype(object) * b.astype(object)) % Q
    assert np.array_equal(got.astype(object), want)


# -- Table I operations -----------------------------------------------------------------


def test_shiftneg_matches_monomial_multiplication(rng):
    a = rand_poly(rng)
    for s in (0, 1, 5, N - 1, N, N + 3, 2 * N, -1, -7):
        assert np.array_equal(shiftneg(a, s, Q), RING.multiply(a, monomial(s))), f"s={s}"


def test_shiftneg_wraparound_negates():
    shifted = shiftneg(monomial(N - 1), 1, Q)  # X^{N-1} * X = -1
    assert shifted[0] == Q - 1


def test_automorph_is_ring_homomorphism(rng):
    a, b = rand_poly(rng), rand_poly(rng)
    for k in (3, 5, N + 1, 2 * N - 1):
        lhs = automorph(RING.multiply(a, b), k, Q)
        rhs = RING.multiply(automorph(a, k, Q), automorph(b, k, Q))
        assert np.array_equal(lhs, rhs), f"k={k}"
        assert np.array_equal(
            automorph(modadd_vec(a, b, Q), k, Q),
            modadd_vec(automorph(a, k, Q), automorph(b, k, Q), Q),
        )


def test_automorph_identity(rng):
    a = rand_poly(rng)
    assert np.array_equal(automorph(a, 1, Q), a)


def test_automorph_composition(rng):
    a = rand_poly(rng)
    assert np.array_equal(automorph(automorph(a, 3, Q), 3, Q), automorph(a, 9 % (2 * N), Q))


def test_automorph_inverse(rng):
    a = rand_poly(rng)
    k = 3
    k_inv = pow(k, -1, 2 * N)
    assert np.array_equal(automorph(automorph(a, k, Q), k_inv, Q), a)


def test_automorph_requires_odd_index(rng):
    a = rand_poly(rng)
    with pytest.raises(ValueError):
        automorph(a, 4, Q)


def test_automorph_permutation_structure():
    src, flip = automorph_permutation(N, 3)
    assert sorted(src) == list(range(N))
    # the map X -> X^3 fixes the constant coefficient with positive sign
    assert src[0] == 0 and not flip[0]


def test_automorph_on_monomial_matches_evaluation():
    """automorph(X^i, k) == ±X^{ik mod N} with sign (-1)^{floor(ik/N)}."""
    for i in (1, 7, N - 1):
        for k in (3, N + 1):
            assert np.array_equal(automorph(monomial(i), k, Q), monomial(i * k)), (i, k)


def test_shiftneg_free_function_negative_and_large(rng):
    a = rng.integers(0, Q, N, dtype=np.uint64)
    assert np.array_equal(shiftneg(a, 2 * N, Q), a)
    assert np.array_equal(
        shiftneg(shiftneg(a, 3, Q), -3, Q), a
    )


# -- hypothesis -----------------------------------------------------------------


@given(
    st.lists(st.integers(min_value=0, max_value=Q - 1), min_size=16, max_size=16),
    st.integers(min_value=-64, max_value=64),
)
@settings(max_examples=60, deadline=None)
def test_shiftneg_period_property(coeffs, s):
    a = np.array(coeffs, dtype=np.uint64)
    # SHIFTNEG has period 2N and SHIFTNEG by N is global negation
    out1 = shiftneg(a, s, Q)
    out2 = shiftneg(a, s + 32, Q)
    assert np.array_equal(out1, shiftneg(shiftneg(a, s + 16, Q), -16 % 32, Q))
    assert np.array_equal(out1, out2)
