"""Property-based correctness suite for the HE-facing core (ISSUE 3).

Complements :mod:`tests.test_math_properties` (ring axioms at full
length, Galois group, RNS isomorphism) with the properties the serving
stack leans on directly:

* NTT/INTT are mutually inverse and agree with the O(n²) schoolbook
  negacyclic convolution, over **both** CHAM ciphertext moduli;
* the wire format's ``pack_limbs``/``unpack_limbs`` is a byte-exact
  round-trip at each modulus's bit width;
* the NTT product's ring axioms hold for operands of random effective
  degree < N (short polynomials zero-padded), not only dense ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he.serialization import pack_limbs, unpack_limbs
from repro.math.modular import modadd_vec, modneg_vec
from repro.math.ntt import NegacyclicNtt
from repro.math.primes import CHAM_Q0, CHAM_Q1
from tests.oracles import negacyclic_convolution_schoolbook

N = 32
CT_MODULI = (CHAM_Q0, CHAM_Q1)

modulus = st.sampled_from(CT_MODULI)


def coeffs(q, min_size=N, max_size=N):
    return st.lists(
        st.integers(min_value=0, max_value=q - 1),
        min_size=min_size,
        max_size=max_size,
    )


def _pad(vals, q):
    """Zero-pad a (possibly short) coefficient list to length N."""
    arr = np.zeros(N, dtype=np.uint64)
    arr[: len(vals)] = np.asarray(vals, dtype=np.uint64)
    return arr


# -- NTT / INTT round-trips over both ciphertext moduli -------------------


@given(q=modulus, data=st.data())
@settings(max_examples=40, deadline=None)
def test_intt_inverts_ntt(q, data):
    a = _pad(data.draw(coeffs(q)), q)
    ring = NegacyclicNtt(N, q)
    assert np.array_equal(ring.inverse(ring.forward(a)), a)


@given(q=modulus, data=st.data())
@settings(max_examples=40, deadline=None)
def test_ntt_inverts_intt(q, data):
    """The transforms invert in both compositions (bit-reversed domain
    values are arbitrary residues, so this is not implied by the other
    direction)."""
    a = _pad(data.draw(coeffs(q)), q)
    ring = NegacyclicNtt(N, q)
    assert np.array_equal(ring.forward(ring.inverse(a)), a)


@given(q=modulus, data=st.data())
@settings(max_examples=20, deadline=None)
def test_ntt_multiply_matches_schoolbook(q, data):
    a = _pad(data.draw(coeffs(q, min_size=1, max_size=N)), q)
    b = _pad(data.draw(coeffs(q, min_size=1, max_size=N)), q)
    ctx = NegacyclicNtt(N, q)
    assert np.array_equal(
        ctx.multiply(a, b), negacyclic_convolution_schoolbook(a, b, q)
    )


@given(q=modulus, data=st.data())
@settings(max_examples=10, deadline=None)
def test_ntt_batches_along_leading_axes(q, data):
    rows = [_pad(data.draw(coeffs(q)), q) for _ in range(3)]
    stacked = np.stack(rows)
    ring = NegacyclicNtt(N, q)
    batched = ring.inverse(ring.forward(stacked))
    for row, out in zip(rows, batched):
        assert np.array_equal(out, row)


# -- wire-format round-trip ------------------------------------------------


@given(data=st.data(), n=st.sampled_from([1, 7, 32, 64]))
@settings(max_examples=30, deadline=None)
def test_pack_unpack_limbs_round_trip(data, n):
    limbs = np.stack(
        [
            np.array(
                data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=q - 1),
                        min_size=n,
                        max_size=n,
                    )
                ),
                dtype=np.uint64,
            )
            for q in CT_MODULI
        ]
    )
    blob = pack_limbs(limbs, CT_MODULI)
    out, consumed = unpack_limbs(blob, CT_MODULI, n)
    assert consumed == len(blob)
    assert np.array_equal(out, limbs)
    # re-packing the decoded limbs is byte-identical (canonical encoding)
    assert pack_limbs(out, CT_MODULI) == blob


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_pack_limbs_width_is_modulus_bits(data):
    n = 16
    limbs = np.stack(
        [
            np.array(
                data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=q - 1),
                        min_size=n,
                        max_size=n,
                    )
                ),
                dtype=np.uint64,
            )
            for q in CT_MODULI
        ]
    )
    expected = sum(((q - 1).bit_length() * n + 7) // 8 for q in CT_MODULI)
    assert len(pack_limbs(limbs, CT_MODULI)) == expected


# -- ring axioms with random effective degree ------------------------------


@given(
    q=modulus,
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_ring_axioms_hold_for_sparse_operands(q, data):
    """Short (degree < N) operands exercise the zero-coefficient paths
    the dense full-length suite never touches."""
    a = data.draw(coeffs(q, min_size=1, max_size=N))
    b = data.draw(coeffs(q, min_size=1, max_size=N))
    c = data.draw(coeffs(q, min_size=1, max_size=N))
    pa, pb, pc = _pad(a, q), _pad(b, q), _pad(c, q)
    mul = NegacyclicNtt(N, q).multiply

    def add(x, y):
        return modadd_vec(x, y, q)

    assert np.array_equal(mul(pa, pb), mul(pb, pa))
    assert np.array_equal(mul(mul(pa, pb), pc), mul(pa, mul(pb, pc)))
    assert np.array_equal(mul(pa, add(pb, pc)), add(mul(pa, pb), mul(pa, pc)))
    one = _pad([1], q)
    zero = np.zeros(N, dtype=np.uint64)
    assert np.array_equal(mul(pa, one), pa)
    assert np.array_equal(add(pa, zero), pa)
    assert np.array_equal(add(pa, modneg_vec(pa, q)), zero)


@given(q=modulus, data=st.data(), k=st.integers(min_value=0, max_value=N - 1))
@settings(max_examples=25, deadline=None)
def test_monomial_multiplication_is_negacyclic_shift(q, data, k):
    """x^k · a(x) rotates coefficients with sign wrap — the identity
    the coefficient-encoded HMVP (paper Eq. 1) is built on."""
    a = data.draw(coeffs(q, min_size=1, max_size=N))
    pa = _pad(a, q)
    mono = np.zeros(N, dtype=np.uint64)
    mono[k] = 1
    shifted = NegacyclicNtt(N, q).multiply(pa, mono)
    dense = np.asarray(pa, dtype=object)
    want = np.zeros(N, dtype=object)
    for i in range(N):
        j = i + k
        if j < N:
            want[j] += int(dense[i])
        else:
            want[j - N] -= int(dense[i])
    assert np.array_equal(shifted, np.asarray(np.mod(want, q), dtype=np.uint64))
