"""Property-based tests over the HE layer's algebraic laws.

Hypothesis drives random messages/shapes through the real pipeline and
checks the ring-homomorphism laws that every downstream protocol relies
on.  These complement the per-module unit tests: a unit test pins one
behaviour; these pin the *algebra*.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he.encoder import CoefficientEncoder
from repro.he.rlwe import decrypt, encrypt

N = 128

small_vecs = st.lists(
    st.integers(min_value=-(1 << 18), max_value=1 << 18), min_size=N, max_size=N
)


@pytest.fixture(scope="module")
def enc(params128):
    return CoefficientEncoder(params128)


@given(a=small_vecs, b=small_vecs)
@settings(max_examples=15, deadline=None)
def test_addition_is_homomorphic(ctx128, sk128, enc, a, b):
    av, bv = np.array(a), np.array(b)
    ct = encrypt(ctx128, sk128, enc.encode_coeffs(av), augmented=False) + encrypt(
        ctx128, sk128, enc.encode_coeffs(bv), augmented=False
    )
    assert np.array_equal(decrypt(ctx128, sk128, ct).centered(), av + bv)


@given(a=small_vecs, k=st.integers(min_value=-64, max_value=64))
@settings(max_examples=15, deadline=None)
def test_scalar_mult_is_homomorphic(ctx128, sk128, enc, a, k):
    av = np.array(a)
    ct = encrypt(ctx128, sk128, enc.encode_coeffs(av), augmented=False)
    # a scalar is the constant plaintext k, embedded centered, so the
    # noise grows by |k|, not by the huge positive residue k mod t
    got = decrypt(ctx128, sk128, ct.multiply_plain(enc.encode_coeffs([k]))).centered()
    t = ctx128.t
    want = np.array([((int(x) * k) % t) for x in av], dtype=object)
    half = t // 2
    want = np.where(want > half, want - t, want)
    assert np.array_equal(got.astype(object), want)


@given(
    a=st.lists(st.integers(min_value=-200, max_value=200), min_size=N, max_size=N),
    b=st.lists(st.integers(min_value=-200, max_value=200), min_size=N, max_size=N),
    c=st.lists(st.integers(min_value=-200, max_value=200), min_size=N, max_size=N),
)
@settings(max_examples=8, deadline=None)
def test_plain_mult_distributes_over_addition(ctx128, sk128, enc, a, b, c):
    """Enc(a) * (b + c) == Enc(a)*b + Enc(a)*c (up to exact decryption)."""
    av, bv, cv = np.array(a), np.array(b), np.array(c)
    ct = encrypt(ctx128, sk128, enc.encode_coeffs(av), augmented=True)
    lhs = ct.multiply_plain(enc.encode_coeffs((bv + cv))).rescale()
    rhs = (
        ct.multiply_plain(enc.encode_coeffs(bv)).rescale()
        + ct.multiply_plain(enc.encode_coeffs(cv)).rescale()
    )
    assert decrypt(ctx128, sk128, lhs) == decrypt(ctx128, sk128, rhs)


@given(
    m=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=8, deadline=None)
def test_hmvp_linearity(scheme128, m, seed):
    """HMVP(A, u + v) == HMVP(A, u) + HMVP(A, v) elementwise."""
    from repro.core.batch import BatchedHmvp, EncodedMatrixCache

    r = np.random.default_rng(seed)
    a = r.integers(-40, 40, (m, N))
    u = r.integers(-40, 40, N)
    v = r.integers(-40, 40, N)
    engine = BatchedHmvp(scheme128, a, cache=EncodedMatrixCache())
    lhs, rhs_u, rhs_v = (
        res.decrypt(scheme128)
        for res in engine.multiply_batch(
            [scheme128.encrypt_vector(x) for x in (u + v, u, v)]
        )
    )
    assert np.array_equal(lhs, rhs_u + rhs_v)


@given(seed=st.integers(min_value=0, max_value=2**20))
@settings(max_examples=8, deadline=None)
def test_pack_order_independence(scheme128, seed):
    """Slot i of a pack always carries input i, for random subsets."""
    r = np.random.default_rng(seed)
    count = int(r.integers(1, 9))
    values = r.integers(-500, 500, count)
    lwes = []
    for v in values:
        coeffs = r.integers(-500, 500, N)
        coeffs[0] = v
        ct = scheme128.encrypt_plaintext(
            scheme128.encoder.encode_coeffs(coeffs), augmented=False
        )
        lwes.append(scheme128.extract(ct, 0))
    packed = scheme128.pack(lwes)
    got = scheme128.decrypt_packed(packed)
    assert [int(x) for x in got] == [int(v) for v in values]


@given(
    g=st.sampled_from([3, 5, 9, 17, 33, 65, 129]),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=10, deadline=None)
def test_automorphism_commutes_with_addition(ctx128, sk128, galois128, enc, g, seed):
    from repro.he.automorphism import apply_automorphism

    r = np.random.default_rng(seed)
    a = r.integers(-300, 300, N)
    b = r.integers(-300, 300, N)
    ct_a = encrypt(ctx128, sk128, enc.encode_coeffs(a), augmented=False)
    ct_b = encrypt(ctx128, sk128, enc.encode_coeffs(b), augmented=False)
    lhs = apply_automorphism(ct_a + ct_b, g, galois128)
    rhs = apply_automorphism(ct_a, g, galois128) + apply_automorphism(
        ct_b, g, galois128
    )
    assert decrypt(ctx128, sk128, lhs) == decrypt(ctx128, sk128, rhs)


@given(seed=st.integers(min_value=0, max_value=2**20))
@settings(max_examples=6, deadline=None)
def test_tiled_hmvp_random_shapes(scheme128, seed):
    from repro.core.batch import BatchedHmvp, encrypt_tiles
    from tests.oracles import hmvp_oracle

    r = np.random.default_rng(seed)
    m = int(r.integers(1, 40))
    n = int(r.integers(1, 300))
    a = r.integers(-20, 20, (m, n))
    v = r.integers(-20, 20, n)
    ct_tiles = encrypt_tiles(scheme128, v)
    got = BatchedHmvp.once(scheme128, a, ct_tiles)
    assert np.array_equal(got.decrypt(scheme128), a.astype(object) @ v.astype(object))
    # and the packed ciphertext is the scalar oracle's, limb for limb
    want = hmvp_oracle(scheme128, a, ct_tiles).packs[0].ct
    assert np.array_equal(got.packs[0].ct.c0, want.c0)
    assert np.array_equal(got.packs[0].ct.c1, want.c1)
