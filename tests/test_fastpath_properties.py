"""Differential property suite for the kernel fast paths.

Every optimized kernel in this repo has a slow, obviously-correct
counterpart in ``tests/oracles.py``:

* ``modmul_vec`` (float-Barrett, unsigned-min selection) vs
  ``modmul_vec_split`` (the 20-bit split-operand formula);
* ``modadd_vec`` / ``modsub_vec`` (unsigned-min selection) vs plain
  Python-int modular arithmetic;
* ``key_switch_raw`` (fused-limb, one NTT sweep, combined key stack) vs
  ``key_switch_raw_loop`` (the original per-digit / per-limb double
  loop).

The contract everywhere is *bit identity*, not approximate agreement:
HE noise analysis and the golden-vector tests both assume the RNS limbs
are exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he.keyswitch import key_switch_raw
from repro.math.modular import (
    MAX_MODULUS_BITS,
    modadd_vec,
    modmul_vec,
    modsub_vec,
)
from tests.oracles import key_switch_raw_loop, modmul_vec_split

# Odd moduli spanning the supported widths, including the paper's 39-bit
# key-switch prime and the maximum 41-bit width where the float-Barrett
# error bound is tightest.
_moduli = st.integers(min_value=1 << 38, max_value=(1 << MAX_MODULUS_BITS) - 1).map(
    lambda q: q | 1
)


def _arrays(rng_seed: int, q: int, size: int = 64):
    rng = np.random.default_rng(rng_seed)
    a = rng.integers(0, q, size, dtype=np.uint64)
    b = rng.integers(0, q, size, dtype=np.uint64)
    return a, b


# -- Barrett vs split oracle ---------------------------------------------------


@given(q=_moduli, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_barrett_matches_split_oracle(q, seed):
    a, b = _arrays(seed, q)
    assert np.array_equal(modmul_vec(a, b, q), modmul_vec_split(a, b, q))


@given(q=_moduli)
@settings(max_examples=100, deadline=None)
def test_barrett_worst_case_operands(q):
    """(q-1)^2 maximizes the quotient and therefore the float estimate's
    absolute error — the exact corner the min-trick proof covers."""
    edge = np.array([q - 1, q - 1, 1, 0], dtype=np.uint64)
    rev = edge[::-1].copy()
    assert np.array_equal(
        modmul_vec(edge, rev, q), modmul_vec_split(edge, rev, q)
    )
    sq = np.full(8, q - 1, dtype=np.uint64)
    assert np.array_equal(
        modmul_vec(sq, sq, q), modmul_vec_split(sq, sq, q)
    )


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_barrett_column_modulus_matches_per_limb(seed):
    """An array-modulus column reduces each leading slice by its own
    modulus, bit-identically to per-limb scalar calls."""
    qs = np.array(
        [(1 << 38) + 7, (1 << 39) + 21, (1 << MAX_MODULUS_BITS) - 21],
        dtype=np.uint64,
    )
    rng = np.random.default_rng(seed)
    a = np.stack([rng.integers(0, q, 32, dtype=np.uint64) for q in qs])
    b = np.stack([rng.integers(0, q, 32, dtype=np.uint64) for q in qs])
    got = modmul_vec(a, b, qs.reshape(-1, 1))
    for i, q in enumerate(qs):
        assert np.array_equal(got[i], modmul_vec_split(a[i], b[i], int(q)))


_QS = np.array(
    [(1 << 38) + 7, (1 << 39) + 21, (1 << MAX_MODULUS_BITS) - 21], dtype=np.uint64
)


@pytest.mark.parametrize(
    "a_shape, b_shape, q_shape",
    [
        # the dot stage's MULTPOLY: rows against both request components
        ((3, 1, 1, 8, 16), (3, 2, 1, 1, 16), (3, 1, 1, 1, 1)),
        ((3, 2, 1, 1, 16), (3, 1, 1, 8, 16), (3, 1, 1, 1, 1)),
        # the modulus column alone adds the limb axis
        ((16,), (16,), (3, 1)),
        ((1, 16), (2, 16), (3, 1, 1)),
        # a 0-d operand (the NTT tables' doubling passes an np.uint64)
        ((), (3, 16), (3, 1)),
        ((3, 16), (), (3, 1)),
        ((), (), (3, 1)),
    ],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_barrett_broadcast_shapes_match_split_oracle(a_shape, b_shape, q_shape, seed):
    """The in-place Barrett allocates for the broadcast of both operands
    and the modulus, and reduces every limb slice by its own modulus."""
    rng = np.random.default_rng(seed)
    q = _QS.reshape(q_shape)
    # below the smallest modulus, so every operand is reduced for every limb
    a = rng.integers(0, _QS[0], a_shape, dtype=np.uint64)
    b = rng.integers(0, _QS[0], b_shape, dtype=np.uint64)
    got = modmul_vec(a, b, q)
    shape = np.broadcast_shapes(a.shape, b.shape, q.shape)
    assert got.shape == shape and got.dtype == np.uint64
    a_full, b_full = np.broadcast_to(a, shape), np.broadcast_to(b, shape)
    for i, qi in enumerate(_QS):
        assert np.array_equal(got[i], modmul_vec_split(a_full[i], b_full[i], int(qi)))


def test_barrett_scalar_operands_give_a_scalar():
    q = int(_QS[2])
    got = modmul_vec(np.uint64(q - 1), np.uint64(q - 2), q)
    assert np.ndim(got) == 0 and got.dtype == np.uint64
    assert int(got) == (q - 1) * (q - 2) % q


# -- unsigned-min add/sub vs Python-int reference ------------------------------


@given(q=_moduli, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_unsigned_min_addsub_match_reference(q, seed):
    a, b = _arrays(seed, q, size=32)
    ref_add = np.array([(int(x) + int(y)) % q for x, y in zip(a, b)], np.uint64)
    ref_sub = np.array([(int(x) - int(y)) % q for x, y in zip(a, b)], np.uint64)
    assert np.array_equal(modadd_vec(a, b, q), ref_add)
    assert np.array_equal(modsub_vec(a, b, q), ref_sub)


@given(q=_moduli)
@settings(max_examples=100, deadline=None)
def test_unsigned_min_addsub_edge_operands(q):
    """0 and q-1 exercise both branches of the min selection: the sum at
    exactly q must reduce to 0 and the difference at 0 must stay 0."""
    top = np.array([q - 1, q - 1, 0, 1], dtype=np.uint64)
    bot = np.array([1, 0, 0, q - 1], dtype=np.uint64)
    assert [int(v) for v in modadd_vec(top, bot, q)] == [0, q - 1, 0, 0]
    assert [int(v) for v in modsub_vec(top, bot, q)] == [q - 2, q - 1, 0, 2]


# -- fused key-switch vs the double-loop oracle --------------------------------


def _random_limb_stack(ctx, rng, batch_shape=()):
    basis = ctx.ct_basis
    shape = batch_shape + (ctx.n,)
    return np.stack(
        [rng.integers(0, q, shape, dtype=np.uint64) for q in basis]
    )


@pytest.fixture(scope="module")
def ks_fixture(ctx128, sk128):
    from repro.he.keys import generate_keyswitch_key, generate_secret_key

    other = generate_secret_key(ctx128)
    return generate_keyswitch_key(ctx128, other, sk128)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_fused_keyswitch_bit_identical_to_loop(ctx128, ks_fixture, seed):
    rng = np.random.default_rng(seed)
    c = _random_limb_stack(ctx128, rng)
    d0_f, d1_f = key_switch_raw(ctx128, c, ks_fixture)
    d0_l, d1_l = key_switch_raw_loop(ctx128, c, ks_fixture)
    for limb in range(d0_f.shape[0]):
        assert np.array_equal(d0_f[limb], d0_l[limb])
        assert np.array_equal(d1_f[limb], d1_l[limb])


@pytest.mark.parametrize("batch_shape", [(3,), (2, 4)])
def test_fused_keyswitch_batched_matches_loop(ctx128, ks_fixture, batch_shape):
    """Batched (L, *batch, n) stacks must equal the loop oracle run on
    every polynomial of the stack individually."""
    rng = np.random.default_rng(7)
    c = _random_limb_stack(ctx128, rng, batch_shape)
    d0_f, d1_f = key_switch_raw(ctx128, c, ks_fixture)
    flat = c.reshape(c.shape[0], -1, ctx128.n)
    f0 = d0_f.reshape(d0_f.shape[0], -1, ctx128.n)
    f1 = d1_f.reshape(d1_f.shape[0], -1, ctx128.n)
    for j in range(flat.shape[1]):
        d0_l, d1_l = key_switch_raw_loop(ctx128, flat[:, j], ks_fixture)
        assert np.array_equal(f0[:, j], d0_l)
        assert np.array_equal(f1[:, j], d1_l)
