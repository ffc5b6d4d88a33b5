"""Tests for PACKTWOLWES / PACKLWES (Algorithms 2 and 3).

The stacked level-order tree (``repro.he.packing``) is checked byte for
byte against the recursive pack of ``tests/oracles.py``.
"""

import numpy as np
import pytest

from repro.he.encoder import CoefficientEncoder
from repro.he.lwe import extract_lwe
from repro.he.noise import invariant_noise_budget, packed_slot_positions
from repro.he.packing import (
    _pack_tree,
    pack_lwes,
    pack_stacked_lwes,
)
from repro.he.rlwe import encrypt
from repro.core.hmvp import HmvpOpCount
from tests.oracles import pack_lwes_recursive, pack_two_lwes


def pack_reduction_count(count):
    """PACKTWOLWES calls to pack ``count`` LWEs, as the engine prices them."""
    return HmvpOpCount.for_pack(count, limbs=2, limbs_aug=3).pack_reductions


@pytest.fixture(scope="module")
def enc(params128):
    return CoefficientEncoder(params128)


def make_lwes(ctx, sk, enc, values, rng):
    """One LWE per value, each extracted from a fresh RLWE ciphertext."""
    out = []
    for v in values:
        coeffs = rng.integers(-1000, 1000, 128)
        coeffs[0] = v
        ct = encrypt(ctx, sk, enc.encode_coeffs(coeffs), augmented=False)
        out.append(extract_lwe(ct, 0))
    return out


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 8, 16, 128])
def test_pack_roundtrip(ctx128, sk128, galois128, enc, rng, count):
    values = [int(v) for v in rng.integers(-1000, 1000, count)]
    lwes = make_lwes(ctx128, sk128, enc, values, rng)
    packed = pack_lwes(lwes, galois128)
    from repro.he.rlwe import decrypt

    pt = decrypt(ctx128, sk128, packed.ct)
    got = enc.decode_packed(pt, count, packed.scale_pow2)
    assert [int(x) for x in got] == values


@pytest.mark.parametrize("count,expected", [(1, 0), (2, 1), (3, 3), (4, 3), (5, 7), (4096, 4095)])
def test_reduction_count(count, expected):
    """The paper: 'Totally 4095 reductions are required to pack 4096'."""
    assert pack_reduction_count(count) == expected


def test_pack_reports_actual_reductions(ctx128, sk128, galois128, enc, rng):
    lwes = make_lwes(ctx128, sk128, enc, [1, 2, 3, 4, 5], rng)
    packed = pack_lwes(lwes, galois128)
    assert packed.reductions == pack_reduction_count(5) == 7
    assert packed.count == 5
    assert packed.scale_pow2 == 3


def test_pack_slot_stride(ctx128, sk128, galois128, enc, rng):
    lwes = make_lwes(ctx128, sk128, enc, [1, 2, 3, 4], rng)
    packed = pack_lwes(lwes, galois128)
    assert 128 >> packed.scale_pow2 == 128 // 4
    assert packed_slot_positions(128, 4) == [0, 32, 64, 96]


def test_pack_empty_raises(galois128):
    with pytest.raises(ValueError):
        pack_lwes([], galois128)


def test_pack_too_many_raises(ctx128, sk128, galois128, enc, rng):
    lwes = make_lwes(ctx128, sk128, enc, [0], rng) * 129
    with pytest.raises(ValueError, match="ring degree"):
        pack_lwes(lwes, galois128)


def test_pack_two_level_bound(ctx128, sk128, galois128, enc, rng):
    """The oracle merge refuses a level past log2(n)."""
    lwes = make_lwes(ctx128, sk128, enc, [1, 2], rng)
    from repro.he.lwe import lwe_to_rlwe

    a, b = lwe_to_rlwe(lwes[0]), lwe_to_rlwe(lwes[1])
    with pytest.raises(ValueError, match="level"):
        pack_two_lwes(8, a, b, galois128)  # 2^8 > n=128


def test_pack_scale_is_power_of_two_per_level(ctx128, sk128, galois128, enc, rng):
    """Each merge doubles the message: packing 2^k scales by exactly 2^k."""
    values = [17]
    lwes = make_lwes(ctx128, sk128, enc, values, rng)
    single = pack_lwes(lwes, galois128)
    assert single.scale_pow2 == 0

    values = [17, -5]
    lwes = make_lwes(ctx128, sk128, enc, values, rng)
    packed = pack_lwes(lwes, galois128)
    from repro.he.rlwe import decrypt

    pt = decrypt(ctx128, sk128, packed.ct)
    raw = pt.centered()
    assert raw[0] == 2 * 17  # undecoded slot carries the doubled value
    assert raw[64] == 2 * -5


def test_pack_budget_stays_positive(ctx128, sk128, galois128, enc, rng):
    """After a full 128-way pack the slot budget must still be healthy."""
    values = [int(v) for v in rng.integers(-1000, 1000, 128)]
    lwes = make_lwes(ctx128, sk128, enc, values, rng)
    packed = pack_lwes(lwes, galois128)
    pos = packed_slot_positions(128, 128)
    budget = invariant_noise_budget(ctx128, sk128, packed.ct, pos)
    assert budget > 5


def test_pack_zero_padding_is_exact(ctx128, sk128, galois128, enc, rng):
    """Non-power-of-two counts pad with transparent zeros; the padded
    slots decode to exactly zero."""
    values = [3, 1, 4]
    lwes = make_lwes(ctx128, sk128, enc, values, rng)
    packed = pack_lwes(lwes, galois128)
    from repro.he.rlwe import decrypt

    pt = decrypt(ctx128, sk128, packed.ct)
    got4 = enc.decode_packed(pt, 4, packed.scale_pow2)
    assert [int(x) for x in got4] == [3, 1, 4, 0]


# -- the stacked (vectorized level-order) tree against the oracle ---------------


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 8, 16])
def test_batched_pack_bit_identical(ctx128, sk128, galois128, enc, rng, count):
    """pack_lwes must reproduce the recursive oracle byte-for-byte:
    same merge tree, same slot order, same noise."""
    values = [int(v) for v in rng.integers(-1000, 1000, count)]
    lwes = make_lwes(ctx128, sk128, enc, values, rng)
    ref = pack_lwes_recursive(lwes, galois128)
    got = pack_lwes(lwes, galois128)
    assert np.array_equal(got.ct.c0, ref.ct.c0)
    assert np.array_equal(got.ct.c1, ref.ct.c1)
    assert got.count == ref.count
    assert got.scale_pow2 == ref.scale_pow2
    assert got.reductions == ref.reductions == pack_reduction_count(count)


@pytest.mark.parametrize("count", [1, 3, 5, 16])
def test_batched_pack_decodes(ctx128, sk128, galois128, enc, rng, count):
    """Edge-case audit: m = 1 (no merge), non-power-of-two remainders
    (m = 3, 5, as left by a 4096-row matrix tiled into 128-row packs),
    and a full power of two all decode with the stride/scale implied by
    pack_reduction_count's level count."""
    values = [int(v) for v in rng.integers(-1000, 1000, count)]
    lwes = make_lwes(ctx128, sk128, enc, values, rng)
    packed = pack_lwes(lwes, galois128)
    levels = max(count - 1, 0).bit_length()
    assert packed.scale_pow2 == levels
    from repro.he.rlwe import decrypt

    pt = decrypt(ctx128, sk128, packed.ct)
    got = enc.decode_packed(pt, count, packed.scale_pow2)
    assert [int(x) for x in got] == values


def test_batched_pack_empty_raises(ctx128, galois128):
    basis = ctx128.ct_basis
    b = np.zeros((len(basis), 0), dtype=np.uint64)
    a = np.zeros((len(basis), 0, 128), dtype=np.uint64)
    with pytest.raises(ValueError, match="nothing to pack"):
        pack_stacked_lwes(ctx128, basis, b, a, galois128)


def test_batched_pack_too_many_raises(ctx128, galois128):
    basis = ctx128.ct_basis
    b = np.zeros((len(basis), 129), dtype=np.uint64)
    a = np.zeros((len(basis), 129, 128), dtype=np.uint64)
    with pytest.raises(ValueError, match="ring degree"):
        pack_stacked_lwes(ctx128, basis, b, a, galois128)


@pytest.mark.parametrize("reqs,count", [(1, 4), (3, 4), (4, 7), (17, 8)])
def test_pack_many_matches_per_request(ctx128, sk128, galois128, enc, rng, reqs, count):
    """Cross-request pack: the tree over R stacked requests must return,
    for every request, exactly the ciphertext pack_stacked_lwes yields
    when run on that request alone — the R pack trees share one level
    schedule (and its pair slices) but must not mix data across the
    request axis."""
    basis = ctx128.ct_basis
    b = np.stack(
        [
            np.stack(
                [rng.integers(0, q, count, dtype=np.uint64) for q in basis]
            )
            for _ in range(reqs)
        ],
        axis=1,
    )  # (L, R, m)
    a = np.stack(
        [
            np.stack(
                [rng.integers(0, q, (count, 128), dtype=np.uint64) for q in basis]
            )
            for _ in range(reqs)
        ],
        axis=1,
    )  # (L, R, m, n)
    many = _pack_tree(ctx128, basis, b, a, galois128)
    assert len(many) == reqs
    for r in range(reqs):
        one = pack_stacked_lwes(ctx128, basis, b[:, r], a[:, r], galois128)
        assert np.array_equal(many[r].ct.c0, one.ct.c0)
        assert np.array_equal(many[r].ct.c1, one.ct.c1)
        assert many[r].count == one.count == count
        assert many[r].scale_pow2 == one.scale_pow2
        assert many[r].reductions == one.reductions


def test_pack_many_rejects_flat_stack(ctx128, galois128):
    basis = ctx128.ct_basis
    b = np.zeros((len(basis), 4), dtype=np.uint64)
    a = np.zeros((len(basis), 4, 128), dtype=np.uint64)
    with pytest.raises(ValueError, match=r"\(L, R, m\)"):
        _pack_tree(ctx128, basis, b, a, galois128)


def test_batched_keyswitch_matches_sequential(ctx128, sk128, galois128, rng):
    """key_switch_raw over a (L, batch, n) stack equals per-poly calls."""
    from repro.he.keyswitch import key_switch_raw

    g = next(iter(galois128.keys))
    ksk = galois128[g]
    basis = ctx128.ct_basis
    stack = np.stack(
        [
            np.stack(
                [rng.integers(0, q, 128, dtype=np.uint64) for q in basis]
            )
            for _ in range(4)
        ],
        axis=1,
    )  # (L, 4, n)
    d0_b, d1_b = key_switch_raw(ctx128, stack, ksk)
    for j in range(4):
        d0, d1 = key_switch_raw(ctx128, stack[:, j], ksk)
        assert np.array_equal(d0_b[:, j], d0)
        assert np.array_equal(d1_b[:, j], d1)
