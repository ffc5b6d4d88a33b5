"""Differential HMVP test: three implementations, one answer.

For randomized shapes — non-power-of-two row counts and the single-row
edge case included — the engine
(:meth:`repro.core.batch.BatchedHmvp.multiply_batch`), the scalar
per-row Algorithm-1 oracle (``tests/oracles.py``) and the plaintext
oracle ``A @ v (mod t, centered)`` must agree exactly.  Any divergence
localizes the bug: engine != scalar is the stacking/caching/fan-out
layer, scalar != plaintext is the HE pipeline itself.  On every shape
the cluster tests use (``m > N`` included) the engine's packed
ciphertexts must also equal the scalar oracle's per RNS limb.
"""

import numpy as np
import pytest

from repro.core.batch import BatchedHmvp, EncodedMatrixCache, encrypt_tiles
from tests.oracles import hmvp_oracle
from tests.test_cluster_differential import SHAPES as CLUSTER_SHAPES
from tests.test_cluster_differential import _limb_digests

#: (rows, number of vectors) — non-power-of-two and single-row on purpose
SHAPES = [(1, 2), (3, 1), (5, 3), (7, 2), (8, 2), (13, 1)]


def _centered_mod(values, t):
    """Reduce exact integers into the centered residue system mod t."""
    half = t // 2
    return [((int(v) + half) % t) - half for v in values]


def _oracle(matrix, vector, t):
    exact = matrix.astype(object) @ vector.astype(object)
    return _centered_mod(exact, t)


@pytest.mark.parametrize("rows,count", SHAPES)
def test_batch_vs_scalar_vs_plain(scheme128, rows, count):
    rng = np.random.default_rng(0xD1FF + rows * 31 + count)
    cols = scheme128.params.n
    t = scheme128.params.plain_modulus
    matrix = rng.integers(-200, 200, (rows, cols))
    vectors = [rng.integers(-200, 200, cols) for _ in range(count)]
    cts = [scheme128.encrypt_vector(v) for v in vectors]

    engine = BatchedHmvp(scheme128, matrix)
    batched = engine.multiply_batch(cts)
    assert len(batched) == count
    for i, (vector, ct) in enumerate(zip(vectors, cts)):
        want = _oracle(matrix, vector, t)
        got_batch = batched[i].decrypt(scheme128)[:rows]
        got_scalar = hmvp_oracle(scheme128, matrix, [ct]).decrypt(scheme128)[:rows]
        assert _centered_mod(got_batch, t) == want, f"batch path, vec {i}"
        assert _centered_mod(got_scalar, t) == want, f"scalar path, vec {i}"


def test_agreement_with_plaintext_wraparound(scheme128):
    """Entries large enough that some dot products exceed t/2: all three
    implementations must wrap identically (centered residues)."""
    rng = np.random.default_rng(0xD1FF_FFFF)
    cols = scheme128.params.n
    t = scheme128.params.plain_modulus
    bound = int(np.sqrt(t // cols)) * 4  # pushes some sums past t/2
    matrix = rng.integers(-bound, bound, (4, cols))
    vector = rng.integers(-bound, bound, cols)
    ct = scheme128.encrypt_vector(vector)

    want = _oracle(matrix, vector, t)
    engine = BatchedHmvp(scheme128, matrix)
    got_batch = engine.multiply_batch([ct])[0].decrypt(scheme128)[:4]
    got_scalar = hmvp_oracle(scheme128, matrix, [ct]).decrypt(scheme128)[:4]
    assert _centered_mod(got_batch, t) == want
    assert _centered_mod(got_scalar, t) == want


def test_batch_is_order_independent(scheme128):
    """Reversing the batch order permutes the outputs, nothing else —
    requests are independent (no cross-request state)."""
    rng = np.random.default_rng(0xD1FF_0123)
    cols = scheme128.params.n
    matrix = rng.integers(-50, 50, (5, cols))
    vectors = [rng.integers(-50, 50, cols) for _ in range(3)]
    cts = [scheme128.encrypt_vector(v) for v in vectors]

    engine = BatchedHmvp(scheme128, matrix)
    fwd = [r.decrypt(scheme128)[:5].tolist() for r in engine.multiply_batch(cts)]
    rev = [
        r.decrypt(scheme128)[:5].tolist()
        for r in engine.multiply_batch(list(reversed(cts)))
    ]
    assert fwd == list(reversed(rev))


@pytest.mark.parametrize("rows,cols", CLUSTER_SHAPES)
def test_engine_matches_scalar_oracle_per_limb(scheme128, rows, cols):
    """Every pack the engine emits — one per row tile, so two at
    160x128 — is the scalar oracle's ciphertext, limb for limb, through
    all three request paths (resident, one-shot and batched groups)."""
    rng = np.random.default_rng(0xD1FF_0456 + rows * 37 + cols)
    matrix = rng.integers(-100, 100, (rows, cols))
    ct_tiles = encrypt_tiles(scheme128, rng.integers(-100, 100, cols))
    want = _limb_digests(hmvp_oracle(scheme128, matrix, ct_tiles))
    cache = EncodedMatrixCache()
    engine = BatchedHmvp(scheme128, matrix, cache=cache)
    assert _limb_digests(engine.multiply_tiles(ct_tiles)) == want
    assert _limb_digests(BatchedHmvp.once(scheme128, matrix, ct_tiles)) == want
    if len(ct_tiles) == 1:
        # a different request between two copies: no mixing across the
        # request axis of a group, nor across pool tasks
        other_v = rng.integers(-100, 100, cols)
        pooled = BatchedHmvp(scheme128, matrix, cache=cache, workers=2)
        batch = pooled.multiply_batch(
            [ct_tiles[0], scheme128.encrypt_vector(other_v), ct_tiles[0]]
        )
        assert _limb_digests(batch[0]) == _limb_digests(batch[2]) == want
        t = scheme128.params.plain_modulus
        assert _centered_mod(batch[1].decrypt(scheme128), t) == _oracle(
            matrix, other_v, t
        )


def test_row_tiles_match_scalar_oracle_per_limb(scheme128):
    """Row tiles are N rows: an (N + 4)-row matrix packs N rows, then an
    uneven last tile of 4, where the oracle cuts them."""
    rng = np.random.default_rng(0xD1FF_0789)
    ring = scheme128.params.n
    matrix = rng.integers(-100, 100, (ring + 4, ring))
    ct = scheme128.encrypt_vector(rng.integers(-100, 100, ring))
    engine = BatchedHmvp(scheme128, matrix, cache=EncodedMatrixCache())
    got = engine.multiply_one(ct)
    assert [pack.count for pack in got.packs] == [ring, 4]
    assert _limb_digests(got) == _limb_digests(hmvp_oracle(scheme128, matrix, [ct]))
