"""Tests for the constant-geometry (Pease) NTT — Algorithm 4.

:class:`~repro.math.ntt.NegacyclicNtt` is the one-limb view of the
kernel that runs this network; :class:`~repro.math.cg_ntt.CgSchedule` is
the schedule the hardware model reads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.math.cg_ntt import cg_ntt_cycles, constant_geometry_schedule
from repro.math.ntt import NegacyclicNtt
from repro.math.primes import CHAM_P, CHAM_Q0, CHAM_Q1
from tests.oracles import merged_ct_forward, negacyclic_convolution_schoolbook

MODULI = [CHAM_Q0, CHAM_Q1, CHAM_P]


def to_gold_order(a, n, q):
    """Re-index CG output into the gold model's bit-reversed order."""
    inv = np.empty(n, dtype=np.int64)
    inv[constant_geometry_schedule(n, q).output_perm] = np.arange(n)
    return np.asarray(a, dtype=np.uint64)[..., inv]


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("n", [4, 16, 64, 256])
def test_forward_matches_gold_after_permutation(q, n, rng):
    a = rng.integers(0, q, n, dtype=np.uint64)
    cg = NegacyclicNtt(n, q)
    assert np.array_equal(to_gold_order(cg.forward(a), n, q), merged_ct_forward(a, q))


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("n", [8, 64, 512])
def test_roundtrip(q, n, rng):
    a = rng.integers(0, q, n, dtype=np.uint64)
    cg = NegacyclicNtt(n, q)
    assert np.array_equal(cg.inverse(cg.forward(a)), a)


@pytest.mark.parametrize("n", [8, 32])
def test_multiply_matches_schoolbook(n, rng):
    q = CHAM_Q0
    a = rng.integers(0, q, n, dtype=np.uint64)
    b = rng.integers(0, q, n, dtype=np.uint64)
    cg = NegacyclicNtt(n, q)
    assert np.array_equal(
        cg.multiply(a, b), negacyclic_convolution_schoolbook(a, b, q)
    )


def test_schedule_shapes():
    sched = constant_geometry_schedule(64, CHAM_Q0)
    assert sched.twiddles.shape == (6, 32)
    assert sched.inv_twiddles.shape == (6, 32)
    assert sched.output_perm.shape == (64,)
    # output_perm is a permutation
    assert sorted(sched.output_perm) == list(range(64))


def test_schedule_inverse_twiddles():
    sched = constant_geometry_schedule(32, CHAM_Q1)
    prod = (
        sched.twiddles.astype(object) * sched.inv_twiddles.astype(object)
    ) % CHAM_Q1
    assert (prod == 1).all()


def test_stage_zero_uses_single_twiddle():
    """Stage 0 of the merged CT network uses ψ^brv(1) for every butterfly."""
    sched = constant_geometry_schedule(64, CHAM_Q0)
    assert len(set(int(w) for w in sched.twiddles[0])) == 1


def test_total_distinct_twiddles_at_most_n():
    """Section IV-A2: 'the size of twiddle factors is equal to ... N'."""
    sched = constant_geometry_schedule(64, CHAM_Q0)
    distinct = set(int(w) for w in sched.twiddles.reshape(-1))
    assert len(distinct) <= 64


def test_cg_cycles_production_point():
    """Table III: 6144 cycles for N=4096 with 4 BFUs."""
    assert cg_ntt_cycles(4096, 4) == 6144
    assert cg_ntt_cycles(4096, 8) == 3072
    assert cg_ntt_cycles(4096, 2) == 12288


def test_cg_cycles_validation():
    with pytest.raises(ValueError):
        cg_ntt_cycles(100, 4)
    with pytest.raises(ValueError):
        cg_ntt_cycles(16, 7)


def test_batch_forward(rng):
    q = CHAM_Q0
    cg = NegacyclicNtt(32, q)
    batch = rng.integers(0, q, (4, 32), dtype=np.uint64)
    out = cg.forward(batch)
    for i in range(4):
        assert np.array_equal(out[i], cg.forward(batch[i]))


def test_rejects_bad_length(rng):
    cg = NegacyclicNtt(32, CHAM_Q0)
    with pytest.raises(ValueError):
        cg.forward(rng.integers(0, 5, 16, dtype=np.uint64))
    with pytest.raises(ValueError):
        cg.inverse(rng.integers(0, 5, 64, dtype=np.uint64))


@given(st.lists(st.integers(min_value=0, max_value=CHAM_P - 1), min_size=16, max_size=16))
@settings(max_examples=50, deadline=None)
def test_cg_equals_gold_property(coeffs):
    a = np.array(coeffs, dtype=np.uint64)
    cg = NegacyclicNtt(16, CHAM_P)
    gold = merged_ct_forward(a, CHAM_P)
    assert np.array_equal(to_gold_order(cg.forward(a), 16, CHAM_P), gold)
