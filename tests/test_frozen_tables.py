"""Regression tests: every lru_cache'd NumPy table is read-only.

Cached tables are shared by reference across every caller; a single
in-place mutation used to silently corrupt all subsequent NTTs,
automorphisms and CG schedules process-wide.  The tables are now frozen
(``writeable=False``) so mutation raises instead.
"""

import numpy as np
import pytest

from repro.math.cg_ntt import constant_geometry_schedule
from repro.math.ntt import (
    NegacyclicNtt,
    _tables,
    bit_reverse_indices,
    constant_geometry_index,
    fused_limb_ntt,
)
from repro.math.polynomial import automorph, automorph_permutation
from repro.math.primes import CHAM_P, CHAM_Q0, CHAM_Q1, _factorize

N = 64
Q = CHAM_Q0


def test_bit_reverse_indices_frozen():
    perm = bit_reverse_indices(N)
    with pytest.raises(ValueError):
        perm[0] = 1
    # the cached object itself is still intact
    assert bit_reverse_indices(N)[0] == 0


def test_ntt_twiddle_tables_frozen():
    psis, inv_psis, _n_inv = _tables(N, Q)
    for table in (psis, inv_psis):
        with pytest.raises(ValueError):
            table[0] = 0


def test_automorph_permutation_frozen():
    src, flip = automorph_permutation(N, 3)
    with pytest.raises(ValueError):
        src[0] = 0
    with pytest.raises(ValueError):
        flip[0] = True


def test_cg_schedule_tables_frozen():
    sched = constant_geometry_schedule(N, Q)
    for table in (sched.twiddles, sched.inv_twiddles, sched.output_perm):
        with pytest.raises(ValueError):
            table.flat[0] = 0


def test_factorize_returns_immutable():
    assert isinstance(_factorize(360), tuple)
    assert _factorize(360) == (2, 3, 5)


def test_transforms_unaffected_after_mutation_attempt(rng):
    """A failed mutation must leave the shared state fully functional."""
    a = rng.integers(0, Q, N, dtype=np.uint64)
    before = NegacyclicNtt(N, Q).forward(a)
    with pytest.raises(ValueError):
        _tables(N, Q)[0][0] = 123
    assert np.array_equal(NegacyclicNtt(N, Q).forward(a), before)
    # automorph still round-trips through its frozen permutation tables
    k = 5
    k_inv = pow(k, -1, 2 * N)
    assert np.array_equal(automorph(automorph(a, k, Q), k_inv, Q), a)


def test_ntt_context_uses_frozen_tables():
    """The one-limb view shares the cached kernel, and every table the
    kernel reads is read-only."""
    ctx = NegacyclicNtt(N, Q)
    kernel = ctx._kernel
    assert kernel is fused_limb_ntt(N, (Q,))
    tables = {
        name: value
        for name, value in vars(kernel).items()
        if isinstance(value, np.ndarray)
    }
    assert {"twiddles", "inv_twiddles", "_fwd_q", "_inv_q"} <= set(tables)
    for name, table in tables.items():
        assert not table.flags.writeable, name
        with pytest.raises(ValueError):
            table.flat[0] = 0


def test_fused_stage_tables_frozen():
    """The stacked stage tables of a multi-limb kernel and the derived
    schedule index are read-only, and the hardware schedule is a view
    of the kernel's tables rather than a second copy."""
    kernel = fused_limb_ntt(N, (CHAM_Q0, CHAM_Q1, CHAM_P))
    stages = N.bit_length() - 1
    assert kernel.twiddles.shape == (stages, 3, N // 2)
    for table in (kernel.twiddles, kernel.inv_twiddles, kernel._fwd_q, kernel._inv_q):
        assert table.shape == (stages, 3, N // 2)
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0
    for table in constant_geometry_index(N):
        with pytest.raises(ValueError):
            table.flat[0] = 0
    sched = constant_geometry_schedule(N, Q)
    assert np.shares_memory(sched.twiddles, fused_limb_ntt(N, (Q,)).twiddles)
    assert np.shares_memory(sched.inv_twiddles, fused_limb_ntt(N, (Q,)).inv_twiddles)
