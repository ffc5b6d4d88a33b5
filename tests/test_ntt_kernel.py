"""Differential tests for the constant-geometry NTT kernel.

:class:`repro.math.ntt.FusedLimbNtt` must equal, bit for bit and limb by
limb, the merged Cooley-Tukey / Gentleman-Sande gold oracle in
``tests/oracles.py``, and its products must equal schoolbook negacyclic
convolution.  The inputs cover every ring size the package builds, the
CHAM moduli and toy bases up to the 41-bit modulus cap, zero to two batch
axes, the extreme residues ``0`` and ``q - 1``, strided and read-only
stacks — and the caller's array must be unchanged afterwards.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.math.modular import modmul_vec
from repro.math.ntt import FusedLimbNtt, NegacyclicNtt, fused_limb_ntt
from repro.math.primes import CHAM_P, CHAM_Q0, CHAM_Q1, find_ntt_prime, is_prime
from tests.oracles import (
    merged_ct_forward,
    merged_gs_inverse,
    negacyclic_convolution_schoolbook,
)

CHAM = (CHAM_Q0, CHAM_Q1, CHAM_P)


def _top_prime(bits: int, step: int) -> int:
    """The largest prime below ``2**bits`` that is ``≡ 1 (mod step)``."""
    q = (1 << bits) - step + 1
    while not is_prime(q):
        q -= step
    return q


#: the widest modulus the kernel accepts, NTT-friendly up to n = 4096
TOP_41 = _top_prime(41, 2 * 4096)


def _basis(n: int, kind: str, limbs: int):
    if kind == "cham":
        return CHAM[:limbs]
    # toy bases reach the cap: a 17-bit, a 41-bit and the largest
    # 41-bit NTT prime
    return (find_ntt_prime(17, n), find_ntt_prime(41, n), TOP_41)[:limbs]


def _stack(rng, moduli, shape, fill):
    """A ``(L, *shape)`` residue stack: uniform, all zero, all ``q - 1``,
    or a uniform mix of the two extremes."""
    limbs = []
    for q in moduli:
        if fill == "random":
            limbs.append(rng.integers(0, q, shape, dtype=np.uint64))
        elif fill == "zero":
            limbs.append(np.zeros(shape, dtype=np.uint64))
        elif fill == "top":
            limbs.append(np.full(shape, q - 1, dtype=np.uint64))
        else:
            limbs.append(np.where(rng.random(shape) < 0.5, 0, q - 1).astype(np.uint64))
    return np.stack(limbs)


def _as_layout(x, layout, rng):
    """``x`` handed over as a contiguous, read-only or strided stack."""
    if layout == "readonly":
        x = x.copy()
        x.flags.writeable = False
        return x
    if layout == "strided":
        # the shape of prods[:, 1] in the HMVP engine: one component of
        # a (L, 2, ...) stack, a non-contiguous view
        big = np.empty((x.shape[0], 2) + x.shape[1:], dtype=np.uint64)
        big[:, 0] = rng.integers(0, 2**40, x.shape, dtype=np.uint64)
        big[:, 1] = x
        return big[:, 1]
    return x.copy()


@given(
    log_n=st.integers(min_value=1, max_value=12),
    kind=st.sampled_from(["cham", "toy"]),
    limbs=st.integers(min_value=1, max_value=3),
    batch=st.lists(st.integers(min_value=1, max_value=3), max_size=2),
    fill=st.sampled_from(["random", "zero", "top", "extremes"]),
    layout=st.sampled_from(["contiguous", "readonly", "strided"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_kernel_matches_merged_oracle_per_limb(log_n, kind, limbs, batch, fill, layout, seed):
    n = 1 << log_n
    moduli = _basis(n, kind, limbs)
    rng = np.random.default_rng(seed)
    x = _stack(rng, moduli, (*batch, n), fill)
    arg = _as_layout(x, layout, rng)
    kernel = fused_limb_ntt(n, moduli)

    fwd = kernel.forward(arg)
    inv = kernel.inverse(arg)

    assert np.array_equal(arg, x), "the kernel wrote into its input"
    assert fwd.shape == inv.shape == x.shape
    assert fwd.dtype == inv.dtype == np.uint64
    for i, q in enumerate(moduli):
        assert np.array_equal(fwd[i], merged_ct_forward(x[i], q)), (i, q)
        assert np.array_equal(inv[i], merged_gs_inverse(x[i], q)), (i, q)
    assert np.array_equal(kernel.inverse(fwd), x)


@pytest.mark.parametrize("kind", ["cham", "toy"])
def test_one_polynomial_stack_is_left_unchanged(kind):
    """A ``(L, n)`` stack read as ``(B, L, n)`` with ``B = 1`` is a view of
    the caller's array: the kernel must still only read it."""
    n = 64
    moduli = _basis(n, kind, 3)
    x = _stack(np.random.default_rng(3), moduli, (n,), "random")
    before = x.copy()
    kernel = fused_limb_ntt(n, moduli)
    kernel.inverse(kernel.forward(x))
    kernel.inverse(x)
    assert np.array_equal(x, before)
    one = x[:1]
    single = NegacyclicNtt(n, moduli[0])
    single.forward(one[0])
    single.inverse(one[0])
    assert np.array_equal(x, before)


@given(
    log_n=st.integers(min_value=1, max_value=6),
    kind=st.sampled_from(["cham", "toy"]),
    fill=st.sampled_from(["random", "top", "extremes"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_kernel_product_matches_schoolbook(log_n, kind, fill, seed):
    n = 1 << log_n
    moduli = _basis(n, kind, 3)
    rng = np.random.default_rng(seed)
    a = _stack(rng, moduli, (n,), fill)
    b = _stack(rng, moduli, (n,), "random")
    kernel = fused_limb_ntt(n, moduli)
    slots = kernel.forward(np.stack([a, b], axis=1))
    q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
    prod = kernel.inverse(modmul_vec(slots[:, 0], slots[:, 1], q_col))
    for i, q in enumerate(moduli):
        assert np.array_equal(prod[i], negacyclic_convolution_schoolbook(a[i], b[i], q))


@pytest.mark.parametrize("bits", [42, 45])
def test_constructors_reject_moduli_past_the_cap(bits):
    """The float quotient is exact only for moduli below ``2**41``: every
    constructor refuses a wider NTT prime up front, naming it."""
    n = 8
    q = find_ntt_prime(bits, n)
    builders = [
        lambda: NegacyclicNtt(n, q),
        lambda: fused_limb_ntt(n, (q,)),
        lambda: FusedLimbNtt(n, (CHAM_Q0, q)),
    ]
    for build in builders:
        with pytest.raises(ValueError, match=str(q)):
            build()


def test_widest_accepted_modulus():
    """The largest 41-bit NTT prime is accepted and transforms exactly at
    the residues that stress the quotient bound most."""
    n = 4096
    kernel = fused_limb_ntt(n, (TOP_41,))
    x = np.full((1, 2, n), TOP_41 - 1, dtype=np.uint64)
    x[0, 1, ::2] = 0
    assert np.array_equal(kernel.forward(x)[0], merged_ct_forward(x[0], TOP_41))
    assert np.array_equal(kernel.inverse(x)[0], merged_gs_inverse(x[0], TOP_41))


def test_concurrent_calls_share_no_buffers():
    """Serve runs the kernel on several pool threads at once: results
    under contention equal the serial ones."""
    n = 1024
    kernel = fused_limb_ntt(n, CHAM)
    rng = np.random.default_rng(11)
    inputs = [_stack(rng, CHAM, (2, n), "random") for _ in range(6)]
    want = [(kernel.forward(x), kernel.inverse(x)) for x in inputs]
    got = [None] * len(inputs)

    def run(i):
        for _ in range(5):
            got[i] = (kernel.forward(inputs[i]), kernel.inverse(inputs[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (f, i), (gf, gi) in zip(want, got):
        assert np.array_equal(f, gf) and np.array_equal(i, gi)
