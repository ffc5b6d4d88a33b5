"""Property-based algebra suite for the math substrate.

Pins the ring axioms and structural identities every higher layer
assumes: ``Z_q[X]/(X^N+1)`` is a commutative ring, its Galois group acts
as claimed, and the RNS representation is a ring isomorphism.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.math.modular import modadd_vec, modneg_vec
from repro.math.ntt import NegacyclicNtt
from repro.math.polynomial import automorph, shiftneg
from repro.math.primes import CHAM_P, CHAM_Q0
from repro.math.rns import RnsBasis
from tests.oracles import rns_decompose

N = 32
Q = CHAM_Q0

coeff_lists = st.lists(
    st.integers(min_value=0, max_value=Q - 1), min_size=N, max_size=N
)


RING = NegacyclicNtt(N, Q)


def poly(coeffs):
    return np.array(coeffs, dtype=np.uint64)


def add(a, b):
    return modadd_vec(a, b, Q)


def mul(a, b):
    return RING.multiply(a, b)


# -- ring axioms -----------------------------------------------------------------


@given(a=coeff_lists, b=coeff_lists)
@settings(max_examples=30, deadline=None)
def test_addition_commutes_and_multiplication_commutes(a, b):
    pa, pb = poly(a), poly(b)
    assert np.array_equal(add(pa, pb), add(pb, pa))
    assert np.array_equal(mul(pa, pb), mul(pb, pa))


@given(a=coeff_lists, b=coeff_lists, c=coeff_lists)
@settings(max_examples=20, deadline=None)
def test_associativity_and_distributivity(a, b, c):
    pa, pb, pc = poly(a), poly(b), poly(c)
    assert np.array_equal(add(add(pa, pb), pc), add(pa, add(pb, pc)))
    assert np.array_equal(mul(mul(pa, pb), pc), mul(pa, mul(pb, pc)))
    assert np.array_equal(mul(pa, add(pb, pc)), add(mul(pa, pb), mul(pa, pc)))


@given(a=coeff_lists)
@settings(max_examples=20, deadline=None)
def test_identities(a):
    pa = poly(a)
    zero = np.zeros(N, dtype=np.uint64)
    one = zero.copy()
    one[0] = 1
    assert np.array_equal(mul(pa, one), pa)
    assert np.array_equal(add(pa, zero), pa)
    assert np.array_equal(add(pa, modneg_vec(pa, Q)), zero)
    assert np.array_equal(mul(pa, zero), zero)


# -- Galois group ---------------------------------------------------------------


@given(a=coeff_lists, i=st.integers(min_value=0, max_value=N // 2 - 1))
@settings(max_examples=20, deadline=None)
def test_automorphism_group_is_units_mod_2n(a, i):
    """Odd k act invertibly; composition follows multiplication mod 2N."""
    pa = poly(a)
    k = 2 * i + 1
    k_inv = pow(k, -1, 2 * N)
    assert np.array_equal(automorph(automorph(pa, k, Q), k_inv, Q), pa)


@given(
    a=coeff_lists,
    i=st.integers(min_value=0, max_value=15),
    j=st.integers(min_value=0, max_value=15),
)
@settings(max_examples=20, deadline=None)
def test_automorphism_composition_law(a, i, j):
    pa = poly(a)
    k1, k2 = 2 * i + 1, 2 * j + 1
    assert np.array_equal(
        automorph(automorph(pa, k1, Q), k2, Q), automorph(pa, k1 * k2 % (2 * N), Q)
    )


@given(a=coeff_lists, s=st.integers(min_value=-64, max_value=64))
@settings(max_examples=20, deadline=None)
def test_shiftneg_is_multiplication_by_monomial(a, s):
    pa = poly(a)
    e = s % (2 * N)
    mono = np.zeros(N, dtype=np.uint64)
    mono[e % N] = 1 if e < N else Q - 1
    assert np.array_equal(shiftneg(pa, s, Q), mul(pa, mono))


# -- RNS isomorphism ---------------------------------------------------------------


@given(
    x=st.integers(min_value=0, max_value=CHAM_Q0 * CHAM_P - 1),
    y=st.integers(min_value=0, max_value=CHAM_Q0 * CHAM_P - 1),
)
@settings(max_examples=40, deadline=None)
def test_rns_is_ring_homomorphism(x, y):
    basis = RnsBasis((CHAM_Q0, CHAM_P), 4)
    arr_x = np.array([x, 0, 0, 0], dtype=object)
    arr_y = np.array([y, 0, 0, 0], dtype=object)
    rx, ry = rns_decompose(basis, arr_x), rns_decompose(basis, arr_y)
    # addition
    from repro.math.modular import modmul_vec

    added = np.stack(
        [modadd_vec(rx[i], ry[i], q) for i, q in enumerate(basis)]
    )
    assert int(basis.compose(added)[0]) == (x + y) % basis.product
    # multiplication
    mult = np.stack(
        [modmul_vec(rx[i], ry[i], q) for i, q in enumerate(basis)]
    )
    assert int(basis.compose(mult)[0]) == (x * y) % basis.product


@given(x=st.integers(min_value=0, max_value=CHAM_Q0 - 1))
@settings(max_examples=30, deadline=None)
def test_rns_compose_decompose_identity(x):
    basis = RnsBasis((CHAM_Q0, CHAM_P), 4)
    arr = np.array([x, x, 0, 1], dtype=object)
    assert np.array_equal(basis.compose(rns_decompose(basis, arr)), arr)


# -- NTT as ring isomorphism -----------------------------------------------------------


@given(a=coeff_lists, b=coeff_lists)
@settings(max_examples=20, deadline=None)
def test_ntt_domain_is_pointwise_ring(a, b):
    """NTT(a*b) = NTT(a) ∘ NTT(b) and NTT(a+b) = NTT(a) + NTT(b)."""
    from repro.math.modular import modadd_vec, modmul_vec
    from repro.math.ntt import NegacyclicNtt

    ctx = NegacyclicNtt(N, Q)
    pa = np.array(a, dtype=np.uint64)
    pb = np.array(b, dtype=np.uint64)
    ha, hb = ctx.forward(pa), ctx.forward(pb)
    assert np.array_equal(
        ctx.forward(ctx.multiply(pa, pb)), modmul_vec(ha, hb, Q)
    )
    assert np.array_equal(
        ctx.forward(modadd_vec(pa, pb, Q)), modadd_vec(ha, hb, Q)
    )
