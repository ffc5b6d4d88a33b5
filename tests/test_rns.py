"""Tests for the RNS layer: CRT, fast base extension, rescale."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.math.primes import CHAM_P, CHAM_Q0, CHAM_Q1
from repro.math.rns import RnsBasis
from tests.oracles import rns_decompose

N = 64


@pytest.fixture(scope="module")
def basis():
    return RnsBasis((CHAM_Q0, CHAM_Q1, CHAM_P), N)


@pytest.fixture(scope="module")
def ct_basis():
    return RnsBasis((CHAM_Q0, CHAM_Q1), N)


def test_basis_validation():
    with pytest.raises(ValueError):
        RnsBasis((CHAM_Q0, CHAM_Q0), N)  # duplicate
    with pytest.raises(ValueError):
        RnsBasis((CHAM_Q0, 97), N)  # 97 not NTT-friendly for N=64


def test_basis_products(basis):
    assert basis.product == CHAM_Q0 * CHAM_Q1 * CHAM_P
    assert basis.punctured[0] == CHAM_Q1 * CHAM_P
    for q_hat, inv, q in zip(basis.punctured, basis.punctured_inv, basis.moduli):
        assert q_hat * inv % q == 1


def test_drop_last_and_extend(basis, ct_basis):
    assert ct_basis.extend([CHAM_P]).moduli == basis.moduli
    with pytest.raises(ValueError):
        ct_basis.extend([CHAM_Q0])  # duplicate modulus


def test_decompose_compose_roundtrip(basis, rng):
    x = np.array(
        [int(v) for v in rng.integers(0, 1 << 62, N)], dtype=object
    ) * np.array([int(v) for v in rng.integers(1, 1 << 40, N)], dtype=object)
    x %= basis.product
    assert np.array_equal(basis.compose(rns_decompose(basis, x)), x)


def test_compose_centered(basis):
    x = np.array([basis.product - 1, 1, 0], dtype=object)
    r = rns_decompose(basis, x)
    centered = basis.compose_centered(r)
    assert list(centered) == [-1, 1, 0]


def test_fast_extension_matches_exact(ct_basis, rng):
    x = np.array([int(v) for v in rng.integers(0, 1 << 63, N)], dtype=object)
    x = x * 31 % ct_basis.product
    r = rns_decompose(ct_basis, x)
    fast = ct_basis.extend_to(r, [CHAM_P])
    exact = ct_basis.extend_to_exact(r, [CHAM_P])
    assert np.array_equal(fast, exact)


def test_fast_extension_negative_values(ct_basis):
    """Centered convention: Q-1 is -1, so the extension must give t-1."""
    x = np.array([ct_basis.product - 1, ct_basis.product - 12345], dtype=object)
    pad = np.zeros(N - 2, dtype=object)
    x = np.concatenate([x, pad])
    r = rns_decompose(ct_basis, x)
    ext = ct_basis.extend_to(r, [CHAM_P])
    assert int(ext[0][0]) == CHAM_P - 1
    assert int(ext[0][1]) == CHAM_P - 12345


def test_fast_extension_multiple_targets(ct_basis, rng):
    x = np.array([int(v) for v in rng.integers(0, 1 << 60, N)], dtype=object)
    r = rns_decompose(ct_basis, x)
    fast = ct_basis.extend_to(r, [CHAM_P, 12289 * 1 + 0])
    exact = ct_basis.extend_to_exact(r, [CHAM_P, 12289])
    assert np.array_equal(fast, exact)


def divround(v: int, p: int) -> int:
    r = v % p
    if r > p // 2:
        return (v - (r - p)) // p
    return (v - r) // p


def test_rescale_last_matches_bigint(basis, rng):
    x = np.array([int(v) for v in rng.integers(0, 1 << 63, N)], dtype=object)
    x = (x * x) % basis.product
    r = rns_decompose(basis, x)
    res = basis.rescale_last(r)
    sub = RnsBasis(basis.moduli[:-1], N)
    got = sub.compose(res)
    # centered rounding of x/p, for x interpreted centered mod Qp
    half = basis.product // 2
    want = []
    for v in x:
        vv = int(v) if v <= half else int(v) - basis.product
        want.append(divround(vv, CHAM_P) % sub.product)
    assert list(got) == want


def test_rescale_shape_check(basis):
    with pytest.raises(ValueError):
        basis.rescale_last(np.zeros((2, N), dtype=np.uint64))
    with pytest.raises(ValueError):
        basis.extend_to(np.zeros((2, N), dtype=np.uint64), [17])


def test_rns_poly_roundtrip(basis, rng):
    coeffs = np.array(
        [int(v) for v in rng.integers(-(1 << 50), 1 << 50, N)], dtype=object
    )
    limbs = rns_decompose(basis, coeffs)
    assert limbs.shape == (len(basis), N)
    assert np.array_equal(basis.compose(limbs), np.mod(coeffs, basis.product))
    assert np.array_equal(basis.compose_centered(limbs), coeffs)


@given(st.integers(min_value=0, max_value=CHAM_Q0 * CHAM_Q1 - 1))
@settings(max_examples=100, deadline=None)
def test_fast_extension_property(x):
    # the float-corrected CRT is documented as exact away from the
    # centering boundary; skip the (measure-zero) adversarial midpoint
    from hypothesis import assume

    q = CHAM_Q0 * CHAM_Q1
    centered = x if x <= q // 2 else x - q
    assume(abs(centered) < 0.499 * q)
    basis = RnsBasis((CHAM_Q0, CHAM_Q1), 4)
    arr = np.array([x, 0, 0, 0], dtype=object)
    r = rns_decompose(basis, arr)
    fast = basis.extend_to(r, [CHAM_P])
    exact = basis.extend_to_exact(r, [CHAM_P])
    assert int(fast[0][0]) == int(exact[0][0])


@given(st.integers(min_value=0, max_value=CHAM_Q0 * CHAM_Q1 * CHAM_P - 1))
@settings(max_examples=100, deadline=None)
def test_rescale_property(x):
    basis = RnsBasis((CHAM_Q0, CHAM_Q1, CHAM_P), 4)
    arr = np.array([x, 0, 0, 0], dtype=object)
    res = basis.rescale_last(rns_decompose(basis, arr))
    sub = RnsBasis(basis.moduli[:-1], 4)
    half = basis.product // 2
    vv = x if x <= half else x - basis.product
    assert int(sub.compose(res)[0]) == divround(vv, CHAM_P) % sub.product
