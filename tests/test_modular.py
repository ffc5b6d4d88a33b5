"""Unit and property tests for repro.math.modular."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.math.modular import (
    MAX_MODULUS_BITS,
    LowHammingModulus,
    center_lift_vec,
    decompose_low_hamming,
    hamming_weight,
    modadd_vec,
    modinv,
    modmul_vec,
    modmul_scalar_vec,
    modneg_vec,
    modsub_vec,
    reduce_signed_vec,
)
from repro.math.primes import CHAM_P, CHAM_Q0, CHAM_Q1

MODULI = [17, 12289, CHAM_Q0, CHAM_Q1, CHAM_P, (1 << 41) - 21]


@pytest.mark.parametrize("q", MODULI)
def test_modadd_matches_bigint(q, rng):
    a = rng.integers(0, q, 257, dtype=np.uint64)
    b = rng.integers(0, q, 257, dtype=np.uint64)
    got = modadd_vec(a, b, q)
    want = (a.astype(object) + b.astype(object)) % q
    assert np.array_equal(got.astype(object), want)


@pytest.mark.parametrize("q", MODULI)
def test_modsub_matches_bigint(q, rng):
    a = rng.integers(0, q, 257, dtype=np.uint64)
    b = rng.integers(0, q, 257, dtype=np.uint64)
    got = modsub_vec(a, b, q)
    want = (a.astype(object) - b.astype(object)) % q
    assert np.array_equal(got.astype(object), want)


@pytest.mark.parametrize("q", MODULI)
def test_modmul_matches_bigint(q, rng):
    a = rng.integers(0, q, 257, dtype=np.uint64)
    b = rng.integers(0, q, 257, dtype=np.uint64)
    got = modmul_vec(a, b, q)
    want = (a.astype(object) * b.astype(object)) % q
    assert np.array_equal(got.astype(object), want)


@pytest.mark.parametrize("q", MODULI)
def test_modmul_extreme_operands(q):
    """q-1 squared is the worst case for intermediate overflow."""
    a = np.array([q - 1, q - 1, 0, 1], dtype=np.uint64)
    b = np.array([q - 1, 1, q - 1, q - 1], dtype=np.uint64)
    got = modmul_vec(a, b, q)
    want = (a.astype(object) * b.astype(object)) % q
    assert np.array_equal(got.astype(object), want)


def test_modmul_rejects_oversized_modulus():
    with pytest.raises(ValueError, match="bits"):
        modmul_vec(np.array([1], np.uint64), np.array([1], np.uint64), 1 << 42)


def test_modneg():
    q = CHAM_Q0
    a = np.array([0, 1, q - 1], dtype=np.uint64)
    got = modneg_vec(a, q)
    assert list(got) == [0, q - 1, 1]


def test_modmul_scalar(rng):
    q = CHAM_Q1
    a = rng.integers(0, q, 64, dtype=np.uint64)
    got = modmul_scalar_vec(a, 123456789, q)
    want = (a.astype(object) * 123456789) % q
    assert np.array_equal(got.astype(object), want)


def test_modmul_scalar_negative_and_np_integer(rng):
    """Regression: negative and ``np.integer`` scalars must normalize
    exactly once into [0, q) — the old path double-reduced ``np.int64``
    inputs and crashed on negatives with an opaque cast error."""
    q = CHAM_Q1
    a = rng.integers(0, q, 64, dtype=np.uint64)
    for s in (-123456789, np.int64(-5), np.int64(7), -1, q - 1, -(q + 3)):
        got = modmul_scalar_vec(a, s, q)
        want = (a.astype(object) * (int(s) % q)) % q
        assert np.array_equal(got.astype(object), want), s


def test_modmul_scalar_rejects_non_integer():
    a = np.array([1, 2], dtype=np.uint64)
    for bad in (1.5, True, "3", None):
        with pytest.raises(TypeError, match="integer scalar"):
            modmul_scalar_vec(a, bad, CHAM_Q0)


def test_modmul_metrics_count_broadcast_result(rng):
    """Regression: the coefficient counter must report the *broadcast*
    result size — ``max(a.size, b.size)`` undercounted a ``(L, 1, n) x
    (L, rows, n)`` product by a factor of ``rows``."""
    from repro.obs.metrics import REGISTRY

    q = CHAM_Q0
    a = rng.integers(0, q, (3, 1, 16), dtype=np.uint64)
    b = rng.integers(0, q, (3, 5, 16), dtype=np.uint64)
    REGISTRY.enabled = True
    before = REGISTRY.snapshot()["counters"].get("math.modmul.coefficients", 0)
    modmul_vec(a, b, q)
    after = REGISTRY.snapshot()["counters"]["math.modmul.coefficients"]
    assert after - before == 3 * 5 * 16


def test_modpow_and_modinv():
    q = CHAM_Q0
    x = 987654321
    assert (modinv(x, q) * x) % q == 1
    with pytest.raises(ZeroDivisionError):
        modinv(0, q)
    with pytest.raises(ValueError):
        modinv(6, 9)  # gcd != 1


def test_center_lift():
    q = 17
    lifted = center_lift_vec(np.array([0, 8, 9, 16], dtype=np.uint64), q)
    assert lifted.dtype == object
    assert list(lifted) == [0, 8, -8, -1]


def test_reduce_signed_vec():
    q = 97
    a = np.array([-1, -96, 98, 0], dtype=object)
    assert list(reduce_signed_vec(a, q)) == [96, 1, 1, 0]


# -- low-Hamming-weight reduction (Section IV-A3) ------------------------------


@pytest.mark.parametrize("q", [CHAM_Q0, CHAM_Q1, CHAM_P])
def test_cham_moduli_have_weight_three(q):
    assert hamming_weight(q) == 3


def test_decompose_low_hamming():
    assert decompose_low_hamming(CHAM_Q0) == [34, 27, 0]
    assert decompose_low_hamming(CHAM_Q1) == [34, 19, 0]
    assert decompose_low_hamming(CHAM_P) == [38, 23, 0]


@pytest.mark.parametrize("q", [CHAM_Q0, CHAM_Q1, CHAM_P])
def test_low_hamming_reduce_matches_mod(q, rng):
    lhm = LowHammingModulus(q)
    for _ in range(200):
        x = int(rng.integers(0, 1 << 63)) * int(rng.integers(0, 1 << 15))
        assert lhm.reduce(x) == x % q


@pytest.mark.parametrize("q", [CHAM_Q0, CHAM_P])
def test_low_hamming_mulmod(q, rng):
    lhm = LowHammingModulus(q)
    for _ in range(100):
        a = int(rng.integers(0, q))
        b = int(rng.integers(0, q))
        assert lhm.mulmod(a, b) == a * b % q


def test_low_hamming_accepts_weight_three_prime():
    # 12289 = 2^12 + 2^13 + 1 also has weight three (the Kyber prime)
    assert LowHammingModulus(12289).exponents == [13, 12, 0]


def test_low_hamming_rejects_generic_prime():
    with pytest.raises(ValueError, match="Hamming"):
        LowHammingModulus(1000003)


def test_low_hamming_rejects_even_modulus():
    with pytest.raises(ValueError):
        LowHammingModulus(2**10 + 2**5 + 2)


def test_low_hamming_shift_add_count_monotone():
    lhm = LowHammingModulus(CHAM_Q0)
    narrow = lhm.shift_add_count(35)
    wide = lhm.shift_add_count(70)
    assert narrow <= wide
    assert wide >= 3  # a double-width product needs several folds


def test_fold_once_preserves_residue():
    lhm = LowHammingModulus(CHAM_Q0)
    x = (CHAM_Q0 - 1) ** 2
    assert lhm.fold_once(x) % CHAM_Q0 == x % CHAM_Q0


# -- hypothesis property tests ---------------------------------------------------


@given(
    a=st.integers(min_value=0, max_value=CHAM_P - 1),
    b=st.integers(min_value=0, max_value=CHAM_P - 1),
)
@settings(max_examples=200, deadline=None)
def test_modmul_property(a, b):
    got = modmul_vec(np.array([a], np.uint64), np.array([b], np.uint64), CHAM_P)
    assert int(got[0]) == a * b % CHAM_P


@given(
    a=st.integers(min_value=0, max_value=(1 << MAX_MODULUS_BITS) - 1),
    b=st.integers(min_value=0, max_value=(1 << MAX_MODULUS_BITS) - 1),
)
@settings(max_examples=200, deadline=None)
def test_modmul_property_max_width(a, b):
    q = (1 << 41) - 21  # largest supported width
    a %= q
    b %= q
    got = modmul_vec(np.array([a], np.uint64), np.array([b], np.uint64), q)
    assert int(got[0]) == a * b % q


@given(x=st.integers(min_value=0, max_value=(1 << 78) - 1))
@settings(max_examples=200, deadline=None)
def test_low_hamming_reduce_property(x):
    lhm = LowHammingModulus(CHAM_P)
    assert lhm.reduce(x) == x % CHAM_P


# -- generic Barrett reduction (the §IV-A3 ablation counterpart) -----------------


@pytest.mark.parametrize("q", [12289, CHAM_Q0, CHAM_P, 1000003])
def test_barrett_matches_mod(q, rng):
    from repro.math.modular import BarrettReducer

    br = BarrettReducer(q)
    for _ in range(300):
        x = int(rng.integers(0, q)) * int(rng.integers(0, q))
        assert br.reduce(x) == x % q


def test_barrett_agrees_with_low_hamming(rng):
    from repro.math.modular import BarrettReducer

    br = BarrettReducer(CHAM_Q1)
    lh = LowHammingModulus(CHAM_Q1)
    for _ in range(200):
        a = int(rng.integers(0, CHAM_Q1))
        b = int(rng.integers(0, CHAM_Q1))
        assert br.mulmod(a, b) == lh.mulmod(a, b)


def test_barrett_input_domain():
    from repro.math.modular import BarrettReducer

    br = BarrettReducer(97)
    with pytest.raises(ValueError):
        br.reduce(-1)
    with pytest.raises(ValueError):
        br.reduce(97 * 97)
    assert br.reduce(97 * 97 - 1) == (97 * 97 - 1) % 97


def test_barrett_rejects_even_modulus():
    from repro.math.modular import BarrettReducer

    with pytest.raises(ValueError):
        BarrettReducer(100)
