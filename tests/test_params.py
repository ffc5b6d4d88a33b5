"""Tests for the parameter layer (Section II-F)."""

import pytest

from repro.he.params import (
    CheParams,
    cham_params,
    default_plain_modulus,
    estimate_security,
    toy_params,
)
from repro.math.primes import CHAM_P, CHAM_Q0, CHAM_Q1, is_prime


def test_default_plain_modulus_is_odd_prime():
    t = default_plain_modulus(40)
    assert t > 1 << 40
    assert t % 2 == 1
    assert is_prime(t)


def test_cham_params_match_paper():
    p = cham_params()
    assert p.n == 4096
    assert p.ct_moduli == (CHAM_Q0, CHAM_Q1)
    assert p.special_modulus == CHAM_P


def test_polynomial_counts_match_paper():
    """'a ciphertext consists of four 4096-degree polynomials, while a
    plaintext consists of two ... augmented: six and three.'"""
    p = cham_params()
    assert p.ct_poly_count == 4
    assert p.pt_poly_count == 2
    assert p.ct_poly_count_aug == 6
    assert p.pt_poly_count_aug == 3


def test_security_production_level():
    p = cham_params()
    assert p.security_bits >= 128


def test_security_toy_is_zero():
    assert toy_params(n=64).security_bits == 0


def test_estimate_security_errors():
    with pytest.raises(ValueError):
        estimate_security(5000, 100)


def test_validation_even_plain_modulus():
    with pytest.raises(ValueError, match="odd"):
        CheParams(n=4096, plain_modulus=1 << 30)


def test_validation_plain_modulus_too_large():
    with pytest.raises(ValueError, match="below Q"):
        CheParams(n=4096, plain_modulus=CHAM_Q0 * CHAM_Q1 + 2)


def test_validation_duplicate_special():
    with pytest.raises(ValueError, match="differ"):
        CheParams(ct_moduli=(CHAM_Q0, CHAM_P), special_modulus=CHAM_P)


def test_validation_small_special():
    with pytest.raises(ValueError, match="dominate"):
        CheParams(ct_moduli=(CHAM_P, CHAM_Q1), special_modulus=CHAM_Q0)


def test_validation_bad_n():
    with pytest.raises(ValueError):
        CheParams(n=100)


def test_toy_params_rejects_large_n():
    with pytest.raises(ValueError):
        toy_params(n=8192)


def test_bases(params256):
    assert len(params256.ct_basis) == 2
    assert len(params256.aug_basis) == 3
    assert params256.aug_basis.moduli[-1] == CHAM_P
    assert params256.q_product == CHAM_Q0 * CHAM_Q1
    assert params256.qp_product == CHAM_Q0 * CHAM_Q1 * CHAM_P


def test_describe(params256):
    desc = params256.describe()
    assert "n=256" in desc
    assert "35+35" in desc
