"""Tests for the parameter-set generator."""

import pytest

from repro.he.paramgen import ParamRequest, generate_params, low_hamming_prime_menu
from repro.math.modular import hamming_weight
from repro.math.primes import CHAM_P, CHAM_Q0, CHAM_Q1, is_ntt_friendly


def test_default_request_recovers_paper_set():
    params = generate_params()
    assert params.n == 4096
    assert set(params.ct_moduli) == {CHAM_Q0, CHAM_Q1}
    assert params.special_modulus == CHAM_P


def test_generated_moduli_are_low_hamming_and_friendly():
    params = generate_params(ParamRequest(n=4096, ct_modulus_bits=(35, 35)))
    for q in params.ct_moduli + (params.special_modulus,):
        assert is_ntt_friendly(q, 4096)
        assert hamming_weight(q) == 3


def test_distinct_moduli_within_width_class():
    params = generate_params(ParamRequest(n=4096, ct_modulus_bits=(35, 35)))
    assert len(set(params.ct_moduli)) == 2


def test_larger_ring_three_limbs():
    """A deeper-circuit operating point: N=8192, three 40-bit limbs."""
    req = ParamRequest(
        n=8192, ct_modulus_bits=(40, 40, 40), special_bits=45, plain_bits=30
    )
    params = generate_params(req)
    assert params.n == 8192
    assert len(params.ct_moduli) == 3
    assert params.special_modulus > max(params.ct_moduli)
    assert params.security_bits >= 128


def test_security_rejection():
    """A 4096 ring cannot carry a 200-bit modulus at 128-bit security."""
    req = ParamRequest(n=4096, ct_modulus_bits=(40, 40, 40, 40), special_bits=41)
    with pytest.raises(ValueError, match="security"):
        generate_params(req)


def test_unknown_ring_size():
    with pytest.raises(ValueError, match="security data"):
        generate_params(ParamRequest(n=5000))


def test_toy_rings_skip_security_gate():
    params = generate_params(
        ParamRequest(n=256, ct_modulus_bits=(35, 35), special_bits=39, plain_bits=20)
    )
    assert params.n == 256


def test_prime_menu():
    menu = low_hamming_prime_menu(4096, range(34, 40))
    assert CHAM_Q0 in menu[35]
    assert CHAM_Q1 in menu[35]
    assert CHAM_P in menu[39]
    for bits, primes in menu.items():
        for q in primes:
            assert q.bit_length() == bits
            assert hamming_weight(q) == 3


def test_generated_set_is_usable():
    """A generated non-paper set must drive the actual pipeline."""
    import numpy as np

    from repro.core.batch import BatchedHmvp
    from repro.he.bfv import BfvScheme

    params = generate_params(
        ParamRequest(n=128, ct_modulus_bits=(35, 35), special_bits=39, plain_bits=30)
    )
    scheme = BfvScheme(params, seed=3, max_pack=4)
    rng = np.random.default_rng(0)
    a = rng.integers(-50, 50, (3, 128))
    v = rng.integers(-50, 50, 128)
    res = BatchedHmvp.once(scheme, a, [scheme.encrypt_vector(v)])
    assert np.array_equal(
        res.decrypt(scheme), a.astype(object) @ v.astype(object)
    )
