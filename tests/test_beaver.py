"""Tests for Beaver triple generation (Fig. 7c workload)."""

import numpy as np
import pytest

from repro.apps.beaver import BeaverGenerator, verify_triple


@pytest.fixture(scope="module")
def generator(scheme128):
    return BeaverGenerator(scheme128, seed=99)


def test_triple_is_valid(generator, rng):
    w = rng.integers(-30, 30, (8, 128))
    triple = generator.generate(w)
    assert verify_triple(triple)
    assert triple.shape == (8, 128)


def test_triple_valid_for_narrow_matrix(generator, rng):
    w = rng.integers(-30, 30, (5, 40))
    assert verify_triple(generator.generate(w))


def test_shares_hide_the_inputs(generator, rng):
    """c1 alone must look unrelated to W*a1 (the mask blinds it)."""
    w = rng.integers(-10, 10, (4, 128))
    triple = generator.generate(w)
    t = triple.t
    raw = (triple.matrix.astype(object) @ triple.a1.astype(object)) % t
    assert not np.array_equal(triple.c1, raw)


def test_masks_differ_between_triples(generator, rng):
    w = rng.integers(-10, 10, (4, 128))
    t1 = generator.generate(w)
    t2 = generator.generate(w)
    assert not np.array_equal(t1.c1, t2.c1)
    assert verify_triple(t1) and verify_triple(t2)


def test_batch_generation(generator, rng):
    w = rng.integers(-10, 10, (3, 64))
    triples = generator.generate_batch(w, 3)
    assert len(triples) == 3
    assert all(verify_triple(t) for t in triples)


def test_stats_accumulate(scheme128, rng):
    gen = BeaverGenerator(scheme128, seed=5)
    w = rng.integers(-10, 10, (4, 128))
    gen.generate(w)
    gen.generate(w)
    assert gen.stats.triples == 2
    assert gen.stats.encryptions == 2
    assert gen.stats.ops.dot_products == 8  # 4 rows x 2 triples


def test_triple_usage_in_secure_multiply(generator, rng):
    """Use a triple the Beaver way to multiply W by a secret vector x."""
    t = generator.scheme.params.plain_modulus
    w = rng.integers(-10, 10, (6, 128))
    triple = generator.generate(w)
    # parties hold shares x1, x2 of x; they open epsilon = x - a
    x = rng.integers(-100, 100, 128).astype(object)
    a = (triple.a1.astype(object) + triple.a2.astype(object)) % t
    epsilon = (x - a) % t
    # W*x = W*epsilon + (c1 + c2)
    wx_shares = (
        triple.matrix.astype(object) @ epsilon
        + triple.c1.astype(object)
        + triple.c2.astype(object)
    ) % t
    want = (triple.matrix.astype(object) @ x) % t
    assert np.array_equal(wx_shares, want)


def test_matrix_triples(scheme128, rng):
    """Triples for ``W · A``: one per column of ``A``, sharing ``W``."""
    gen = BeaverGenerator(scheme128, seed=7)
    w = rng.integers(-20, 20, (6, 128))
    triples = gen.generate_batch(w, 3)
    assert len(triples) == 3
    assert all(verify_triple(t) for t in triples)
    assert gen.stats.triples == 3
    assert gen.stats.ops.dot_products == 18


def test_matrix_triples_are_independent(scheme128, rng):
    gen = BeaverGenerator(scheme128, seed=8)
    w = rng.integers(-10, 10, (4, 64))
    t1, t2 = gen.generate_batch(w, 2)
    assert not np.array_equal(t1.a1, t2.a1)
    assert not np.array_equal(t1.c1, t2.c1)
