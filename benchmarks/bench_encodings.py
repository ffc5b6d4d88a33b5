"""E11 — Section II-E: encoding complexity comparison.

Reproduces the paper's asymptotic claims: coefficient encoding needs
``O(m)`` HE operations vs ``O(m log2 N)`` for batch encoding, and beats
the also-``O(m)`` diagonal method on constant factors (no per-step
rotation/key-switch).  Functional versions of all three encodings run as
timing kernels.
"""

import numpy as np
import pytest
from conftest import print_table

from repro.core.baselines import BaselineHmvp, batch_friendly_plain_modulus
from repro.core.complexity import batch_cost, coefficient_cost, diagonal_cost
from repro.core.batch import BatchedHmvp
from repro.he.bfv import BfvScheme
from repro.he.params import CheParams

SHAPES = [(512, 4096), (1024, 4096), (2048, 4096), (4096, 4096), (8192, 4096)]


def test_encoding_cost_table():
    rows = []
    for m, n in SHAPES:
        c = coefficient_cost(m, n, 4096)
        d = diagonal_cost(m, n, 4096)
        b = batch_cost(m, n, 4096)
        rows.append(
            (
                f"{m}x{n}",
                f"{c.he_ops:,} ({c.keyswitches:,} ks)",
                f"{d.he_ops:,} ({d.keyswitches:,} ks)",
                f"{b.he_ops:,} ({b.keyswitches:,} ks)",
            )
        )
        assert b.he_ops > d.he_ops >= c.he_ops
    print_table(
        "Section II-E: HE ops per HMVP (and key-switches)",
        ["matrix", "coefficient (Alg. 1)", "diagonal [21]", "batch [21]"],
        rows,
    )


def test_growth_rates():
    """O(m) vs O(m log2 N): the batch/coefficient ratio is ~log2(N)."""
    m, n = 4096, 4096
    c = coefficient_cost(m, n, 4096)
    b = batch_cost(m, n, 4096)
    ratio = b.he_ops / c.he_ops
    print(f"\nbatch/coefficient HE-op ratio: {ratio:.1f} (log2(N)={12})")
    assert 8 <= ratio <= 16


def test_diagonal_constant_factor():
    """Diagonal is O(m) too, but pays ~2x in HE ops (a rotation per
    multiply) — the 'smaller overhead' clause of Section II-E."""
    m, n = 4096, 4096
    c = coefficient_cost(m, n, 4096)
    d = diagonal_cost(m, n, 4096)
    assert 1.5 <= d.he_ops / c.he_ops <= 2.5


def test_plaintext_precision_advantage(bench_scheme):
    """A bonus of coefficient encoding at CHAM's parameters: batch
    plaintexts have full-size (~t) coefficients, so plain multiplication
    noise scales with t and forces a small plaintext modulus, while
    coefficient encoding supports the full 40-bit t."""
    assert bench_scheme.params.plain_modulus.bit_length() == 41
    batch_t = batch_friendly_plain_modulus(128, 20)
    assert batch_t.bit_length() <= 21


# -- functional kernels, one per encoding ------------------------------------------


@pytest.mark.benchmark(group="encodings")
def test_perf_coefficient_encoding(benchmark, bench_scheme, rng):
    a = rng.integers(-8, 8, (4, 128))
    v = rng.integers(-8, 8, 128)
    ct = bench_scheme.encrypt_vector(v)
    benchmark(BatchedHmvp.once, bench_scheme, a, [ct])


@pytest.fixture(scope="module")
def batch_baseline():
    t = batch_friendly_plain_modulus(128, 20)
    scheme = BfvScheme(CheParams(n=128, plain_modulus=t), seed=51, max_pack=2)
    return BaselineHmvp(scheme)


@pytest.mark.benchmark(group="encodings")
def test_perf_batch_rotate_and_sum(benchmark, batch_baseline, rng):
    a = rng.integers(-8, 8, (4, 64))
    v = rng.integers(-8, 8, 64)
    ct = batch_baseline.encrypt_slots(v)
    benchmark(batch_baseline.rotate_and_sum, a, ct)


@pytest.mark.benchmark(group="encodings")
def test_perf_diagonal(benchmark, batch_baseline, rng):
    a = rng.integers(-8, 8, (4, 16))
    v = rng.integers(-8, 8, 16)
    ct = batch_baseline.encrypt_slots_replicated(v)
    benchmark(batch_baseline.diagonal, a, ct)


def test_functional_agreement(batch_baseline, bench_scheme, rng):
    """All three encodings compute the same matrix-vector product."""
    a = rng.integers(-8, 8, (4, 16))
    v = rng.integers(-8, 8, 16)
    want = a.astype(object) @ v.astype(object)

    got_coeff = BatchedHmvp.once(
        bench_scheme, a, [bench_scheme.encrypt_vector(v)]
    ).decrypt(bench_scheme)
    assert np.array_equal(got_coeff, want)

    ct = batch_baseline.encrypt_slots(v)
    got_rs = batch_baseline.decode_rotate_and_sum(
        batch_baseline.rotate_and_sum(a, ct)
    )
    assert np.array_equal(got_rs, want)

    ctr = batch_baseline.encrypt_slots_replicated(v)
    got_diag = batch_baseline.decode_diagonal(batch_baseline.diagonal(a, ctr), 4)
    assert np.array_equal(got_diag, want)
