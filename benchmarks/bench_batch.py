"""Extension bench — batched-processing amortization (§I's motivation).

The introduction cites batching as the standard HE amortization ("up to
4096 encrypted images can be evaluated simultaneously").  For CHAM's
workload the batched shape is one plaintext matrix against many
encrypted vectors: the row encodings and their forward NTTs are hoisted
once (URAM-resident) and reused, so per-vector cost drops by exactly the
hoisted transforms.  This bench measures the functional amortization and
prices it with the hardware model.
"""

import time

import numpy as np
import pytest
from conftest import print_table, record_result

from repro.core.batch import BatchedHmvp
from tests.oracles import hmvp_oracle


@pytest.fixture(scope="module")
def batched(bench_scheme, rng):
    matrix = rng.integers(-30, 30, (8, 128))
    return BatchedHmvp(bench_scheme, matrix)


def test_amortization_table(bench_scheme, batched):
    rows = []
    m = batched.shape[0]
    for batch in (1, 4, 16, 64):
        total = batched.amortized_op_count(batch)
        per_vec = total.ntts / batch
        rows.append((batch, f"{total.ntts:,}", f"{per_vec:,.1f}"))
    print_table(
        "Batched HMVP: forward NTTs vs batch size (8x128 matrix)",
        ["batch", "total NTTs", "NTTs/vector"],
        rows,
    )
    # per-vector transforms fall monotonically toward the cached floor
    per_vec = [batched.amortized_op_count(b).ntts / b for b in (1, 4, 16, 64)]
    assert per_vec == sorted(per_vec, reverse=True)
    # the floor excludes the m*limbs_aug row transforms entirely
    uncached = 8 * 3  # what the unbatched path pays per vector for rows
    assert per_vec[-1] < per_vec[0]
    assert per_vec[0] - per_vec[-1] > uncached * 0.8


def test_batched_equals_unbatched_functionally(bench_scheme, batched, rng):
    v = rng.integers(-30, 30, 128)
    ct = bench_scheme.encrypt_vector(v)
    got = batched.multiply_one(ct).decrypt(bench_scheme)
    ref = hmvp_oracle(bench_scheme, batched.matrix, [ct]).decrypt(bench_scheme)
    assert np.array_equal(got, ref)


def test_hardware_batching_throughput():
    """At the hardware level batching keeps the dot stage fed: per-vector
    latency at batch b amortizes the pipeline fill."""
    from repro.hw.arch import cham_default_config
    from repro.hw.pipeline import MacroPipeline

    cfg = cham_default_config()
    pipe = MacroPipeline(cfg.engine)
    single = pipe.simulate_hmvp(64).total_cycles
    # a batch of 16 64-row jobs back to back shares fill/drain
    batched_cycles = pipe.simulate_hmvp(64 * 16).total_cycles
    per_job = batched_cycles / 16
    rows = [
        ("single 64-row job", f"{single:,}"),
        ("per job in a 16-batch", f"{per_job:,.0f}"),
        ("amortization", f"{single / per_job:.2f}x"),
    ]
    print_table("Hardware batching (cycles)", ["scenario", "cycles"], rows)
    assert per_job < single


def test_warm_vs_cold_latency(bench_scheme, batched, rng):
    """Acceptance: serving a batch through the warm (matrix-resident)
    engine is at least 2x faster than the cold per-call path.

    Cold is the scalar per-row oracle (``tests/oracles.py``): it
    re-encodes and re-transforms every row per vector and packs
    recursively; warm reuses the NTT-domain tiles, hoists the vector
    transform, and stacks the request group through the dot and pack
    stages.  Results are appended to BENCH_batch.json via record_result.
    """
    batch = 8
    vs = [rng.integers(-30, 30, 128) for _ in range(batch)]
    cts = [bench_scheme.encrypt_vector(v) for v in vs]

    # one untimed round of each so caches/JIT-ish warmup cancel out
    batched.multiply_batch(cts[:1])
    hmvp_oracle(bench_scheme, batched.matrix, cts[:1])

    start = time.perf_counter()
    warm_results = batched.multiply_batch(cts)
    warm_s = time.perf_counter() - start

    start = time.perf_counter()
    cold_results = [hmvp_oracle(bench_scheme, batched.matrix, [ct]) for ct in cts]
    cold_s = time.perf_counter() - start

    for w, c in zip(warm_results, cold_results):
        assert np.array_equal(
            w.decrypt(bench_scheme), c.decrypt(bench_scheme)
        )
    speedup = cold_s / warm_s
    print_table(
        f"Warm vs cold batched HMVP (8x128 matrix, batch={batch})",
        ["path", "seconds", "per vector (ms)"],
        [
            ("cold (per-row oracle)", f"{cold_s:.3f}", f"{1e3 * cold_s / batch:.1f}"),
            ("warm (matrix-resident)", f"{warm_s:.3f}", f"{1e3 * warm_s / batch:.1f}"),
            ("speedup", f"{speedup:.2f}x", ""),
        ],
    )
    record_result(
        "batch",
        {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": speedup,
            "amortized_ntts_per_vector": batched.amortized_op_count(batch).ntts
            / batch,
        },
        params={"rows": 8, "cols": 128, "batch": batch},
    )
    assert speedup >= 2.0, f"warm path only {speedup:.2f}x faster than cold"


@pytest.mark.benchmark(group="batch")
def test_perf_batched_multiply(benchmark, bench_scheme, batched, rng):
    ct = bench_scheme.encrypt_vector(rng.integers(-30, 30, 128))
    benchmark(batched.multiply_one, ct)


@pytest.mark.benchmark(group="batch")
def test_perf_unbatched_multiply(benchmark, bench_scheme, batched, rng):
    v = rng.integers(-30, 30, 128)

    def run():
        return hmvp_oracle(
            bench_scheme, batched.matrix, [bench_scheme.encrypt_vector(v)]
        )

    benchmark(run)
