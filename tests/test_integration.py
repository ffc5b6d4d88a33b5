"""Cross-layer integration tests, including one pass at the production
ring degree (N = 4096, the paper's Section II-F parameters)."""

import numpy as np
import pytest

from repro.core.batch import BatchedHmvp
from repro.he.bfv import BfvScheme
from repro.he.params import cham_params, toy_params


@pytest.fixture(scope="module")
def production_scheme():
    """N=4096 with the paper's exact moduli; pack keys for 8 rows only
    (keyset generation dominates the cost)."""
    return BfvScheme(cham_params(), seed=2023, max_pack=8)


def test_production_dot_product_and_pack(production_scheme, rng):
    scheme = production_scheme
    n = scheme.params.n
    assert n == 4096
    v = rng.integers(-(1 << 15), 1 << 15, n)
    ct = scheme.encrypt_vector(v)
    rows = rng.integers(-(1 << 15), 1 << 15, (4, n))
    res = BatchedHmvp.once(scheme, rows, [ct])
    got = res.decrypt(scheme)
    want = rows.astype(object) @ v.astype(object)
    assert np.array_equal(got, want)


def test_production_noise_profile(production_scheme, rng):
    """Rescale must decisively reduce the multiplication noise at the
    production parameters (the paper's 30->26 bit claim territory)."""
    scheme = production_scheme
    n = scheme.params.n
    v = rng.integers(-(1 << 15), 1 << 15, n)
    row = rng.integers(-(1 << 15), 1 << 15, n)
    ct = scheme.encrypt_vector(v)
    prod = ct.multiply_plain(scheme.encoder.encode_row(row))
    pre = scheme.noise_bits(prod)
    post = scheme.noise_bits(prod.rescale())
    assert pre > 20
    assert post < pre - 8
    assert scheme.noise_budget(prod.rescale()) > 15


def test_production_security_level(production_scheme):
    assert production_scheme.params.security_bits >= 128


def test_hw_functional_agreement(rng):
    """The hardware NTT datapath and the HE layer share arithmetic: a
    multiply_plain computed via datapath-transformed operands matches."""
    from repro.hw.arch import NttUnitConfig
    from repro.hw.ntt_datapath import NttDatapathSim
    from repro.math.modular import modmul_vec
    from repro.math.primes import CHAM_Q0

    n, q = 256, CHAM_Q0
    a = rng.integers(0, q, n, dtype=np.uint64)
    b = rng.integers(0, q, n, dtype=np.uint64)
    sim = NttDatapathSim(NttUnitConfig(n=n, n_bfu=4, ram_banks=8), q)
    ha, _ = sim.forward(a)
    hb, _ = sim.forward(b)
    prod = sim.inverse(modmul_vec(ha, hb, q))
    from repro.math.ntt import NegacyclicNtt

    want = NegacyclicNtt(n, q).multiply(a, b)
    assert np.array_equal(prod, want)


def test_end_to_end_perf_and_function_share_op_counts(scheme128, rng):
    """The op counts the functional path reports drive the perf model's
    pricing: check the wiring end to end."""
    from repro.hw.perf import CpuCostModel

    a = rng.integers(-20, 20, (8, 128))
    v = rng.integers(-20, 20, 128)
    res = BatchedHmvp.once(scheme128, a, [scheme128.encrypt_vector(v)])
    cpu = CpuCostModel()
    priced = (
        res.ops.dot_products * cpu.dot_product_s()
        + res.ops.pack_reductions * cpu.pack_reduction_s()
    )
    assert priced > 0
    # pricing must scale with the functional op counts
    res2 = BatchedHmvp.once(
        scheme128, np.vstack([a, a]), [scheme128.encrypt_vector(v)]
    )
    priced2 = (
        res2.ops.dot_products * cpu.dot_product_s()
        + res2.ops.pack_reductions * cpu.pack_reduction_s()
    )
    assert priced2 > 1.8 * priced


def test_runtime_serves_hmvp_jobs_sized_from_apps(scheme128, rng):
    """Submit the LR workload's matvec shapes through the RAS runtime."""
    from repro.hw.runtime import FpgaRuntime, JobState

    rt = FpgaRuntime()
    jid = rt.submit(rows=12, col_tiles=1)  # a HeteroLR gradient block
    assert rt.poll_once(jid) == JobState.DONE
