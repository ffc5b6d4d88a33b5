"""Differential cluster tests (ISSUE 5): sharded vs unsharded, bit for bit.

The cluster's correctness claim is stronger than "decrypts to the same
plaintext": the gathered RLWE ciphertext must be **bit-identical** to
the unsharded engine's output, per RNS limb.  That holds because the
merge algebra is exact — column-shard partials add modularly *before*
the (non-linear) pack, row bands concatenate in the pack order the
single-engine path uses, and column cuts are constrained to ciphertext
tile boundaries so every shard rescales exactly what the unsharded path
rescales.  Any divergence is a bug in the scatter/merge layer, never
noise.

Reference: the unsharded engine, :class:`repro.core.batch.BatchedHmvp`,
for every shape (``m > N`` included), which
``tests/test_differential_hmvp.py`` checks per limb against the scalar
oracle on these same shapes.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterExecutor,
    PartitionError,
    PartitionPlanner,
)
from repro.core.batch import BatchedHmvp
from repro.hw.runtime import FaultInjector
from tests.oracles import plan_from_cuts

#: (rows, cols) at ring degree 128 — single-row, single-column,
#: non-power-of-two, multi-tile, and beyond-ring shapes on purpose
SHAPES = [
    (1, 128),   # single row, one tile
    (3, 1),     # single column (narrower than a tile)
    (5, 128),   # row-only sharding, non-power-of-two rows
    (8, 256),   # column sharding across two tiles
    (13, 384),  # mixed row x column, non-power-of-two rows
    (96, 256),  # mixed, larger bands
    (160, 128), # m > ring degree: multiple output packs
]


def _reference(scheme, matrix, ct_tiles):
    """The unsharded result for any shape."""
    return BatchedHmvp(scheme, matrix).multiply_tiles(ct_tiles)


def _limb_digests(result):
    """Per-limb SHA-256 of every output pack's (c0, c1) arrays."""
    digests = []
    for pack in result.packs:
        for component in (pack.ct.c0, pack.ct.c1):
            arr = np.asarray(component)
            for limb in range(arr.shape[0]):
                digests.append(
                    hashlib.sha256(
                        np.ascontiguousarray(arr[limb]).tobytes()
                    ).hexdigest()
                )
    return digests


def _assert_bit_identical(got, want):
    assert len(got.packs) == len(want.packs)
    for g, w in zip(got.packs, want.packs):
        np.testing.assert_array_equal(g.ct.c0, w.ct.c0)
        np.testing.assert_array_equal(g.ct.c1, w.ct.c1)
    # the digest form is what the golden vectors pin; keep both honest
    assert _limb_digests(got) == _limb_digests(want)


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_cluster_matches_unsharded_bitwise(scheme128, rows, cols):
    rng = np.random.default_rng(0xC105 + rows * 37 + cols)
    matrix = rng.integers(-100, 100, (rows, cols))
    vector = rng.integers(-100, 100, cols)
    executor = ClusterExecutor(
        scheme128,
        matrix,
        config=ClusterConfig(nodes=4, replication=2, seed=1),
    )
    ct_tiles = executor.encrypt_vector(vector)
    got = executor.execute(ct_tiles)
    _assert_bit_identical(got, _reference(scheme128, matrix, ct_tiles))
    assert executor.report().dropped == 0


@pytest.mark.parametrize(
    "row_cuts,col_cuts,label",
    [
        ((0, 4, 9, 13), (0, 384), "row-only"),
        ((0, 13), (0, 128, 256, 384), "column-only"),
        ((0, 7, 13), (0, 256, 384), "mixed"),
    ],
)
def test_explicit_partition_kinds(scheme128, row_cuts, col_cuts, label):
    """Row-only, column-only, and mixed grids all gather exactly."""
    rng = np.random.default_rng(0xC106)
    matrix = rng.integers(-100, 100, (13, 384))
    vector = rng.integers(-100, 100, 384)
    planner = PartitionPlanner(scheme128.params.n)
    plan = plan_from_cuts(planner, 13, 384, row_cuts, col_cuts)
    executor = ClusterExecutor(
        scheme128,
        matrix,
        config=ClusterConfig(nodes=3, replication=1, seed=2),
        plan=plan,
    )
    ct_tiles = executor.encrypt_vector(vector)
    got = executor.execute(ct_tiles)
    _assert_bit_identical(got, _reference(scheme128, matrix, ct_tiles))


def test_unaligned_column_cut_rejected(scheme128):
    """A cut inside a ciphertext tile cannot merge exactly -> refused."""
    planner = PartitionPlanner(scheme128.params.n)
    with pytest.raises(PartitionError, match="rescale is non-linear"):
        plan_from_cuts(planner, 8, 256, (0, 8), (0, 100, 256))


def test_failover_preserves_bit_identity(scheme128):
    """Scripted node hangs reroute shards to replicas; the rerouted
    request's ciphertext is still bit-identical to the unsharded one —
    replicas hold the same shard encoding, so *where* a shard runs can
    never change *what* it computes."""
    rng = np.random.default_rng(0xC107)
    matrix = rng.integers(-100, 100, (24, 256))
    vector = rng.integers(-100, 100, 256)
    # node 0 hangs on its first two offloads, the rest are healthy
    injectors = [
        FaultInjector(hang_script=[True, True], seed=11),
        FaultInjector(seed=12),
        FaultInjector(seed=13),
    ]
    executor = ClusterExecutor(
        scheme128,
        matrix,
        config=ClusterConfig(nodes=3, replication=2, seed=3),
        fault_injectors=injectors,
    )
    ct_tiles = executor.encrypt_vector(vector)
    got = executor.execute(ct_tiles)
    _assert_bit_identical(got, _reference(scheme128, matrix, ct_tiles))
    report = executor.report()
    assert report.shard_retries >= 1
    assert report.rebalance_events >= 1
    assert report.dropped == 0
    assert report.degraded_shards == 0  # replicas absorbed every hang


def test_degraded_cpu_path_preserves_bit_identity(scheme128):
    """Even a full CPU degrade (every node hangs forever) returns the
    exact ciphertext: degradation reprices the shard, never recomputes
    it differently."""
    rng = np.random.default_rng(0xC108)
    matrix = rng.integers(-100, 100, (8, 128))
    vector = rng.integers(-100, 100, 128)
    injectors = [
        FaultInjector(hang_prob=1.0, resets_to_recover=10_000, seed=s)
        for s in (21, 22)
    ]
    executor = ClusterExecutor(
        scheme128,
        matrix,
        config=ClusterConfig(nodes=2, replication=2, max_retries=1, seed=4),
        fault_injectors=injectors,
    )
    ct = executor.encrypt_vector(vector)
    got = executor.execute(ct)
    _assert_bit_identical(got, _reference(scheme128, matrix, ct))
    report = executor.report()
    assert report.degraded_shards == len(executor.plan.shards)
    assert report.dropped == 0


def test_deadline_budget_degrades_without_an_attempt(scheme128):
    """A per-call deadline below any attempt's simulated cost stops
    failover before the first offload: every shard degrades to the CPU
    path untried, and the result is still bit-identical."""
    rng = np.random.default_rng(0xC109)
    matrix = rng.integers(-100, 100, (8, 128))
    vector = rng.integers(-100, 100, 128)
    executor = ClusterExecutor(
        scheme128,
        matrix,
        config=ClusterConfig(nodes=2, replication=2, seed=5),
    )
    ct = executor.encrypt_vector(vector)
    got = executor.execute(ct, deadline_ms=1e-9)
    _assert_bit_identical(got, _reference(scheme128, matrix, ct))
    assert np.array_equal(
        got.decrypt(scheme128), matrix.astype(object) @ vector.astype(object)
    )
    report = executor.report()
    assert report.shard_retries == 0
    assert set(report.per_node_busy_cycles.values()) == {0}
    assert report.cpu_fallback_cycles > 0
    assert report.degraded_shards == len(executor.plan.shards)
    assert report.dropped == 0
