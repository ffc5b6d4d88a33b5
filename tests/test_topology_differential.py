"""Differential topology tests (ISSUE 10): the fabric never touches bits.

The interconnect model charges *cycles* for ciphertext movement — it
must never change *what* moves.  These tests run the same pre-encrypted
requests through clusters wired over every topology (``None``, ideal,
ring, mesh, fat-tree) and assert the gathered RLWE ciphertexts are
bit-identical per RNS limb, while the bandwidth-limited fabrics charge
real network cycles for the privilege.

The encryption happens **once** per shape: the scheme RNG advances on
every ``encrypt_vector`` call, so serving the same ciphertexts to each
executor is what makes "identical digests" a statement about the
network layer rather than about encryption randomness.

Covers the static path and scripted node-hang failover (rerouted
shards ship extra scatter traffic but the same bits).
"""

import hashlib

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterExecutor,
    CommSpec,
    PartitionPlanner,
)
from repro.core.batch import BatchedHmvp
from repro.hw.runtime import FaultInjector

TOPOLOGIES = (None, "ideal", "ring", "mesh", "fat-tree")
#: bandwidth-starved knobs so real fabrics must charge nonzero cycles
NET = dict(link_bandwidth=8, link_latency=4, flit_bytes=64)

#: (rows, cols) at ring degree 128 — same intent as the cluster
#: differential shapes: row-only, multi-tile, mixed, beyond-ring
SHAPES = [
    (3, 1),
    (8, 256),
    (13, 384),
    (160, 128),
]


def _reference(scheme, matrix, ct_tiles):
    return BatchedHmvp(scheme, matrix).multiply_tiles(ct_tiles)


def _limb_digests(result):
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


def _executor(scheme, matrix, topology, **kwargs):
    net = dict(NET) if topology else {}
    return ClusterExecutor(
        scheme,
        matrix,
        config=ClusterConfig(
            nodes=kwargs.pop("nodes", 4),
            replication=kwargs.pop("replication", 2),
            seed=kwargs.pop("seed", 9),
            topology=topology,
            **net,
        ),
        **kwargs,
    )


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_all_topologies_bit_identical(scheme128, rows, cols):
    """Per RNS limb, every fabric gathers the unsharded engine's bits."""
    rng = np.random.default_rng(0x7090 + rows * 31 + cols)
    matrix = rng.integers(-100, 100, (rows, cols))
    vector = rng.integers(-100, 100, cols)
    seeder = _executor(scheme128, matrix, None)
    ct_tiles = seeder.encrypt_vector(vector)
    want = _limb_digests(_reference(scheme128, matrix, ct_tiles))
    for topology in TOPOLOGIES:
        executor = _executor(scheme128, matrix, topology)
        got = _limb_digests(executor.execute(ct_tiles))
        assert got == want, f"{topology} diverged from the unsharded bits"
        report = executor.report()
        assert report.dropped == 0
        if topology in ("ring", "mesh", "fat-tree"):
            assert report.network_cycles > 0, (
                f"{topology} charged nothing for scatter/gather"
            )
            assert report.network["flits_dropped"] == 0
            assert report.network["duplicates"] == 0
        else:
            assert report.network_cycles == 0
        # the planner prices exactly the traffic one fault-free request
        # ships: its replay makes the executor's inject/drain calls
        assert report.network_cycles == executor.planner.estimate_comm_cycles(
            executor.plan, 4
        ), topology


def test_failover_bit_identical_across_fabrics(scheme128):
    """Scripted hangs reroute shards to replicas on every fabric; the
    rerouted traffic (failover phase) costs cycles, never bits."""
    rng = np.random.default_rng(0x7091)
    matrix = rng.integers(-100, 100, (24, 256))
    vector = rng.integers(-100, 100, 256)
    seeder = _executor(scheme128, matrix, None, nodes=3)
    ct_tiles = seeder.encrypt_vector(vector)
    want = _limb_digests(_reference(scheme128, matrix, ct_tiles))
    for topology in TOPOLOGIES:
        injectors = [
            FaultInjector(hang_script=[True, True], seed=11),
            FaultInjector(seed=12),
            FaultInjector(seed=13),
        ]
        executor = _executor(
            scheme128, matrix, topology, nodes=3,
            fault_injectors=injectors,
        )
        got = _limb_digests(executor.execute(ct_tiles))
        assert got == want, f"{topology} failover changed the output"
        report = executor.report()
        assert report.shard_retries >= 1
        assert report.dropped == 0
        assert report.degraded_shards == 0
        if topology in ("ring", "mesh", "fat-tree"):
            phases = report.network["phases"]
            assert phases["failover"]["cycles"] > 0, (
                f"{topology} rerouted shards without reshipping tiles"
            )


def test_planner_prices_communication(scheme128):
    """Regression: scoring on compute makespan alone ties a wide-row
    grid with a tall one; a bandwidth-limited ring breaks the tie the
    other way, because every extra row band re-ships its column tiles.
    A planner without a ``CommSpec`` scores compute only."""
    from tests.oracles import plan_total_cycles

    ring_n = scheme128.params.n
    # a fat modulus chain on byte-per-cycle links: scatter traffic is
    # now on the same order as compute, so the grid choice must weigh it
    comm = CommSpec(kind="ring", bandwidth=1, latency=8, ct_limbs=6)
    priced = PartitionPlanner(ring_n, comm=comm)
    free = PartitionPlanner(ring_n)

    rows, cols, nodes = 13, 256, 3
    free_plan = free.plan(rows, cols, nodes=nodes)
    priced_plan = priced.plan(rows, cols, nodes=nodes)

    # without a fabric the planner prices no traffic at all
    assert free.estimate_comm_cycles(priced_plan, nodes) == 0
    assert free.estimate_comm_cycles(free_plan, nodes) == 0

    # the comm-free winner really does lose once scatter traffic is
    # priced: strictly more network cycles than the comm-aware winner
    assert priced.estimate_comm_cycles(priced_plan, nodes) < \
        priced.estimate_comm_cycles(free_plan, nodes)
    assert plan_total_cycles(priced, priced_plan, nodes) <= \
        plan_total_cycles(priced, free_plan, nodes)
    # and the comm term is what moved the decision: the finely
    # row-split grid that wins on compute balance re-ships its column
    # tiles to every node, so the priced search keeps fewer row bands
    assert priced_plan.to_dict() != free_plan.to_dict()
    assert priced_plan.row_bands < free_plan.row_bands
    assert priced.estimate_makespan(free_plan, nodes) < \
        priced.estimate_makespan(priced_plan, nodes)

    # pricing an *ideal* fabric never changes a planning decision
    ideal = PartitionPlanner(ring_n, comm=CommSpec(kind="ideal"))
    assert ideal.plan(rows, cols, nodes=nodes).to_dict() == \
        free_plan.to_dict()


#: the fabrics the planner prices: none, every builder at default links,
#: and the starved ring of the regression above
PLANNER_COMMS = {
    "none": None,
    "ideal": CommSpec(kind="ideal"),
    "ring": CommSpec(kind="ring"),
    "mesh": CommSpec(kind="mesh"),
    "fat-tree": CommSpec(kind="fat-tree"),
    "starved-ring": CommSpec(kind="ring", bandwidth=1, latency=8, ct_limbs=6),
}
#: (rows, cols) at ring degree 128: the starved-ring flip, a skinny
#: three-tile matrix and a one-tile one (18, 9 and 9 candidate grids)
PLANNER_SHAPES = [(13, 256), (3, 384), (9, 128)]


@pytest.mark.parametrize("fabric", sorted(PLANNER_COMMS))
def test_bounded_planner_returns_the_exhaustive_plan(fabric):
    """Replaying only the grids whose compute makespan can still win
    picks the plan scoring every grid picks, ties included.  The oracle
    shares the planner's replay cache (a pure function of grid and node
    count), so each grid is replayed once."""
    from tests.oracles import plan_exhaustive

    comm = PLANNER_COMMS[fabric]
    planner = PartitionPlanner(128, comm=comm)
    for rows, cols in PLANNER_SHAPES:
        for nodes in (1, 2, 3, 4):
            got = planner.plan(rows, cols, nodes=nodes)
            if comm is None:
                assert not planner._comm_cache
            want = plan_exhaustive(planner, rows, cols, nodes=nodes)
            assert got.to_dict() == want.to_dict(), (rows, cols, nodes)


def test_planner_replays_one_grid_on_the_benchmark_shape():
    """96x256 on four ring nodes has 18 candidate grids; the winner's
    total is below every other grid's compute makespan, so it is the
    only one replayed through the network simulator."""
    from tests.oracles import plan_exhaustive

    planner = PartitionPlanner(128, comm=CommSpec(kind="ring"))
    plan = planner.plan(96, 256, nodes=4)
    assert len(planner._comm_cache) == 1
    oracle = PartitionPlanner(128, comm=CommSpec(kind="ring"))
    assert plan.to_dict() == plan_exhaustive(oracle, 96, 256, nodes=4).to_dict()
    assert len(oracle._comm_cache) == 18
