"""Metamorphic cluster properties (ISSUE 5): the algebra behind sharding.

Four families, each a statement about *relations* between runs rather
than fixed expected values:

* **merge linearity** — the modular sum of column-shard partial LWE
  stacks equals the full matrix's partial, limb by limb over the
  ciphertext basis (q0, q1).  This is the precise sense in which the
  gather's additive merge is exact: rescale already happened per tile,
  and what remains is plain RNS addition;
* **partition invariance** — any two valid partition plans of the same
  matrix produce bit-identical gathered ciphertexts (the plan is a
  performance choice, never a semantic one);
* **replication invariance** — the replication degree and injected node
  hangs change *where* shards run, never the output: a faulty run with
  any replication equals the fault-free run bit for bit, with zero
  dropped shards;
* **replay determinism** — a run on a hang-injecting ring is a pure
  function of its seeds: two executors built from the same seeds give
  byte-identical result limbs and report JSON.

Placement's node-id tie-break is pinned at the end.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterExecutor,
    PartitionPlanner,
    ShardPlacement,
)
from repro.core.batch import BatchedHmvp
from repro.he.bfv import BfvScheme
from repro.he.params import toy_params
from repro.math.modular import modadd_vec
from tests.oracles import plan_from_cuts

RING = 128


def _assert_same_ciphertexts(got, want):
    assert len(got.packs) == len(want.packs)
    for g, w in zip(got.packs, want.packs):
        np.testing.assert_array_equal(g.ct.c0, w.ct.c0)
        np.testing.assert_array_equal(g.ct.c1, w.ct.c1)


# -- merge linearity ------------------------------------------------------


@given(
    rows=st.integers(min_value=1, max_value=16),
    col_tiles=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=6, deadline=None)
def test_column_shard_partials_sum_to_full_partial(
    scheme128, rows, col_tiles, seed
):
    """sum_c partial(A[:, c]) == partial(A) over each ciphertext limb."""
    rng = np.random.default_rng(seed)
    cols = col_tiles * RING
    matrix = rng.integers(-100, 100, (rows, cols))
    vector = rng.integers(-100, 100, cols)
    ct_tiles = [
        scheme128.encrypt_vector(vector[s : s + RING])
        for s in range(0, cols, RING)
    ]
    engine = BatchedHmvp(scheme128, matrix)
    hoisted = [engine.hoist(ct) for ct in ct_tiles]
    full_b, full_a = engine.multiply_partial(hoisted)[0]
    acc_b = acc_a = None
    for tile, start in enumerate(range(0, cols, RING)):
        band = matrix[:, start : start + RING]
        b, a = BatchedHmvp(scheme128, band).multiply_partial([hoisted[tile]])[0]
        if acc_b is None:
            acc_b, acc_a = b, a
        else:
            ct_basis = scheme128.ctx.ct_basis
            acc_b = np.stack(
                [modadd_vec(acc_b[i], b[i], q) for i, q in enumerate(ct_basis)]
            )
            acc_a = np.stack(
                [modadd_vec(acc_a[i], a[i], q) for i, q in enumerate(ct_basis)]
            )
    np.testing.assert_array_equal(acc_b, full_b)
    np.testing.assert_array_equal(acc_a, full_a)


# -- partition invariance -------------------------------------------------


def _random_plan(planner, rows, cols, rng):
    """A uniformly random *valid* plan: any row cuts, tile-aligned col cuts."""
    n_row_cuts = int(rng.integers(0, min(rows - 1, 3) + 1)) if rows > 1 else 0
    interior_rows = sorted(
        int(c) for c in rng.choice(
            np.arange(1, rows), size=n_row_cuts, replace=False
        )
    ) if n_row_cuts else []
    col_tiles = -(-cols // RING)
    tile_cut_choices = np.arange(1, col_tiles)
    n_col_cuts = (
        int(rng.integers(0, col_tiles)) if col_tiles > 1 else 0
    )
    interior_cols = sorted(
        int(c) * RING for c in rng.choice(
            tile_cut_choices, size=n_col_cuts, replace=False
        )
    ) if n_col_cuts else []
    return plan_from_cuts(
        planner,
        rows,
        cols,
        [0, *interior_rows, rows],
        [0, *interior_cols, cols],
    )


@given(
    rows=st.integers(min_value=2, max_value=20),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=6, deadline=None)
def test_partition_invariance(scheme128, rows, seed):
    """Two random valid plans for one matrix: identical ciphertexts."""
    rng = np.random.default_rng(seed)
    cols = 3 * RING
    matrix = rng.integers(-100, 100, (rows, cols))
    vector = rng.integers(-100, 100, cols)
    planner = PartitionPlanner(RING)
    plan_a = _random_plan(planner, rows, cols, rng)
    plan_b = _random_plan(planner, rows, cols, rng)
    # one encryption, reused: encryption is randomized, the data path is
    # deterministic — invariance is a statement about the latter
    ct_tiles = [
        scheme128.encrypt_vector(vector[s : s + RING])
        for s in range(0, cols, RING)
    ]
    results = []
    for plan in (plan_a, plan_b):
        executor = ClusterExecutor(
            scheme128,
            matrix,
            config=ClusterConfig(nodes=3, replication=1, seed=0),
            plan=plan,
        )
        results.append(executor.execute(ct_tiles))
    _assert_same_ciphertexts(results[0], results[1])


# -- replication invariance under faults ----------------------------------


@given(
    replication=st.integers(min_value=1, max_value=3),
    fault_seed=st.integers(min_value=0, max_value=2**16 - 1),
)
@settings(max_examples=6, deadline=None)
def test_replication_invariance_under_hangs(scheme128, replication, fault_seed):
    """Faulty runs at any replication degree equal the fault-free run."""
    rng = np.random.default_rng(0xFA11)
    matrix = rng.integers(-100, 100, (12, 2 * RING))
    vector = rng.integers(-100, 100, 2 * RING)
    ct_tiles = [
        scheme128.encrypt_vector(vector[s : s + RING])
        for s in range(0, 2 * RING, RING)
    ]

    def run(fault_rate, repl, seed):
        executor = ClusterExecutor(
            scheme128,
            matrix,
            config=ClusterConfig(
                nodes=3,
                replication=repl,
                fault_rate=fault_rate,
                seed=seed,
            ),
        )
        result = executor.execute(ct_tiles)
        return result, executor.report()

    clean, _ = run(0.0, 1, 0)
    faulty, report = run(0.35, replication, fault_seed)
    _assert_same_ciphertexts(faulty, clean)
    assert report.dropped == 0
    # every shard reached a terminal outcome on some resource
    assert report.shard_executions == report.shards_per_request


# -- replay determinism ---------------------------------------------------

REPLAY_SCHEME_SEED = 0xE1A57


def _limb_digests(result):
    return [
        hashlib.sha256(np.ascontiguousarray(limb).tobytes()).hexdigest()
        for pack in result.packs
        for component in (pack.ct.c0, pack.ct.c1)
        for limb in np.asarray(component)
    ]


def _ring_replay(seed):
    """One fully seeded run: 10x256 sharded 2x2 over 3 ring nodes with
    hang injection.  The scheme is rebuilt from a pinned seed each call,
    so equal ``seed`` means equal keys, encryption and fault rolls."""
    scheme = BfvScheme(
        toy_params(n=RING, plain_bits=40),
        seed=REPLAY_SCHEME_SEED,
        max_pack=RING,
    )
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-70, 70, (10, 2 * RING))
    executor = ClusterExecutor(
        scheme,
        matrix,
        config=ClusterConfig(
            nodes=3,
            replication=2,
            fault_rate=0.3,
            seed=seed,
            topology="ring",
        ),
        plan=plan_from_cuts(
            PartitionPlanner(RING), 10, 2 * RING, (0, 6, 10), (0, RING, 2 * RING)
        ),
    )
    requests = [
        executor.encrypt_vector(rng.integers(-70, 70, 2 * RING))
        for _ in range(5)
    ]
    digests = [_limb_digests(r) for r in executor.execute_batch(requests)]
    report = executor.report()
    assert report.shard_retries > 0, "no hang was injected"
    return digests, json.dumps(report.to_dict(), sort_keys=True)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_static_ring_replay_is_byte_identical(seed):
    """Same seeds, same bits and same report, failover included."""
    assert _ring_replay(seed) == _ring_replay(seed)


# -- placement ------------------------------------------------------------


def test_lpt_tie_break_is_by_node_id():
    """Equal-load ties break by node id explicitly, so plans are stable
    across Python versions, container orderings, and churn renumbering."""
    planner = PartitionPlanner(128)
    plan = plan_from_cuts(
        planner, 8, 512, (0, 4, 8), (0, 128, 256, 384, 512)
    )
    costs = [10] * len(plan.shards)
    placement = ShardPlacement.place(
        plan, nodes=3, replication=2, shard_costs=costs
    )
    primaries = [
        placement.nodes_for(s.shard_id)[0] for s in plan.shards
    ]
    # all-equal costs: LPT degrades to round-robin over ascending node id
    assert primaries == [0, 1, 2, 0, 1, 2, 0, 1]
