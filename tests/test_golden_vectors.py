"""Golden-vector regression for the HMVP pipeline (ISSUE 3).

``tests/vectors/hmvp_golden.json`` freezes one pinned-seed end-to-end
run: scheme seed, matrix, vector, the expected decrypted dot products,
and per-limb SHA-256 digests of the bit-packed ciphertext limbs (the
encrypted input and the packed result).  The replay test regenerates
the run from the stored seeds and compares everything — any drift in
key generation, encryption randomness, the NTT/pack pipeline, or the
wire format shows up as a digest mismatch here before it shows up as a
silent protocol break.

Regenerate (after an *intentional* format change) with::

    PYTHONPATH=src python tests/test_golden_vectors.py --regen
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.cluster import ClusterConfig, ClusterExecutor, PartitionPlan
from repro.core.batch import BatchedHmvp
from repro.he.bfv import BfvScheme
from repro.he.params import toy_params
from repro.he.serialization import pack_limbs
from repro.hw.runtime import FaultInjector

VECTOR_FILE = Path(__file__).parent / "vectors" / "hmvp_golden.json"

SCHEME_SEED = 0x601D  # pinned: changing it invalidates the golden file
DATA_SEED = 0x601D1
ROWS, COLS = 6, 128

# cluster-path golden run (ISSUE 5): same pinned scheme seed, its own
# data seed and a mixed row x column shard grid so the scatter, the
# additive merge, and the central pack are all on the frozen path
CLUSTER_DATA_SEED = 0x601D2
CLUSTER_ROWS, CLUSTER_COLS = 10, 256
CLUSTER_ROW_CUTS = (0, 6, 10)
CLUSTER_COL_CUTS = (0, 128, 256)


def _build():
    scheme = BfvScheme(
        toy_params(n=COLS, plain_bits=40), seed=SCHEME_SEED, max_pack=COLS
    )
    rng = np.random.default_rng(DATA_SEED)
    matrix = rng.integers(-100, 100, (ROWS, COLS))
    vector = rng.integers(-100, 100, COLS)
    return scheme, matrix, vector


def _limb_digests(ct):
    """SHA-256 of each limb's bit-packed wire bytes, both components."""
    out = []
    for component, limbs in (("c0", ct.c0), ("c1", ct.c1)):
        for i, q in enumerate(ct.basis.moduli):
            blob = pack_limbs(limbs[i : i + 1], (q,))
            out.append(
                {
                    "component": component,
                    "limb": i,
                    "modulus": str(q),
                    "sha256": hashlib.sha256(blob).hexdigest(),
                }
            )
    return out


def _generate():
    scheme, matrix, vector = _build()
    ct_v = scheme.encrypt_vector(vector)
    result = BatchedHmvp.once(scheme, matrix, [ct_v])
    products = result.decrypt(scheme)[:ROWS]
    return {
        "description": (
            "Pinned-seed HMVP golden run: BfvScheme(toy n=128, 40-bit "
            "plaintext) seed 0x601D, data seed 0x601D1, 6x128 matrix."
        ),
        "params": {
            "n": COLS,
            "plain_bits": 40,
            "scheme_seed": SCHEME_SEED,
            "data_seed": DATA_SEED,
            "rows": ROWS,
            "cols": COLS,
        },
        "matrix": matrix.tolist(),
        "vector": vector.tolist(),
        "expected_products": [int(x) for x in products],
        "input_ct_digests": _limb_digests(ct_v),
        "result_ct_digests": _limb_digests(result.packs[0].ct),
    }


def _build_cluster():
    """A fresh scheme per generation keeps the legacy section's RNG
    streams untouched — the cluster run never perturbs the old digests."""
    scheme = BfvScheme(
        toy_params(n=COLS, plain_bits=40), seed=SCHEME_SEED, max_pack=COLS
    )
    rng = np.random.default_rng(CLUSTER_DATA_SEED)
    matrix = rng.integers(-100, 100, (CLUSTER_ROWS, CLUSTER_COLS))
    vector = rng.integers(-100, 100, CLUSTER_COLS)
    return scheme, matrix, vector


def _cluster_plan():
    """The pinned 2x2 shard grid the cluster sections replay."""
    return PartitionPlan(
        rows=CLUSTER_ROWS,
        cols=CLUSTER_COLS,
        ring_n=COLS,
        row_cuts=CLUSTER_ROW_CUTS,
        col_cuts=CLUSTER_COL_CUTS,
    )


def _generate_cluster():
    scheme, matrix, vector = _build_cluster()
    plan = _cluster_plan()
    executor = ClusterExecutor(
        scheme,
        matrix,
        config=ClusterConfig(nodes=3, replication=2, seed=0),
        plan=plan,
    )
    ct_tiles = executor.encrypt_vector(vector)
    result = executor.execute(ct_tiles)
    products = result.decrypt(scheme)[:CLUSTER_ROWS]
    return {
        "description": (
            "Pinned-seed cluster-path golden run: same scheme seed, data "
            "seed 0x601D2, 10x256 matrix sharded 2x2 (row cuts 0/6/10, "
            "column cut at the 128-coefficient tile boundary) over 3 "
            "nodes — freezes scatter, additive merge, and central pack."
        ),
        "params": {
            "n": COLS,
            "plain_bits": 40,
            "scheme_seed": SCHEME_SEED,
            "data_seed": CLUSTER_DATA_SEED,
            "rows": CLUSTER_ROWS,
            "cols": CLUSTER_COLS,
            "row_cuts": list(CLUSTER_ROW_CUTS),
            "col_cuts": list(CLUSTER_COL_CUTS),
            "nodes": 3,
            "replication": 2,
        },
        "matrix": matrix.tolist(),
        "vector": vector.tolist(),
        "expected_products": [int(x) for x in products],
        "input_ct_digests": [
            d for ct in ct_tiles for d in _limb_digests(ct)
        ],
        "result_ct_digests": _limb_digests(result.packs[0].ct),
    }


# network-simulation golden run (ISSUE 10): same pinned scheme seed, a
# fourth data seed, the cluster shard grid over a 4-node 2x2 mesh with
# bandwidth-limited links.  Freezes the discrete-event schedule itself:
# per-phase flit counts, the coordinator's network-cycle bill, and the
# sha256 of the full event trace.  Any change to routing, arbitration
# order, credit timing, or flit sizing lands here as a digest mismatch.
NETSIM_DATA_SEED = 0x601D4
NETSIM_REQUESTS = 2
NETSIM_TOPOLOGY = "mesh"
NETSIM_BANDWIDTH = 8
NETSIM_LATENCY = 4
NETSIM_FLIT_BYTES = 64


def _build_netsim():
    scheme = BfvScheme(
        toy_params(n=COLS, plain_bits=40), seed=SCHEME_SEED, max_pack=COLS
    )
    rng = np.random.default_rng(NETSIM_DATA_SEED)
    matrix = rng.integers(-100, 100, (CLUSTER_ROWS, CLUSTER_COLS))
    vectors = [
        rng.integers(-100, 100, CLUSTER_COLS)
        for _ in range(NETSIM_REQUESTS)
    ]
    return scheme, matrix, vectors


def _replay_netsim(config, fault_injectors=None):
    """The netsim inputs through the cluster shard grid on ``config``."""
    scheme, matrix, vectors = _build_netsim()
    plan = _cluster_plan()
    executor = ClusterExecutor(
        scheme,
        matrix,
        config=config,
        plan=plan,
        fault_injectors=fault_injectors,
    )
    cts = [executor.encrypt_vector(v) for v in vectors]
    results = executor.execute_batch(cts)
    report = executor.report()
    net = report.network
    return results, report, net


def _run_netsim():
    results, report, net = _replay_netsim(
        ClusterConfig(
            nodes=4,
            replication=2,
            seed=0,
            topology=NETSIM_TOPOLOGY,
            link_bandwidth=NETSIM_BANDWIDTH,
            link_latency=NETSIM_LATENCY,
            flit_bytes=NETSIM_FLIT_BYTES,
        )
    )
    return {
        "result_ct_digests": [
            _limb_digests(r.packs[0].ct) for r in results
        ],
        "network_cycles": report.network_cycles,
        "compute_makespan_cycles": report.compute_makespan_cycles,
        "trace_sha256": net["trace_sha256"],
        "flits_injected": net["flits_injected"],
        "flits_delivered": net["flits_delivered"],
        "flits_dropped": net["flits_dropped"],
        "blocked_attempts": net["blocked_attempts"],
        "max_queue_depth": net["max_queue_depth"],
        "phases": {
            name: {
                "cycles": row["cycles"],
                "flits": row["flits"],
                "messages": row["messages"],
                "nbytes": row["nbytes"],
            }
            for name, row in net["phases"].items()
        },
    }


def _generate_netsim():
    _scheme, matrix, vectors = _build_netsim()
    return {
        "description": (
            "Pinned-seed network-simulation golden run: same scheme "
            "seed, data seed 0x601D4, the cluster shard grid over a "
            "4-node 2x2 mesh (8 B/cycle links, latency 4, 64-byte "
            "flits).  Freezes per-phase flit counts, the network-cycle "
            "bill, and the sha256 of the full event trace."
        ),
        "params": {
            "n": COLS,
            "plain_bits": 40,
            "scheme_seed": SCHEME_SEED,
            "data_seed": NETSIM_DATA_SEED,
            "rows": CLUSTER_ROWS,
            "cols": CLUSTER_COLS,
            "row_cuts": list(CLUSTER_ROW_CUTS),
            "col_cuts": list(CLUSTER_COL_CUTS),
            "nodes": 4,
            "replication": 2,
            "requests": NETSIM_REQUESTS,
            "topology": NETSIM_TOPOLOGY,
            "bandwidth": NETSIM_BANDWIDTH,
            "latency": NETSIM_LATENCY,
            "flit_bytes": NETSIM_FLIT_BYTES,
        },
        "matrix": matrix.tolist(),
        "vectors": [v.tolist() for v in vectors],
        "run": _run_netsim(),
    }


# ring-fabric golden run: the netsim inputs and shard grid over a 4-node
# ring at default link parameters, with node 0's first job scripted to
# hang.  The ring's cw/ccw channels take the bubble rule (two credits to
# enter a channel) and the hang sends a failover resend over the fabric,
# two paths the mesh run above never takes.
NETSIM_RING_HANG_SCRIPT = (True,)


def _run_netsim_ring():
    injectors = [FaultInjector(hang_script=NETSIM_RING_HANG_SCRIPT)] + [
        FaultInjector() for _ in range(3)
    ]
    results, report, net = _replay_netsim(
        ClusterConfig(nodes=4, replication=2, seed=0, topology="ring"),
        fault_injectors=injectors,
    )
    return {
        "result_ct_digests": [
            _limb_digests(r.packs[0].ct) for r in results
        ],
        "network_cycles": report.network_cycles,
        "shard_retries": report.shard_retries,
        "trace_sha256": net["trace_sha256"],
        "events": net["events"],
        "flits_injected": net["flits_injected"],
        "flits_delivered": net["flits_delivered"],
        "duplicates": net["duplicates"],
        "blocked_attempts": net["blocked_attempts"],
        "max_queue_depth": net["max_queue_depth"],
        "phases": {
            name: {"cycles": row["cycles"], "flits": row["flits"]}
            for name, row in net["phases"].items()
        },
    }


def _generate_netsim_ring():
    return {
        "description": (
            "Pinned-seed ring-fabric golden run: the netsim section's "
            "inputs and shard grid over a 4-node ring (default links: "
            "64 B/cycle, latency 4, 64-byte flits, 4-flit buffers), "
            "node 0's first job scripted to hang.  Freezes the bubble "
            "rule on the ring channels and the failover phase: the "
            "event-trace sha256, blocked attempts, the network-cycle "
            "bill and per-phase flits and cycles."
        ),
        "params": {
            "inputs": "netsim",
            "nodes": 4,
            "replication": 2,
            "topology": "ring",
            "hang_script": {"node": 0, "script": list(NETSIM_RING_HANG_SCRIPT)},
        },
        "run": _run_netsim_ring(),
    }


def _generate_all():
    payload = _generate()
    payload["cluster"] = _generate_cluster()
    payload["netsim"] = _generate_netsim()
    payload["netsim_ring"] = _generate_netsim_ring()
    return payload


def _load():
    with VECTOR_FILE.open() as fh:
        return json.load(fh)


def test_golden_inputs_regenerate_identically():
    """The stored matrix/vector come back bit-identical from the pinned
    seeds — separates 'NumPy RNG stream drifted' from 'pipeline broke'
    when the digest test below fails."""
    _scheme, matrix, vector = _build()
    golden = _load()
    assert golden["params"]["scheme_seed"] == SCHEME_SEED
    assert golden["params"]["data_seed"] == DATA_SEED
    assert matrix.tolist() == golden["matrix"]
    assert vector.tolist() == golden["vector"]


def test_golden_products_are_the_true_dot_products():
    """The frozen expectations themselves satisfy A @ v (exact integer
    arithmetic) — the golden file cannot encode a wrong answer."""
    golden = _load()
    matrix = np.array(golden["matrix"], dtype=object)
    vector = np.array(golden["vector"], dtype=object)
    assert (matrix @ vector).tolist() == golden["expected_products"]


def test_golden_replay_matches_products_and_digests():
    golden = _load()
    fresh = _generate()
    assert fresh["expected_products"] == golden["expected_products"]
    assert fresh["input_ct_digests"] == golden["input_ct_digests"]
    assert fresh["result_ct_digests"] == golden["result_ct_digests"]


def test_golden_scalar_oracle_matches_the_legacy_digests():
    """The scalar per-row oracle packs the very ciphertext the engine
    does: the legacy section pins both."""
    from tests.oracles import hmvp_oracle

    golden = _load()
    scheme, matrix, vector = _build()
    result = hmvp_oracle(scheme, matrix, [scheme.encrypt_vector(vector)])
    assert _limb_digests(result.packs[0].ct) == golden["result_ct_digests"]


def test_golden_digest_shape():
    """Digests cover every limb of both components for both objects:
    the augmented input (q0, q1, p) and the rescaled result (q0, q1)."""
    golden = _load()
    assert len(golden["input_ct_digests"]) == 2 * 3
    assert len(golden["result_ct_digests"]) == 2 * 2
    for entry in golden["input_ct_digests"] + golden["result_ct_digests"]:
        assert len(entry["sha256"]) == 64


def test_cluster_golden_inputs_regenerate_identically():
    _scheme, matrix, vector = _build_cluster()
    golden = _load()["cluster"]
    assert golden["params"]["scheme_seed"] == SCHEME_SEED
    assert golden["params"]["data_seed"] == CLUSTER_DATA_SEED
    assert matrix.tolist() == golden["matrix"]
    assert vector.tolist() == golden["vector"]


def test_cluster_golden_products_are_the_true_dot_products():
    golden = _load()["cluster"]
    matrix = np.array(golden["matrix"], dtype=object)
    vector = np.array(golden["vector"], dtype=object)
    t = toy_params(n=COLS, plain_bits=40).plain_modulus
    half = t // 2
    centered = [((int(x) + half) % t) - half for x in matrix @ vector]
    assert centered == golden["expected_products"]


def test_cluster_golden_replay_matches_products_and_digests():
    """The sharded scatter/merge/pack path replays bit-identically from
    the pinned seeds — drift in the partition, placement, or gather
    algebra lands here before it lands in production traffic."""
    golden = _load()["cluster"]
    fresh = _generate_cluster()
    assert fresh["expected_products"] == golden["expected_products"]
    assert fresh["input_ct_digests"] == golden["input_ct_digests"]
    assert fresh["result_ct_digests"] == golden["result_ct_digests"]


def test_cluster_golden_digest_shape():
    """Two augmented input tiles (q0, q1, p each) and one rescaled
    result pack (q0, q1)."""
    golden = _load()["cluster"]
    assert len(golden["input_ct_digests"]) == 2 * 2 * 3
    assert len(golden["result_ct_digests"]) == 2 * 2
    for entry in golden["input_ct_digests"] + golden["result_ct_digests"]:
        assert len(entry["sha256"]) == 64


def test_netsim_golden_inputs_regenerate_identically():
    _scheme, matrix, vectors = _build_netsim()
    golden = _load()["netsim"]
    assert golden["params"]["scheme_seed"] == SCHEME_SEED
    assert golden["params"]["data_seed"] == NETSIM_DATA_SEED
    assert matrix.tolist() == golden["matrix"]
    assert [v.tolist() for v in vectors] == golden["vectors"]


def test_netsim_golden_replay_matches_trace_and_flits():
    """The event simulation replays cycle-for-cycle from the pinned
    seeds: per-phase flit counts, the network-cycle bill, and the full
    event-trace sha256.  Ciphertext digest drift means the crypto moved;
    trace drift with stable ciphertexts means the *network model* moved
    (routing, arbitration, credit timing, flit sizing) — either demands
    an intentional --regen."""
    golden = _load()["netsim"]["run"]
    fresh = _run_netsim()
    assert fresh["result_ct_digests"] == golden["result_ct_digests"]
    assert fresh["trace_sha256"] == golden["trace_sha256"]
    assert fresh == golden


def test_netsim_golden_conservation_and_contention():
    """The frozen run itself is evidence: a contended mesh (blocked
    head-flit attempts, full buffers) that still drops and duplicates
    nothing."""
    run = _load()["netsim"]["run"]
    assert run["flits_dropped"] == 0
    assert run["flits_injected"] == run["flits_delivered"] > 0
    assert run["blocked_attempts"] > 0
    assert run["network_cycles"] > 0
    assert len(run["trace_sha256"]) == 64
    flits_by_phase = sum(p["flits"] for p in run["phases"].values())
    assert flits_by_phase == run["flits_injected"]


def test_netsim_golden_bits_match_free_comm():
    """The pinned mesh run's per-limb digests equal a free-comm replay's
    — the golden file cannot encode a fabric that changed the bits."""
    golden = _load()["netsim"]["run"]
    scheme, matrix, vectors = _build_netsim()
    plan = _cluster_plan()
    executor = ClusterExecutor(
        scheme,
        matrix,
        config=ClusterConfig(nodes=4, replication=2, seed=0),
        plan=plan,
    )
    cts = [executor.encrypt_vector(v) for v in vectors]
    results = executor.execute_batch(cts)
    digests = [_limb_digests(r.packs[0].ct) for r in results]
    assert digests == golden["result_ct_digests"]


def test_netsim_ring_golden_replay_matches_trace_and_phases():
    """The ring run replays event for event: trace sha256, blocked
    attempts, the network-cycle bill and per-phase flits and cycles.
    Drift here with the mesh section intact means the bubble rule or
    the failover traffic moved."""
    golden = _load()["netsim_ring"]["run"]
    fresh = _run_netsim_ring()
    assert fresh["trace_sha256"] == golden["trace_sha256"]
    assert fresh == golden


def test_netsim_ring_golden_takes_the_bubble_and_failover_paths():
    """The frozen run covers what the mesh run cannot: a contended ring
    whose scripted hang ships a failover resend, conserving every flit,
    with the same result bits as the mesh section."""
    golden = _load()
    run = golden["netsim_ring"]["run"]
    assert run["shard_retries"] == 1
    assert run["phases"]["failover"]["flits"] > 0
    assert run["blocked_attempts"] > 0
    assert run["flits_injected"] == run["flits_delivered"] > 0
    assert run["duplicates"] == 0
    assert sum(p["flits"] for p in run["phases"].values()) == (
        run["flits_injected"]
    )
    assert run["network_cycles"] == sum(
        p["cycles"] for p in run["phases"].values()
    )
    assert run["result_ct_digests"] == golden["netsim"]["run"][
        "result_ct_digests"
    ]


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit("refusing to overwrite golden vectors without --regen")
    VECTOR_FILE.parent.mkdir(parents=True, exist_ok=True)
    VECTOR_FILE.write_text(json.dumps(_generate_all(), indent=2) + "\n")
    print(f"wrote {VECTOR_FILE}")
