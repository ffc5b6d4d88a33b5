"""Extension bench — sharded cluster scale-out under node-hang faults.

One CHAM card is one engine pair; the cluster layer (:mod:`repro.cluster`)
scatters a partitioned matrix across K simulated accelerator nodes and
gathers bit-identical results.  This bench drives the same request list
through 1-, 2-, and 4-node clusters at a 5% injected node-hang rate and
records:

* simulated goodput (requests per device-clock second, from the busiest
  node's cycle counter — deterministic, host-GIL-free);
* failover traffic: shard retries, rebalance events, degraded shards;
* the acceptance ratio: 4 nodes must clear >= 1.8x the simulated
  throughput of 1 node, with zero dropped requests at every size.

Results append to ``BENCH_cluster.json`` via ``record_result``.
"""

import numpy as np
import pytest
from conftest import print_table, record_result

from repro.cluster import ClusterConfig, ClusterExecutor

REQUESTS = 12
ROWS, COLS = 96, 256
FAULT_RATE = 0.05
NODE_SIZES = (1, 2, 4)


@pytest.fixture(scope="module")
def workload(bench_scheme, rng):
    matrix = rng.integers(-30, 30, (ROWS, COLS))
    vectors = [rng.integers(-30, 30, COLS) for _ in range(REQUESTS)]
    return matrix, vectors


def _run_cluster(bench_scheme, workload, nodes):
    matrix, vectors = workload
    executor = ClusterExecutor(
        bench_scheme,
        matrix,
        config=ClusterConfig(
            nodes=nodes,
            replication=min(2, nodes),
            max_retries=1,
            fault_rate=FAULT_RATE,
            seed=17,
        ),
    )
    requests = [executor.encrypt_vector(v) for v in vectors]
    results = executor.execute_batch(requests)
    return executor, results


def test_cluster_throughput_scales_with_nodes(bench_scheme, workload):
    """Acceptance: >= 1.8x simulated throughput at 4 nodes vs 1 node
    under 5% node-hang injection, zero dropped requests everywhere."""
    matrix, vectors = workload
    reports = {}
    for nodes in NODE_SIZES:
        executor, results = _run_cluster(bench_scheme, workload, nodes)
        report = executor.report()
        assert report.dropped == 0, f"{nodes}-node run dropped shards"
        # exactness spot-check straight through the failover machinery
        got = results[0].decrypt(bench_scheme)[:ROWS]
        want = matrix.astype(object) @ vectors[0].astype(object)
        assert np.array_equal(got, want)
        reports[nodes] = report
    rows = [
        (
            nodes,
            len(rep.plan["shards"]) if isinstance(rep.plan["shards"], list)
            else rep.plan["shards"],
            f"{rep.shard_retries}",
            f"{rep.rebalance_events}",
            f"{rep.degraded_shards}",
            f"{rep.makespan_cycles:,}",
            f"{rep.goodput_sim_rps:,.1f}",
        )
        for nodes, rep in reports.items()
    ]
    print_table(
        f"Cluster scale-out under {FAULT_RATE:.0%} node-hang injection "
        f"({REQUESTS} reqs, {ROWS}x{COLS} matrix, replication 2)",
        ["nodes", "shards", "retries", "rebalanced", "degraded",
         "makespan cyc", "goodput req/s (sim)"],
        rows,
    )
    ratio = reports[4].goodput_sim_rps / reports[1].goodput_sim_rps
    record_result(
        "cluster",
        {
            "goodput_sim_rps_1n": reports[1].goodput_sim_rps,
            "goodput_sim_rps_2n": reports[2].goodput_sim_rps,
            "goodput_sim_rps_4n": reports[4].goodput_sim_rps,
            "makespan_cycles_1n": reports[1].makespan_cycles,
            "makespan_cycles_4n": reports[4].makespan_cycles,
            "ratio_4n_vs_1n": ratio,
            "shard_retries_4n": reports[4].shard_retries,
            "rebalance_events_4n": reports[4].rebalance_events,
            "degraded_shards_4n": reports[4].degraded_shards,
            "dropped_total": sum(r.dropped for r in reports.values()),
        },
        params={
            "requests": REQUESTS,
            "rows": ROWS,
            "cols": COLS,
            "fault_rate": FAULT_RATE,
            "replication": 2,
            "node_sizes": list(NODE_SIZES),
        },
    )
    assert ratio >= 1.8, (
        f"4-node throughput only {ratio:.2f}x the 1-node figure "
        f"(per-node busy {reports[4].per_node_busy_cycles})"
    )


def test_cluster_survives_heavy_node_hangs(bench_scheme, workload):
    """At a 30% hang rate every shard of every request still reaches a
    terminal outcome — served on a replica or degraded to CPU, never
    dropped — and the answers stay exact."""
    matrix, vectors = workload
    executor = ClusterExecutor(
        bench_scheme,
        matrix,
        config=ClusterConfig(
            nodes=4,
            replication=2,
            max_retries=2,
            fault_rate=0.30,
            seed=23,
        ),
    )
    requests = [executor.encrypt_vector(v) for v in vectors[:4]]
    results = executor.execute_batch(requests)
    report = executor.report()
    assert report.dropped == 0
    assert report.shard_retries > 0
    for result, vector in zip(results, vectors[:4]):
        got = result.decrypt(bench_scheme)[:ROWS]
        want = matrix.astype(object) @ vector.astype(object)
        assert np.array_equal(got, want)
    print_table(
        "Heavy-fault cluster (30% hang rate, 4 nodes)",
        ["executions", "retries", "rebalanced", "degraded"],
        [(report.shard_executions, report.shard_retries,
          report.rebalance_events, report.degraded_shards)],
    )
