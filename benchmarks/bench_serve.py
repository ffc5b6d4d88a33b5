"""Extension bench — serving-layer latency and goodput under faults.

CHAM's end-to-end story is a host serving heavy request traffic across
*two* compute engines with the CPU+FPGA pipeline overlapped; Chameleon
and FAME both locate the end-to-end win at this scheduling layer.  This
bench drives the async front-end (:mod:`repro.serve`) with a fixed
request list at a 5% injected device-hang rate and records:

* p50/p95/p99 total latency (wall clock, per completed request);
* wall goodput and *simulated* goodput (completed requests per device
  second, from the busiest engine's cycle counter — the deterministic
  multi-engine figure, independent of host GIL effects);
* the acceptance ratio: 2 engines must clear >= 1.5x the simulated
  goodput of 1 engine at micro-batch depth 8.

Results append to ``BENCH_serve.json`` via ``record_result``.
"""

import numpy as np
import pytest
from conftest import print_table, record_result

from repro.serve import ServeConfig, serve_requests

REQUESTS = 64
FAULT_RATE = 0.05
MAX_BATCH = 8


@pytest.fixture(scope="module")
def workload(bench_scheme, rng):
    matrix = rng.integers(-30, 30, (8, 128))
    vectors = [rng.integers(-30, 30, 128) for _ in range(REQUESTS)]
    cts = [bench_scheme.encrypt_vector(v) for v in vectors]
    return matrix, vectors, cts


def _serve(bench_scheme, workload, engines):
    matrix, _vectors, cts = workload
    config = ServeConfig(
        engines=engines,
        max_batch=MAX_BATCH,
        max_wait_ms=2.0,
        queue_capacity=REQUESTS,
        fault_rate=FAULT_RATE,
        max_retries=2,
        seed=11,
    )
    return serve_requests(bench_scheme, matrix, cts, config)


def test_serving_goodput_scales_with_engines(bench_scheme, workload):
    """Acceptance: >= 1.5x simulated goodput for 2 engines vs 1 at
    micro-batch depth 8, with zero dropped requests on both runs."""
    reports = {k: _serve(bench_scheme, workload, k) for k in (1, 2)}
    rows = []
    for k, rep in reports.items():
        assert rep.dropped == 0, f"{k}-engine run dropped requests"
        assert rep.completed == rep.submitted
        rows.append(
            (
                k,
                f"{rep.latency_ms(50):,.1f}",
                f"{rep.latency_ms(95):,.1f}",
                f"{rep.latency_ms(99):,.1f}",
                f"{rep.retries}",
                f"{rep.makespan_cycles:,}",
                f"{rep.goodput_sim_rps:,.0f}",
            )
        )
    print_table(
        f"Serving under {FAULT_RATE:.0%} fault injection "
        f"({REQUESTS} reqs, 8x128 matrix, batch {MAX_BATCH})",
        ["engines", "p50 ms", "p95 ms", "p99 ms", "retries",
         "makespan cyc", "goodput req/s (sim)"],
        rows,
    )
    ratio = reports[2].goodput_sim_rps / reports[1].goodput_sim_rps
    record_result(
        "serve",
        {
            "p50_ms_1e": reports[1].latency_ms(50),
            "p95_ms_1e": reports[1].latency_ms(95),
            "p99_ms_1e": reports[1].latency_ms(99),
            "p50_ms_2e": reports[2].latency_ms(50),
            "p95_ms_2e": reports[2].latency_ms(95),
            "p99_ms_2e": reports[2].latency_ms(99),
            "goodput_sim_rps_1e": reports[1].goodput_sim_rps,
            "goodput_sim_rps_2e": reports[2].goodput_sim_rps,
            "goodput_wall_rps_2e": reports[2].goodput_rps,
            "ratio_2e_vs_1e": ratio,
            "retries_1e": reports[1].retries,
            "retries_2e": reports[2].retries,
        },
        params={
            "requests": REQUESTS,
            "rows": 8,
            "cols": 128,
            "max_batch": MAX_BATCH,
            "fault_rate": FAULT_RATE,
        },
    )
    assert ratio >= 1.5, (
        f"2-engine goodput only {ratio:.2f}x the 1-engine figure "
        f"(busy cycles {reports[2].per_engine_busy_cycles})"
    )


def test_serving_survives_heavy_faults(bench_scheme, workload):
    """At a 30% hang rate every request still terminates: served,
    retried, or degraded to CPU — never dropped."""
    matrix, vectors, cts = workload
    config = ServeConfig(
        engines=2,
        max_batch=MAX_BATCH,
        queue_capacity=REQUESTS,
        fault_rate=0.30,
        max_retries=2,
        seed=13,
    )
    rep = serve_requests(bench_scheme, matrix, cts, config)
    assert rep.dropped == 0
    assert rep.completed == rep.submitted
    assert rep.retries > 0
    # spot-check exactness straight through the degraded path
    sample = [o for o in rep.outcomes if o.completed][:4]
    for o in sample:
        got = o.result.decrypt(bench_scheme)
        want = matrix.astype(object) @ vectors[o.request_id].astype(object)
        assert np.array_equal(got, want)
    print_table(
        "Heavy-fault serving (30% hang rate)",
        ["ok", "degraded", "retries", "p95 ms"],
        [(rep.ok, rep.degraded, rep.retries, f"{rep.latency_ms(95):,.1f}")],
    )
