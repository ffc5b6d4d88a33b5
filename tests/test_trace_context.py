"""Distributed-trace continuity: one request == one connected trace tree.

The tentpole claim of the tracing layer is that a request keeps a single
``trace_id`` across every hop — serving queue, executor thread pool, the
cluster scatter/failover/gather path, and each node's device runtime —
so the Chrome export shows one connected tree per request with per-node
``pid`` lanes and flow links across reroutes.  These tests drive real
serving and cluster runs (with scripted node hangs) and assert that
connectivity on the recorded spans, not on mocks.
"""

import threading

import numpy as np
import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterExecutor
from repro.hw.runtime import FaultInjector


@pytest.fixture()
def traced():
    """Tracing on, spans cleared; global state restored by conftest."""
    obs.TRACER.reset()
    obs.enable_tracing()
    yield obs.TRACER
    obs.disable_tracing()


def _spans_by_trace(spans):
    by_trace = {}
    for s in spans:
        if s.trace_id:
            by_trace.setdefault(s.trace_id, []).append(s)
    return by_trace


def _assert_connected(trace_spans):
    """Every parented span's parent exists in the same trace."""
    ids = {s.span_id for s in trace_spans}
    roots = [s for s in trace_spans if not s.parent_id]
    assert roots, "trace has no root span"
    for s in trace_spans:
        if s.parent_id:
            assert s.parent_id in ids, (
                f"span {s.name} parent {s.parent_id} missing from its trace"
            )


# -- context plumbing ---------------------------------------------------------


def test_context_propagates_to_nested_spans(traced):
    ctx = traced.new_trace()
    with obs.use_context(ctx):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
    outer, inner = {s.name: s for s in traced.spans}["outer"], \
        {s.name: s for s in traced.spans}["inner"]
    assert outer.trace_id == inner.trace_id == ctx.trace_id
    assert inner.parent_id == outer.span_id
    assert outer.parent_id == ""  # the minted context has no span yet


def test_run_with_context_bridges_thread_hops(traced):
    """Worker threads do not inherit contextvars; the explicit bridge
    must carry the request context across the pool hop."""
    ctx = traced.new_trace()
    done = threading.Event()

    def work():
        with obs.span("hopped"):
            done.set()

    t = threading.Thread(target=obs.run_with_context, args=(ctx, work))
    t.start()
    t.join()
    assert done.is_set()
    (spn,) = [s for s in traced.spans if s.name == "hopped"]
    assert spn.trace_id == ctx.trace_id


def test_current_context_restored_after_span(traced):
    assert obs.current_context() is None
    with obs.span("a"):
        inside = obs.current_context()
        assert inside is not None and inside.trace_id == ""
    assert obs.current_context() is None


# -- runtime ------------------------------------------------------------------


def test_runtime_attempt_spans_join_the_job_trace(traced):
    """An offload's attempt spans carry the ambient trace id and the
    runtime's pid lane — including the failed (hung) attempt — and the
    retry links back to the first attempt."""
    from repro.hw.runtime import FpgaRuntime, offload

    faults = FaultInjector(hang_script=[True, False])
    rt = FpgaRuntime(faults=faults, lane=5)
    ctx = traced.new_trace()
    with obs.use_context(ctx):
        offload(
            [(rt, 0)],
            rows=4,
            cols=128,
            ring_n=128,
            tag=0,
            max_retries=2,
            deadline_ms=60_000.0,
            clock_hz=rt.cfg.clock_hz,
        )
    attempts = [s for s in traced.spans if s.name == "hw.offload.attempt"]
    assert len(attempts) == 2  # the hang and the successful retry
    assert {s.trace_id for s in attempts} == {ctx.trace_id}
    assert {s.pid for s in attempts} == {5}
    outcomes = [s.args.get("outcome") for s in attempts]
    assert outcomes == ["hang", "ok"]
    assert attempts[1].links == (attempts[0].span_id,)


# -- serving layer ------------------------------------------------------------


def test_serve_exports_one_connected_tree_per_request(traced, scheme128, rng):
    from repro.serve import ServeConfig, serve_requests

    matrix = rng.integers(-8, 8, (4, 128))
    cts = [
        scheme128.encrypt_vector(rng.integers(-8, 8, 128)) for _ in range(6)
    ]
    config = ServeConfig(engines=2, max_batch=2, queue_capacity=8, seed=5)
    report = serve_requests(scheme128, matrix, cts, config)
    assert report.completed == report.submitted == 6

    by_trace = _spans_by_trace(traced.spans)
    request_traces = {
        s.trace_id for s in traced.spans if s.name == "serve.request"
    }
    assert len(request_traces) == 6  # one trace per submitted request
    for trace_id in request_traces:
        tree = by_trace[trace_id]
        _assert_connected(tree)
        # the request's work crossed into an engine lane (pid > 0)
        assert any(s.pid > 0 for s in tree), (
            f"trace {trace_id} never reached an engine lane"
        )
    # coordinator and engine lanes are named for the Chrome export
    events = traced.chrome_events()
    lanes = {
        e["pid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert lanes.get(0) == "serve.coordinator"
    assert "engine0" in lanes.values() and "engine1" in lanes.values()


# -- cluster layer (the acceptance scenario) ----------------------------------


@pytest.fixture()
def hang_cluster(scheme128):
    """3-node cluster where node 0 hangs on its first two offloads."""
    rng = np.random.default_rng(0xC107)
    matrix = rng.integers(-100, 100, (24, 256))
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
    return executor, matrix, rng


def test_cluster_hang_run_exports_connected_traces(traced, hang_cluster):
    """Acceptance: a cluster run with scripted node hangs exports one
    connected trace per request, every request's trace reaches at least
    one node lane, and the failover reroute is linked to the original
    attempt."""
    executor, matrix, rng = hang_cluster
    for _ in range(2):
        vector = rng.integers(-100, 100, matrix.shape[1])
        executor.execute(executor.encrypt_vector(vector))
    assert executor.report().shard_retries >= 1  # the script fired

    by_trace = _spans_by_trace(traced.spans)
    request_traces = {
        s.trace_id for s in traced.spans if s.name == "cluster.request"
    }
    assert len(request_traces) == 2
    for trace_id in request_traces:
        tree = by_trace[trace_id]
        _assert_connected(tree)
        assert any(s.pid > 0 for s in tree), (
            f"trace {trace_id} has no node-lane span"
        )
        # kernel spans run *inside* the node lane via the pinned context
        assert any(
            s.pid > 0 and s.name == "cluster.shard.compute" for s in tree
        )

    # the rerouted attempt links back to the original (hung) attempt
    attempts = [s for s in traced.spans if s.name == "hw.offload.attempt"]
    hung = [s for s in attempts if s.args.get("outcome") == "hang"]
    rerouted = [s for s in attempts if s.links]
    assert hung and rerouted
    hung_ids = {s.span_id for s in hung}
    linked = [s for s in rerouted if set(s.links) & hung_ids]
    assert linked, "no reroute links back to a hung attempt"
    for s in linked:
        original = next(h for h in hung if h.span_id in s.links)
        assert s.trace_id == original.trace_id  # same request, same trace
        assert s.pid != original.pid  # and a different node lane


def test_cluster_chrome_export_has_lanes_and_flows(traced, hang_cluster):
    executor, matrix, rng = hang_cluster
    vector = rng.integers(-100, 100, matrix.shape[1])
    executor.execute(executor.encrypt_vector(vector))
    events = traced.chrome_events()

    lanes = {
        e["pid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert lanes.get(0) == "cluster.coordinator"
    assert {"node0", "node1", "node2"} <= set(lanes.values())
    # work actually rendered into node lanes, not just the coordinator
    x_pids = {e["pid"] for e in events if e["ph"] == "X"}
    assert x_pids & {1, 2, 3}

    flows = [e for e in events if e["ph"] in ("s", "f")]
    assert flows, "no flow events in the export"
    starts = {e["id"] for e in flows if e["ph"] == "s"}
    finishes = {e["id"] for e in flows if e["ph"] == "f"}
    assert starts == finishes  # every flow arrow has both ends
    for e in flows:
        if e["ph"] == "f":
            assert e.get("bp") == "e"  # bind to the enclosing slice


def test_degrade_span_links_to_original_attempt(traced, scheme128):
    """A full CPU degrade still lands in the request's trace and links
    back to the first device attempt."""
    rng = np.random.default_rng(0xC108)
    matrix = rng.integers(-100, 100, (8, 128))
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
    executor.execute(executor.encrypt_vector(rng.integers(-100, 100, 128)))
    assert executor.report().degraded_shards == len(executor.plan.shards)

    degrades = [s for s in traced.spans if s.name == "hw.offload.degrade"]
    attempts = {
        s.span_id: s
        for s in traced.spans
        if s.name == "hw.offload.attempt"
    }
    assert degrades
    for s in degrades:
        assert s.trace_id  # in the request's trace, not orphaned
        assert s.links and all(link in attempts for link in s.links)
