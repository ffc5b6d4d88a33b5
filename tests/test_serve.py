"""Tests for the async fault-tolerant serving layer (repro.serve).

The load-bearing invariant throughout: *zero dropped* — every admitted
request reaches exactly one terminal outcome (ok / degraded / rejected /
deadline), under every injected fault pattern.
"""

import asyncio
import json
import math
import threading

import numpy as np
import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterExecutor
from repro.core.batch import BatchedHmvp
from repro.he.rlwe import RlweCiphertext
from repro.hw.runtime import FaultInjector
from repro.math.primes import find_ntt_prime
from repro.math.rns import RnsBasis
from repro.serve import (
    HmvpServer,
    RequestStatus,
    ServeConfig,
    ServeOutcome,
    ServeReport,
    serve_requests,
)


@pytest.fixture(scope="module")
def matrix8(scheme128):
    rng = np.random.default_rng(0x5E12)
    return rng.integers(-40, 40, (8, 128))


@pytest.fixture(scope="module")
def vectors8(scheme128):
    rng = np.random.default_rng(0x5E13)
    return [rng.integers(-40, 40, 128) for _ in range(12)]


@pytest.fixture(scope="module")
def cts8(scheme128, vectors8):
    return [scheme128.encrypt_vector(v) for v in vectors8]


def _expected(matrix, vector):
    return matrix.astype(object) @ vector.astype(object)


def test_clean_serving_completes_everything(scheme128, matrix8, vectors8, cts8):
    config = ServeConfig(engines=2, max_batch=4, queue_capacity=64, seed=1)
    rep = serve_requests(scheme128, matrix8, cts8, config)
    assert rep.submitted == len(cts8)
    assert rep.ok == len(cts8)
    assert rep.degraded == rep.rejected == rep.deadline_expired == 0
    assert rep.dropped == 0
    for o in rep.outcomes:
        assert o.status is RequestStatus.OK
        assert np.array_equal(
            o.result.decrypt(scheme128),
            _expected(matrix8, vectors8[o.request_id]),
        )
        assert o.total_ms >= 0.0
        assert o.engine in (0, 1)


def test_matrix_encoded_once_across_engines(scheme128, matrix8, cts8):
    config = ServeConfig(engines=3, max_batch=4, queue_capacity=64, seed=2)

    async def _run():
        server = HmvpServer(scheme128, matrix8, config)
        await server.start()
        futures = [await server.submit(ct) for ct in cts8[:4]]
        await asyncio.gather(*futures)
        await server.close()
        return server

    server = asyncio.run(_run())
    # one shared cache: the first engine encodes, the other two hit
    assert server.cache.misses == 1
    assert server.cache.hits == 2


@pytest.mark.parametrize(
    "cpus, engines, width", [(4, 1, 4), (4, 2, 2), (4, 3, 1), (2, 2, 1), (1, 2, 1)]
)
def test_engines_split_the_host_cpus(
    scheme128, matrix8, monkeypatch, cpus, engines, width
):
    """Each engine's multiply_batch pool gets its share of the CPUs the
    process may run on, and never less than one thread."""
    from repro.serve import server as server_module

    monkeypatch.setattr(server_module, "host_cpus", lambda: cpus)
    server = HmvpServer(scheme128, matrix8, ServeConfig(engines=engines))
    assert [w.engine.workers for w in server.workers] == [width] * engines


def test_scripted_faults_all_retried_to_success(scheme128, matrix8, vectors8, cts8):
    """Every first offload attempt hangs, every retry runs: all requests
    complete OK with exactly one retry each — deterministic, no
    probability in the loop."""
    config = ServeConfig(
        engines=1,
        max_batch=4,
        queue_capacity=64,
        max_retries=2,
        seed=3,
    )
    injectors = [FaultInjector(hang_script=[True, False] * len(cts8))]

    async def _run():
        server = HmvpServer(
            scheme128, matrix8, config, fault_injectors=injectors
        )
        await server.start()
        futures = [await server.submit(ct) for ct in cts8]
        outcomes = list(await asyncio.gather(*futures))
        await server.close()
        return server.report(outcomes, wall_s=1.0)

    rep = asyncio.run(_run())
    assert rep.ok == len(cts8)
    assert rep.dropped == 0
    assert all(o.retries == 1 for o in rep.outcomes)
    assert rep.engine_health[0].hangs_detected == len(cts8)


def test_exhausted_retries_degrade_to_cpu(scheme128, matrix8, vectors8, cts8):
    """A permanently-hanging device degrades every request to the CPU
    path; results stay exact and nothing is dropped."""
    config = ServeConfig(
        engines=2,
        max_batch=4,
        queue_capacity=64,
        fault_rate=1.0,
        max_retries=1,
        seed=4,
    )
    rep = serve_requests(scheme128, matrix8, cts8, config)
    assert rep.degraded == len(cts8)
    assert rep.ok == 0
    assert rep.dropped == 0
    for o in rep.outcomes:
        assert o.status is RequestStatus.DEGRADED
        assert o.retries == 1
        assert o.cycles > 0  # CPU-model priced
        assert np.array_equal(
            o.result.decrypt(scheme128),
            _expected(matrix8, vectors8[o.request_id]),
        )


def test_admission_sheds_on_full_queue(scheme128, matrix8, cts8):
    """Submissions beyond the bound resolve immediately as REJECTED and
    bump serve.rejected; admitted ones still complete."""
    obs.enable_metrics()
    obs.REGISTRY.reset()
    config = ServeConfig(
        engines=1, max_batch=2, queue_capacity=2, seed=5
    )

    async def _run():
        server = HmvpServer(scheme128, matrix8, config)
        await server.start()
        # submit() never suspends before enqueueing, so all eight land
        # before any worker runs: exactly queue_capacity are admitted
        futures = [await server.submit(ct) for ct in cts8[:8]]
        outcomes = list(await asyncio.gather(*futures))
        await server.close()
        return server.report(outcomes, wall_s=1.0)

    try:
        rep = asyncio.run(_run())
    finally:
        snap = obs.REGISTRY.snapshot()
        obs.disable_metrics()
    assert rep.rejected == 6
    assert rep.ok == 2
    assert rep.dropped == 0
    assert snap["counters"]["serve.rejected"] == 6
    assert snap["counters"]["serve.accepted"] == 2


def test_expired_deadline_is_reported_not_computed(scheme128, matrix8, cts8):
    config = ServeConfig(engines=1, max_batch=4, queue_capacity=64, seed=6)
    deadlines = [0.0, 0.0] + [None] * (len(cts8) - 2)
    rep = serve_requests(scheme128, matrix8, cts8, config, deadlines_ms=deadlines)
    assert rep.deadline_expired == 2
    assert rep.ok == len(cts8) - 2
    assert rep.dropped == 0
    expired = [o for o in rep.outcomes if o.status is RequestStatus.DEADLINE]
    assert all(o.result is None for o in expired)
    assert {o.request_id for o in expired} == {0, 1}


def test_load_balances_across_engines(scheme128, matrix8, cts8):
    """With equal-cost micro-batches, work-stealing keeps the engines'
    simulated busy cycles close to even."""
    config = ServeConfig(
        engines=2, max_batch=2, max_wait_ms=1.0, queue_capacity=64, seed=7
    )
    rep = serve_requests(scheme128, matrix8, cts8, config)
    busy = rep.per_engine_busy_cycles
    assert len(busy) == 2
    assert min(busy) > 0, "one engine never served anything"
    assert rep.makespan_cycles < sum(busy), "no overlap between engines"


def test_serve_metrics_and_spans(scheme128, matrix8, cts8):
    obs.enable_metrics()
    obs.REGISTRY.reset()
    obs.enable_tracing()
    try:
        config = ServeConfig(engines=1, max_batch=4, queue_capacity=64, seed=8)
        serve_requests(scheme128, matrix8, cts8[:4], config)
        snap = obs.REGISTRY.snapshot()
        names = {s.name for s in obs.TRACER.spans}
    finally:
        obs.disable_metrics()
        obs.disable_tracing()
    assert snap["counters"]["serve.accepted"] == 4
    assert snap["counters"]["serve.completed"] == 4
    assert snap["histograms"]["serve.latency.total_ms"]["count"] == 4
    assert snap["histograms"]["serve.batch.size"]["count"] >= 1
    assert "serve.batch" in names
    assert "serve.request" in names
    # per-stage latency percentiles are queryable off the registry
    hist = obs.REGISTRY.histogram("serve.latency.total_ms")
    assert hist.percentile(50) <= hist.percentile(99)


def test_report_invariants_and_dict_shape(scheme128, matrix8, cts8):
    config = ServeConfig(engines=2, max_batch=4, queue_capacity=64, seed=9)
    rep = serve_requests(scheme128, matrix8, cts8, config)
    d = rep.to_dict()
    assert d["submitted"] == d["ok"] + d["degraded"] + d["rejected"] + d["deadline"]
    assert d["dropped"] == 0
    assert d["latency_ms"]["p50"] <= d["latency_ms"]["p95"] <= d["latency_ms"]["p99"]
    assert d["sim"]["makespan_cycles"] == max(d["sim"]["per_engine_busy_cycles"])
    assert len(d["health"]) == 2


def test_rejects_multi_column_tile_matrix(scheme128):
    wide = np.ones((4, 300), dtype=np.int64)  # > ring degree 128
    with pytest.raises(ValueError, match="single-column-tile"):
        HmvpServer(scheme128, wide, ServeConfig(engines=1))


def test_submit_requires_augmented_ciphertext(scheme128, matrix8):
    config = ServeConfig(engines=1, queue_capacity=8, seed=10)

    async def _run():
        server = HmvpServer(scheme128, matrix8, config)
        await server.start()
        ct = scheme128.encrypt_vector(np.ones(128, dtype=np.int64))
        bad = ct.rescale()  # drop to the normal basis
        with pytest.raises(ValueError, match="augmented"):
            await server.submit(bad)
        await server.close()

    asyncio.run(_run())


def test_foreign_and_failed_requests_never_strand_the_server(
    scheme128, scheme256, matrix8, vectors8, cts8, monkeypatch
):
    """Regression: a ring-256 ciphertext passed an augmented-only check
    at ``submit``, then broke ``multiply_batch`` in the pool and killed
    the worker loop, so the valid request sharing its batch and every
    later one never resolved.  Foreign ciphertexts now fail at
    ``submit``; a batch that raises fails its own requests and the
    worker keeps serving."""
    config = ServeConfig(
        engines=1, max_batch=2, max_wait_ms=50.0, queue_capacity=8, seed=12
    )
    ct = cts8[0]
    moduli = tuple(find_ntt_prime(30, 128, skip=k) for k in range(3))
    other_basis = RlweCiphertext(ct.ctx, RnsBasis(moduli, 128), ct.c0, ct.c1)

    async def _run():
        server = HmvpServer(scheme128, matrix8, config)
        await server.start()
        ring256 = scheme256.encrypt_vector(np.ones(256, dtype=np.int64))
        with pytest.raises(ValueError, match="ring degree"):
            await server.submit(ring256)
        with pytest.raises(ValueError, match="modulus basis"):
            await server.submit(other_basis)

        engine = server.workers[0].engine
        multiply_batch = engine.multiply_batch
        calls = []

        def fail_once(cts):
            calls.append(len(cts))
            if len(calls) == 1:
                raise RuntimeError("injected batch failure")
            return multiply_batch(cts)

        monkeypatch.setattr(engine, "multiply_batch", fail_once)
        doomed = [await server.submit(c) for c in cts8[:2]]
        for future in doomed:
            with pytest.raises(RuntimeError, match="injected"):
                await future
        later = await (await server.submit(cts8[2]))
        await server.close()
        return calls, later

    calls, later = asyncio.run(asyncio.wait_for(_run(), timeout=120))
    assert calls == [2, 1]  # both doomed requests shared the failed batch
    assert later.status is RequestStatus.OK
    assert np.array_equal(
        later.result.decrypt(scheme128), _expected(matrix8, vectors8[2])
    )


def _serve_engine_threads():
    return {t for t in threading.enumerate() if t.name.startswith("serve-engine")}


def test_serve_requests_closes_the_server_when_a_batch_fails(
    scheme128, matrix8, cts8, monkeypatch
):
    """Regression: a failed batch made serve_requests raise before it
    closed the server, so the engine pool thread outlived the call and
    the batch-mates' errors were never retrieved.  The error still
    propagates; the server is closed on the way out."""
    before = _serve_engine_threads()

    def fail(self, cts):
        raise RuntimeError("injected batch failure")

    monkeypatch.setattr(BatchedHmvp, "multiply_batch", fail)
    config = ServeConfig(engines=1, max_batch=2, queue_capacity=8, seed=14)
    with pytest.raises(RuntimeError, match="injected"):
        serve_requests(scheme128, matrix8, cts8[:4], config)
    assert not _serve_engine_threads() - before


def test_submit_refuses_a_server_that_is_not_running(scheme128, matrix8, cts8):
    """Regression: submit before start() or after close() returned a
    future no worker would ever resolve.  It now raises RuntimeError."""
    config = ServeConfig(engines=1, queue_capacity=8, seed=15)

    async def outcome(server, ct):
        return await (await server.submit(ct))

    async def _run():
        server = HmvpServer(scheme128, matrix8, config)
        with pytest.raises(RuntimeError, match="not running"):
            await asyncio.wait_for(outcome(server, cts8[0]), timeout=5)
        await server.start()
        served = await asyncio.wait_for(outcome(server, cts8[0]), timeout=60)
        await server.close()
        with pytest.raises(RuntimeError, match="not running"):
            await asyncio.wait_for(outcome(server, cts8[1]), timeout=5)
        return served

    served = asyncio.run(_run())
    assert served.status is RequestStatus.OK


@pytest.mark.parametrize(
    "layer, field, value",
    [
        ("serve", "queue_capacity", 0),
        ("serve", "max_batch", 0),
        ("serve", "max_retries", -1),
        ("cluster", "max_retries", -1),
        ("cluster", "replication", 0),
        ("cluster", "replication", 2),
    ],
)
def test_configs_reject_values_that_break_their_policy(
    scheme128, matrix8, layer, field, value
):
    """queue_capacity 0 would make the admission queue unbounded,
    max_batch 0 would silently mean batches of one, a negative retry
    budget would make one attempt in serve and none in the cluster, and
    a replication outside 1..nodes cannot be placed as asked: each
    raises at construction."""
    with pytest.raises(ValueError, match=field):
        if layer == "serve":
            HmvpServer(scheme128, matrix8, ServeConfig(engines=1, **{field: value}))
        else:
            ClusterExecutor(
                scheme128, matrix8, config=ClusterConfig(nodes=1, **{field: value})
            )


def test_serve_and_cluster_share_one_offload_policy(scheme128, matrix8, cts8):
    """A one-engine server and a one-node cluster fed the same hang
    script make the same attempts: equal busy cycles, equal failed
    attempts and the same CPU-path price for the request that degrades."""
    # request 0: one retry; 1: two; 2: three hangs, degraded; 3-5: clean
    script = [True, False, True, True, False, True, True, True]
    requests = cts8[:6]
    config = ServeConfig(
        engines=1, max_batch=4, queue_capacity=64, max_retries=2, seed=16
    )

    async def _run():
        server = HmvpServer(
            scheme128,
            matrix8,
            config,
            fault_injectors=[FaultInjector(hang_script=script)],
        )
        await server.start()
        futures = [await server.submit(ct) for ct in requests]
        outcomes = list(await asyncio.gather(*futures))
        await server.close()
        return server.report(outcomes, wall_s=1.0)

    served = asyncio.run(_run())
    executor = ClusterExecutor(
        scheme128,
        matrix8,
        config=ClusterConfig(nodes=1, replication=1, max_retries=2, seed=16),
        fault_injectors=[FaultInjector(hang_script=script)],
    )
    for ct in requests:
        executor.execute(ct)
    sharded = executor.report()

    assert sharded.shards_per_request == 1
    assert [o.retries for o in served.outcomes] == [1, 2, 2, 0, 0, 0]
    assert served.per_engine_busy_cycles == [sharded.per_node_busy_cycles[0]]
    assert served.retries + served.degraded == sharded.shard_retries == 6
    assert served.degraded == sharded.degraded_shards == 1
    (degraded,) = [
        o for o in served.outcomes if o.status is RequestStatus.DEGRADED
    ]
    assert degraded.request_id == 2
    assert degraded.cycles == sharded.cpu_fallback_cycles > 0


def test_empty_run_report():
    rep = ServeReport(
        outcomes=[], wall_s=0.0, engine_health=[],
        per_engine_busy_cycles=[], clock_hz=300e6,
        config=ServeConfig(),
    )
    assert rep.goodput_sim_rps == 0.0
    assert rep.dropped == 0


def test_empty_run_percentiles_are_not_zero():
    """Regression: with zero completed requests the percentiles used to
    report a fake 0.0 ms — "instant", passing any latency alert.  An
    empty population has no percentile: ``latency_ms`` returns NaN and
    ``to_dict`` emits JSON null."""
    rep = ServeReport(
        outcomes=[], wall_s=0.0, engine_health=[],
        per_engine_busy_cycles=[], clock_hz=300e6,
        config=ServeConfig(),
    )
    for p in (50, 95, 99):
        assert math.isnan(rep.latency_ms(p))
    payload = rep.to_dict()
    assert payload["latency_ms"] == {"p50": None, "p95": None, "p99": None}
    # the payload must stay strict-JSON round-trippable (nan is not JSON)
    assert json.loads(
        json.dumps(payload, allow_nan=False)
    )["latency_ms"]["p95"] is None


def test_completed_run_percentiles_still_numeric(scheme128, matrix8):
    """The guard only fires on the empty population: a normal run keeps
    real numbers in both the accessor and the JSON payload."""
    config = ServeConfig(engines=1, queue_capacity=8, seed=3)
    vectors = [np.arange(128) % 7, np.ones(128, dtype=np.int64)]
    cts = [scheme128.encrypt_vector(v) for v in vectors]
    report = serve_requests(scheme128, matrix8, cts, config)
    assert report.completed == 2
    p95 = report.latency_ms(95)
    assert p95 > 0 and not math.isnan(p95)
    assert report.to_dict()["latency_ms"]["p95"] == p95
