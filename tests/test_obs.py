"""Tests for the observability layer: metrics registry and span tracer."""

import json
import threading

import pytest

from repro import obs
from repro.obs import MetricsRegistry, Tracer
from repro.obs.tracing import _NULL_SPAN


@pytest.fixture(autouse=True)
def _clean_defaults():
    """Leave the process-wide default instances in their off state."""
    yield
    obs.disable_metrics()
    obs.REGISTRY.reset()
    obs.disable_tracing()
    obs.TRACER.reset()


# -- instruments --------------------------------------------------------------


def test_counter_monotonic():
    reg = MetricsRegistry()
    reg.inc("a")
    reg.inc("a", 5)
    assert reg.counter("a").value == 6
    with pytest.raises(ValueError):
        reg.counter("a").inc(-1)


def test_gauge_last_value_wins():
    reg = MetricsRegistry()
    reg.set_gauge("g", 1.0)
    reg.set_gauge("g", -3.5)
    assert reg.gauge("g").value == -3.5


def test_histogram_streaming_stats():
    reg = MetricsRegistry()
    for v in (2.0, 8.0, 5.0):
        reg.observe("h", v)
    h = reg.histogram("h")
    assert h.count == 3
    assert h.mean == pytest.approx(5.0)
    assert h.summary() == {
        "count": 3, "sum": 15.0, "mean": 5.0, "min": 2.0, "max": 8.0,
    }


def test_empty_histogram_summary_is_defined():
    h = MetricsRegistry().histogram("h")
    assert h.mean == 0.0
    assert h.summary()["count"] == 0


def test_histogram_reservoir_sees_the_late_tail():
    """Regression: the old reservoir kept only the first 65,536 samples,
    so a latency tail arriving after warm-up never moved the percentiles.
    Algorithm R keeps every sample's inclusion probability uniform, so a
    late 50% tail of slow observations must dominate the upper
    percentiles (seeded RNG — deterministic)."""
    from repro.obs.metrics import Histogram

    h = Histogram("lat")
    cap = Histogram.RESERVOIR_CAP
    for _ in range(cap):
        h.observe(1.0)
    # pre-fix these percentiles were frozen at 1.0 forever after
    assert h.percentile(99) == 1.0
    for _ in range(cap):
        h.observe(100.0)
    assert h.count == 2 * cap
    assert h.max == 100.0
    # ~half the reservoir is now late-tail samples; the upper percentiles
    # must reflect them while the lower ones still see the early phase
    assert h.percentile(99) == 100.0
    assert h.percentile(90) == 100.0
    assert h.percentile(10) == 1.0


def test_histogram_reservoir_is_deterministic():
    """Two same-named histograms fed the same stream agree exactly (the
    RNG is seeded from the instrument name)."""
    from repro.obs.metrics import Histogram

    def fill(h):
        for i in range(Histogram.RESERVOIR_CAP + 5000):
            h.observe(float(i))
        return sorted(h._values)

    assert fill(Histogram("a")) == fill(Histogram("a"))


def test_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.gauge("y") is reg.gauge("y")
    assert reg.histogram("z") is reg.histogram("z")


# -- registry behaviour -------------------------------------------------------


def test_disabled_registry_is_a_noop():
    reg = MetricsRegistry(enabled=False)
    reg.inc("a")
    reg.set_gauge("g", 1.0)
    reg.observe("h", 1.0)
    assert len(reg) == 0


def test_snapshot_shape_and_reset():
    reg = MetricsRegistry()
    reg.inc("c", 2)
    reg.set_gauge("g", 7.0)
    reg.observe("h", 1.0)
    snap = reg.snapshot()
    assert snap["counters"] == {"c": 2}
    assert snap["gauges"] == {"g": 7.0}
    assert snap["histograms"]["h"]["count"] == 1
    json.dumps(snap)  # must be JSON-serializable
    reg.reset()
    assert len(reg) == 0
    assert reg.enabled  # reset keeps the switch


def test_registry_thread_safety():
    reg = MetricsRegistry()

    def work():
        for _ in range(1000):
            reg.inc("shared")

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.counter("shared").value == 8000


def test_default_registry_enable_disable():
    assert not obs.REGISTRY.enabled
    obs.inc("off")  # no-op while disabled
    reg = obs.enable_metrics()
    assert reg is obs.REGISTRY and reg.enabled
    obs.inc("on", 3)
    assert reg.counter("on").value == 3
    assert "off" not in reg.snapshot()["counters"]
    obs.disable_metrics()
    obs.inc("on")
    assert reg.counter("on").value == 3


# -- tracer -------------------------------------------------------------------


def test_disabled_tracer_returns_shared_null_span():
    assert obs.span("x") is _NULL_SPAN
    with obs.span("x") as s:
        s.set(k=1)  # must exist and do nothing
    assert len(obs.TRACER) == 0


def test_span_nesting_depth():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    by_name = {s.name: s for s in tr.spans}
    assert by_name["outer"].depth == 0
    assert by_name["inner"].depth == 1
    assert by_name["inner"].ts_us >= by_name["outer"].ts_us
    assert by_name["inner"].dur_us <= by_name["outer"].dur_us


def test_span_args_and_set():
    tr = Tracer()
    with tr.span("op", rows=8) as s:
        s.set(result="ok")
    (spn,) = tr.spans
    assert spn.args == {"rows": 8, "result": "ok"}


def test_add_span_synthetic_timebase():
    tr = Tracer()
    tr.add_span("DOT", ts_us=100.0, dur_us=50.0, track=3, row=7)
    (spn,) = tr.spans
    assert (spn.ts_us, spn.dur_us, spn.track) == (100.0, 50.0, 3)
    assert spn.args == {"row": 7}


def test_chrome_events_metadata_and_order():
    tr = Tracer()
    tr.name_process(0, "lane one")
    tr.add_span("b", ts_us=20.0, dur_us=1.0, track=1)
    tr.add_span("a", ts_us=10.0, dur_us=1.0, track=1)
    events = tr.chrome_events()
    assert events[0]["ph"] == "M"
    assert events[0]["args"]["name"] == "lane one"
    xs = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in xs] == ["a", "b"]
    for e in xs:
        assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(e)


def test_chrome_export_roundtrip(tmp_path):
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    tr.add_span("sim", ts_us=0.0, dur_us=5.0, track=9)
    path = tmp_path / "trace.json"
    tr.export_chrome_trace(str(path))
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    assert len([e for e in events if e["ph"] == "X"]) == 3
    # ts is monotonically non-decreasing within each track
    per_track = {}
    for e in events:
        if e["ph"] == "X":
            per_track.setdefault(e["tid"], []).append(e["ts"])
    for ts_list in per_track.values():
        assert ts_list == sorted(ts_list)


def test_tracer_reset():
    tr = Tracer()
    with tr.span("x"):
        pass
    assert len(tr) == 1
    tr.reset()
    assert len(tr) == 0


def test_spans_from_threads_get_distinct_tracks():
    tr = Tracer()
    barrier = threading.Barrier(3)  # keep all threads alive at once so
    # the OS cannot reuse thread identities between them

    def work():
        barrier.wait()
        with tr.span("threaded"):
            barrier.wait()

    threads = [threading.Thread(target=work) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    tracks = {s.track for s in tr.spans}
    assert len(tracks) == 3


# -- instrumentation wiring ---------------------------------------------------


def test_ntt_and_noise_instrumentation_end_to_end():
    """Running a small HMVP with the default instances on populates NTT
    counters, the noise-budget gauge, and the required span names."""
    import numpy as np

    from repro.core.batch import BatchedHmvp
    from repro.he.bfv import BfvScheme
    from repro.he.noise import packed_slot_positions
    from repro.he.params import toy_params

    reg = obs.enable_metrics()
    obs.enable_tracing()
    rows = 4
    params = toy_params(n=64, plain_bits=30)
    scheme = BfvScheme(params, seed=3, max_pack=rows)
    rng = np.random.default_rng(3)
    matrix = rng.integers(-8, 8, (rows, params.n))
    vector = rng.integers(-8, 8, params.n)
    result = BatchedHmvp.once(scheme, matrix, [scheme.encrypt_vector(vector)])
    scheme.noise_budget(
        result.packs[0].ct, packed_slot_positions(params.n, rows)
    )
    snap = reg.snapshot()
    assert snap["counters"]["math.ntt.forward"] > 0
    assert snap["counters"]["he.pack.reductions"] == rows - 1
    assert snap["gauges"]["he.noise.budget_bits"] > 0
    names = {s.name for s in obs.TRACER.spans}
    assert {"NTT", "MULTPOLY", "INTT", "RESCALE+EXTRACT", "PACK"} <= names


def test_pipeline_and_runtime_instrumentation():
    from repro.hw.arch import EngineConfig
    from repro.hw.pipeline import MacroPipeline
    from repro.hw.runtime import FpgaRuntime

    reg = obs.enable_metrics()
    MacroPipeline(EngineConfig()).simulate_hmvp(256)
    snap = reg.snapshot()
    assert snap["counters"]["hw.pipeline.reductions"] == 255
    assert 0 < snap["gauges"]["hw.pipeline.dot_occupancy"] <= 1
    # the runtime simulates its own pipeline jobs on top
    runtime = FpgaRuntime()
    runtime.poll_once(runtime.submit(16))
    runtime.health()
    snap = reg.snapshot()
    assert snap["counters"]["hw.pipeline.reductions"] > 255
    assert snap["gauges"]["hw.runtime.jobs_completed"] == 1
    assert snap["gauges"]["hw.runtime.healthy"] == 1.0


# -- thread-safety under worker pools ------------------------------------------


def test_registry_concurrent_increments_are_exact():
    """N workers hammering one counter must lose no increments."""
    from concurrent.futures import ThreadPoolExecutor

    reg = MetricsRegistry()

    def work(_):
        for _ in range(500):
            reg.inc("c")
            reg.observe("h", 1.0)
        return True

    with ThreadPoolExecutor(max_workers=8) as pool:
        assert all(pool.map(work, range(8)))
    assert reg.counter("c").value == 8 * 500
    assert reg.histogram("h").count == 8 * 500


def test_tracer_concurrent_spans_keep_thread_nesting():
    """Each worker's spans nest within its own track; none are lost."""
    from concurrent.futures import ThreadPoolExecutor

    tracer = Tracer(enabled=True)

    def work(i):
        with tracer.span("outer", worker=i):
            with tracer.span("inner", worker=i):
                pass
        return True

    with ThreadPoolExecutor(max_workers=4) as pool:
        assert all(pool.map(work, range(12)))
    outers = [s for s in tracer.spans if s.name == "outer"]
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(outers) == 12 and len(inners) == 12
    for s in inners:
        assert s.depth == 1  # nested under that thread's outer, not another's


def test_tracer_readers_race_writers_without_corruption():
    """Regression: ``name_process``/``chrome_events``/``__len__`` used to
    read shared dicts and the span list without the lock, so a reader
    iterating while a writer recorded raised ``RuntimeError: dictionary
    changed size during iteration`` (nondeterministically under
    ``-n auto``).  Hammer all of them at once; nothing may raise and no
    span may be lost."""
    from concurrent.futures import ThreadPoolExecutor

    tracer = Tracer(enabled=True)
    spans_per_writer, writers, readers = 200, 4, 3

    def write(i):
        for j in range(spans_per_writer):
            tracer.name_process(j % 7, f"lane{j % 7}")
            with tracer.span("w", worker=i, j=j):
                pass
        return True

    def read(_):
        for _ in range(150):
            events = tracer.chrome_events()
            assert len(tracer) >= 0
            assert all("ph" in e for e in events)
        return True

    with ThreadPoolExecutor(max_workers=writers + readers) as pool:
        futures = [pool.submit(write, i) for i in range(writers)]
        futures += [pool.submit(read, i) for i in range(readers)]
        assert all(f.result() for f in futures)
    assert len(tracer) == writers * spans_per_writer


def test_batched_engine_counters_exact_under_pool():
    """The batched HMVP worker pool reports the same counter totals as a
    serial run (per-request work is identical, just interleaved).

    40 requests against the 4-row matrix form two request groups (32
    and 8), so the pooled run really fans out."""
    import numpy as np

    from repro.core.batch import BatchedHmvp, EncodedMatrixCache
    from repro.he.bfv import BfvScheme
    from repro.he.params import toy_params

    scheme = BfvScheme(toy_params(n=64, plain_bits=30), seed=5, max_pack=4)
    rng = np.random.default_rng(5)
    matrix = rng.integers(-8, 8, (4, 64))
    cache = EncodedMatrixCache()
    cts = [scheme.encrypt_vector(rng.integers(-8, 8, 64)) for _ in range(40)]

    def run(workers):
        engine = BatchedHmvp(scheme, matrix, cache=cache, workers=workers)
        assert len(cts) > engine._group_size()
        reg = obs.enable_metrics()
        try:
            engine.multiply_batch(cts)
            return reg.snapshot()["counters"]
        finally:
            obs.disable_metrics()
            obs.REGISTRY.reset()

    serial = run(1)
    pooled = run(4)
    # both runs execute the same (request group, row tile) tasks, so
    # every total, kernel dispatches included, agrees exactly
    assert pooled == serial
    assert pooled["math.modmul.coefficients"] == serial["math.modmul.coefficients"]
    assert pooled["he.keyswitch.calls"] == serial["he.keyswitch.calls"]
    assert pooled["he.pack.reductions"] == serial["he.pack.reductions"]
    assert pooled["batch.requests"] == 40
    assert pooled["he.pack.calls"] == 40
