"""Tests for pipeline trace capture and rendering."""

import json

import pytest

from repro.hw.arch import EngineConfig
from repro.hw.pipeline import MacroPipeline
from repro.hw.trace import (
    PipelineTrace,
    capture_trace,
    chrome_trace_events,
    render_gantt,
)


@pytest.fixture(scope="module")
def trace64():
    return capture_trace(EngineConfig(), rows=64)


def test_event_counts(trace64):
    assert len(trace64.dot_events) == 64
    assert len(trace64.pack_events) == 63


def test_events_are_ordered(trace64):
    cycles = [e.cycle for e in trace64.events]
    assert cycles == sorted(cycles)


def test_trace_levels_cover_tree(trace64):
    assert trace64.max_pack_level() == 6  # log2(64)
    per_level = {}
    for e in trace64.pack_events:
        per_level[e.detail] = per_level.get(e.detail, 0) + 1
    assert per_level == {1: 32, 2: 16, 3: 8, 4: 4, 5: 2, 6: 1}


def test_overlap_exists(trace64):
    """Pack reductions start while dot products still stream — the
    macro-pipeline overlap of Fig. 1b."""
    first_pack = min(e.cycle for e in trace64.pack_events)
    assert first_pack < trace64.dot_events[-1].cycle


def test_trace_agrees_with_stats(trace64):
    assert trace64.stats.reductions == len(trace64.pack_events)
    assert trace64.events[-1].cycle <= trace64.stats.total_cycles


def test_render_gantt(trace64):
    art = render_gantt(trace64, width=60)
    lines = art.splitlines()
    assert lines[0].startswith("cycles 0 ..")
    assert any(line.startswith("dot ") for line in lines)
    assert any(line.startswith("pack L1") for line in lines)
    assert any(line.startswith("pack L6") for line in lines)
    # the dot lane is busy from early on
    dot_line = next(line for line in lines if line.startswith("dot"))
    assert "#" in dot_line


def test_trace_with_column_tiles():
    trace = capture_trace(EngineConfig(), rows=8, col_tiles=2)
    # only fully-aggregated rows reach the pack side
    assert len(trace.dot_events) == 8
    assert trace.stats.dot_products == 16


def test_trace_carries_engine():
    """The trace remembers the engine it ran on, so lane durations come
    from that engine rather than the default one."""
    engine = EngineConfig(stage1_ntt_units=1)
    trace = capture_trace(engine, rows=8)
    assert trace.engine is engine
    custom = MacroPipeline(engine).dot_interval
    assert custom != MacroPipeline(EngineConfig()).dot_interval
    dots = [
        e for e in chrome_trace_events(trace)
        if e.get("ph") == "X" and e["name"].startswith("DOTPRODUCT")
    ]
    assert all(e["dur"] == custom for e in dots)


def test_render_gantt_engine_fallback(trace64):
    """A trace without an engine (old pickles) falls back to defaults."""
    legacy = PipelineTrace(stats=trace64.stats, events=trace64.events)
    assert legacy.engine is None
    assert render_gantt(legacy) == render_gantt(trace64)


def test_empty_trace():
    trace = PipelineTrace(stats=MacroPipeline(EngineConfig()).simulate_hmvp(1),
                          events=[])
    assert trace.max_pack_level() == 0
    art = render_gantt(trace)
    assert art.splitlines()[0].startswith("cycles 0 ..")
    assert "#" not in art
    assert chrome_trace_events(trace) != []  # still has the dot lane label


def test_single_event_trace():
    trace = capture_trace(EngineConfig(), rows=1)
    assert len(trace.dot_events) == 1
    assert trace.pack_events == []
    art = render_gantt(trace)
    dot_line = next(l for l in art.splitlines() if l.startswith("dot"))
    assert "#" in dot_line


def test_render_gantt_width_one(trace64):
    """width=1 must not index out of bounds or divide by zero."""
    art = render_gantt(trace64, width=1)
    for line in art.splitlines()[1:]:
        assert line.endswith("|")
        assert len(line.split("|")[1]) == 1


def test_chrome_trace_events_roundtrip(tmp_path, trace64):
    events = chrome_trace_events(trace64)
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps({"traceEvents": events}))
    loaded = json.loads(path.read_text())["traceEvents"]
    xs = [e for e in loaded if e["ph"] == "X"]
    ms = [e for e in loaded if e["ph"] == "M"]
    # one metadata label per lane: dot + each pack level
    assert len(ms) == 1 + trace64.max_pack_level()
    assert len(xs) == len(trace64.events)
    # ts monotonically non-decreasing within each track
    per_track = {}
    for e in xs:
        per_track.setdefault(e["tid"], []).append(e["ts"])
    for ts_list in per_track.values():
        assert ts_list == sorted(ts_list)
    # dot lane is tid 0; pack levels land on their own tids
    assert {e["tid"] for e in xs} == set(range(trace64.max_pack_level() + 1))
