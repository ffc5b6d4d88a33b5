"""Pipeline trace capture and ASCII rendering (the Fig. 1b view).

:func:`capture_trace` runs one macro-pipeline job with event recording
on; :func:`render_gantt` folds the events into a fixed-width ASCII
timeline — one lane for the dot-product stages, one per pack-tree level
— so the overlap/preemption structure the paper draws in Fig. 1b can be
eyeballed in a terminal (and asserted in tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .arch import EngineConfig
from .pipeline import MacroPipeline, PipelineStats

__all__ = [
    "TraceEvent",
    "PipelineTrace",
    "capture_trace",
    "render_gantt",
    "chrome_trace_events",
]


@dataclass(frozen=True)
class TraceEvent:
    cycle: int
    kind: str  # "dot" | "pack"
    detail: int  # row index, or pack-tree level


@dataclass
class PipelineTrace:
    stats: PipelineStats
    events: List[TraceEvent]
    #: the engine the trace was captured on; lane durations in
    #: :func:`render_gantt` / :func:`chrome_trace_events` come from here
    #: (``None`` falls back to the default engine, for old pickles/tests)
    engine: Optional[EngineConfig] = None

    @property
    def dot_events(self) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == "dot"]

    @property
    def pack_events(self) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == "pack"]

    def max_pack_level(self) -> int:
        return max((e.detail for e in self.pack_events), default=0)


def capture_trace(
    engine: EngineConfig, rows: int, col_tiles: int = 1
) -> PipelineTrace:
    """Run one job with tracing enabled."""
    raw: List[Tuple[int, str, int]] = []
    stats = MacroPipeline(engine).simulate_hmvp(rows, col_tiles, trace=raw)
    events = [TraceEvent(*e) for e in sorted(raw)]
    return PipelineTrace(stats=stats, events=events, engine=engine)


def render_gantt(trace: PipelineTrace, width: int = 72) -> str:
    """ASCII timeline: '#' marks activity in each lane's time bucket."""
    total = max(trace.stats.total_cycles, 1)
    scale = total / width

    def lane(events: List[TraceEvent], duration: int) -> str:
        cells = [" "] * width
        for e in events:
            # an event retiring exactly at total_cycles still gets a cell
            start = min(int(e.cycle / scale), width - 1)
            end = min(int((e.cycle + duration) / scale) + 1, width)
            for i in range(start, end):
                if 0 <= i < width:
                    cells[i] = "#"
        return "".join(cells)

    # durations from the engine the trace actually ran on
    pipe = MacroPipeline(trace.engine if trace.engine is not None else EngineConfig())
    dot_dur = trace.stats.total_cycles // max(len(trace.dot_events), 1)
    dot_dur = min(dot_dur, pipe.dot_interval)
    lines = [
        f"cycles 0 .. {trace.stats.total_cycles:,} "
        f"({trace.stats.rows} rows, {trace.stats.reductions} reductions)"
    ]
    lines.append(f"dot    |{lane(trace.dot_events, dot_dur)}|")
    for level in range(1, trace.max_pack_level() + 1):
        events = [e for e in trace.pack_events if e.detail == level]
        lines.append(f"pack L{level}|{lane(events, pipe.pack_interval)}|")
    return "\n".join(lines)


def chrome_trace_events(trace: PipelineTrace) -> List[Dict[str, Any]]:
    """The trace as Chrome trace-event dicts (1 cycle rendered as 1 µs).

    Track 0 is the dot-product lane (stages 1-4); track ``k`` holds the
    level-``k`` PACKTWOLWES reductions, so chrome://tracing / Perfetto
    shows the same lanes as :func:`render_gantt`, zoomable.  Wrap the
    returned list as ``{"traceEvents": [...]}`` before writing to disk
    (the CLI's ``trace --trace-out`` does this).
    """
    pipe = MacroPipeline(trace.engine if trace.engine is not None else EngineConfig())
    events: List[Dict[str, Any]] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "dot products (stages 1-4)"},
        }
    ]
    for level in range(1, trace.max_pack_level() + 1):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": level,
                "args": {"name": f"pack level {level} (stages 5-9)"},
            }
        )
    for e in trace.events:
        if e.kind == "dot":
            events.append(
                {
                    "name": f"DOTPRODUCT row {e.detail}",
                    "cat": "pipeline",
                    "ph": "X",
                    "ts": e.cycle,
                    "dur": pipe.dot_interval,
                    "pid": 0,
                    "tid": 0,
                    "args": {"row": e.detail, "cycle": e.cycle},
                }
            )
        else:
            events.append(
                {
                    "name": f"PACKTWOLWES L{e.detail}",
                    "cat": "pipeline",
                    "ph": "X",
                    "ts": e.cycle,
                    "dur": pipe.pack_interval,
                    "pid": 0,
                    "tid": e.detail,
                    "args": {"level": e.detail, "cycle": e.cycle},
                }
            )
    return events
