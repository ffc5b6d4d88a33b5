"""Discrete-event simulation of the 9-stage macro-pipeline (Section III-A).

Job model for one HMVP of ``rows`` rows (and ``col_tiles`` column tiles):

* stage 1 first transforms the 6 augmented vector-ciphertext polynomials
  (a one-off fill); thereafter one *dot product* (stages 1-4: plaintext
  NTT, MULTPOLY, INTT, RESCALE+EXTRACTLWES) retires every
  ``dot_product_interval`` cycles;
* with multiple column tiles a row needs ``col_tiles`` dot products whose
  LWE results are aggregated before packing — the Fig. 6 "n >= m"
  throughput penalty;
* extracted LWEs enter the *reduce buffer*; the single PACKTWOLWES module
  (stages 5-9) executes one reduction per ``pack_interval`` cycles,
  *preferring the deepest available reduction* — the paper's "intermediate
  reduction results ... preempt the pipeline";
* when the reduce buffer is full, stage 4 stalls and every later dot
  product slips — the "stalls the execution of the preceding stages"
  behaviour, which the stats expose as ``stall_cycles``.

The simulator is cycle-accurate at stage granularity (the paper's
macro-pipeline units of thousands of cycles), not at FU granularity —
:mod:`repro.hw.ntt_datapath` covers the inside of an NTT unit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import REGISTRY as _METRICS
from .arch import ChamConfig, EngineConfig

__all__ = ["PipelineStats", "MacroPipeline", "simulate_multi_engine"]


@dataclass
class PipelineStats:
    """Outcome of one simulated HMVP on one engine."""

    rows: int
    col_tiles: int
    total_cycles: int
    dot_products: int
    reductions: int
    preemptions: int
    stall_cycles: int
    reduce_buffer_peak: int
    dot_busy_cycles: int
    pack_busy_cycles: int

    @property
    def dot_utilization(self) -> float:
        return self.dot_busy_cycles / max(self.total_cycles, 1)

    @property
    def pack_utilization(self) -> float:
        return self.pack_busy_cycles / max(self.total_cycles, 1)

    def throughput_rows_per_sec(self, clock_hz: float) -> float:
        return self.rows * clock_hz / max(self.total_cycles, 1)

    def record_metrics(self, registry=None) -> None:
        """Export this run into a metrics registry (default: the global).

        Counters accumulate across simulations (reductions, preemptions,
        reduce-buffer stall cycles); gauges hold the latest run's stage
        occupancy; the cycle histogram tracks the job-size distribution.
        """
        reg = registry if registry is not None else _METRICS
        if not reg.enabled:
            return
        reg.inc("hw.pipeline.simulations")
        reg.inc("hw.pipeline.dot_products", self.dot_products)
        reg.inc("hw.pipeline.reductions", self.reductions)
        reg.inc("hw.pipeline.preemptions", self.preemptions)
        reg.inc("hw.pipeline.stall_cycles", self.stall_cycles)
        reg.set_gauge("hw.pipeline.dot_occupancy", self.dot_utilization)
        reg.set_gauge("hw.pipeline.pack_occupancy", self.pack_utilization)
        reg.set_gauge("hw.pipeline.reduce_buffer_peak", self.reduce_buffer_peak)
        reg.observe("hw.pipeline.total_cycles", self.total_cycles)


@dataclass
class _Node:
    """A node of the PACKLWES binary reduction tree."""

    level: int
    ready_children: int = 0
    child_avail: int = 0  # cycle when the later child became available
    parent: Optional["_Node"] = None
    is_root: bool = False


def _build_tree(leaves: int) -> List[_Node]:
    """Leaf nodes of a pack tree over ``leaves`` inputs (padded pow2)."""
    levels = max(leaves - 1, 0).bit_length()
    count = 1 << levels
    if levels == 0:
        return [_Node(level=0, is_root=True)]
    # build bottom-up: nodes[k] at level l has parent at level l+1
    current = [_Node(level=0) for _ in range(count)]
    leaf_nodes = current
    level = 1
    while len(current) > 1:
        parents = [_Node(level=level) for _ in range(len(current) // 2)]
        for i, node in enumerate(current):
            node.parent = parents[i // 2]
        current = parents
        level += 1
    current[0].is_root = True
    return leaf_nodes


class MacroPipeline:
    """One compute engine's macro-pipeline."""

    def __init__(self, engine: EngineConfig) -> None:
        self.engine = engine
        self.fill_cycles = -(-6 * engine.ntt_unit.cycles // engine.stage1_ntt_units)
        self.dot_interval = engine.dot_product_interval
        self.pack_interval = engine.pack_interval
        # latency through the five pack stages ≈ interval per stage slice
        self.pack_latency = engine.pack_interval + 4 * (
            engine.ntt_unit.n // (engine.ppu_lanes * engine.ntt_unit.n_bfu)
        )
        self._total_cycles: Dict[Tuple[int, int], int] = {}

    def total_cycles(self, rows: int, col_tiles: int = 1) -> int:
        """Cycles of one ``(rows, col_tiles)`` job, simulated once per shape.

        The simulation is a pure function of the engine and the shape,
        so the runtime's pricing and execution and the partition
        planner's shard costs all read this memo.
        """
        key = (rows, col_tiles)
        cycles = self._total_cycles.get(key)
        if cycles is None:
            cycles = self.simulate_hmvp(rows, col_tiles).total_cycles
            self._total_cycles[key] = cycles
        return cycles

    def simulate_hmvp(
        self, rows: int, col_tiles: int = 1, trace: Optional[list] = None
    ) -> PipelineStats:
        """Simulate one HMVP job of ``rows`` output rows.

        Zero-padded pack-tree leaves (when ``rows`` is not a power of two)
        are transparent ciphertexts injected at no dot-product cost, as in
        the functional implementation.

        Pass a list as ``trace`` to receive ``(cycle, kind, detail)``
        events (``dot`` per retired dot product, ``pack`` per reduction
        start with its tree level) — consumed by :mod:`repro.hw.trace`.
        """
        if rows < 1:
            raise ValueError("rows must be positive")
        engine = self.engine
        buffer_cap = engine.reduce_buffer_entries
        leaves = _build_tree(rows)
        levels = max(rows - 1, 0).bit_length()
        padded = 1 << levels

        # -- dot-product side ------------------------------------------------
        dot_products = rows * col_tiles
        next_dot_done = self.fill_cycles + self.dot_interval
        produced = 0  # LWEs fully aggregated and handed to the pack side
        dots_done = 0

        # -- pack side ---------------------------------------------------------
        # pending ready reductions as (avail_time, -level, id); the unit
        # runs the *deepest* reduction among those available when it frees
        # up (preemption priority), never idling past an available one
        pending: "list[tuple[int, int, int]]" = []
        node_by_id = {}
        next_id = 0
        buffer_used = 0
        buffer_peak = 0
        stall_cycles = 0
        preemptions = 0
        reductions_done = 0
        pack_free_at = 0
        pack_busy = 0
        last_level_started: Optional[int] = None
        total_reductions = padded - 1
        finish_time = self.fill_cycles

        def push_ready(node: _Node, avail: int) -> None:
            nonlocal next_id
            heapq.heappush(pending, (avail, -node.level, next_id))
            node_by_id[next_id] = node
            next_id += 1

        def child_done(node: _Node, when: int) -> None:
            parent = node.parent
            if parent is None:
                return
            parent.ready_children += 1
            parent.child_avail = max(parent.child_avail, when)
            if parent.ready_children == 2:
                push_ready(parent, parent.child_avail)

        # transparent zero-padding leaves are available immediately and
        # occupy no buffer slot (they are materialized inside the pack unit)
        for leaf in leaves[rows:]:
            child_done(leaf, 0)

        if padded == 1:
            t = self.fill_cycles + col_tiles * self.dot_interval
            if trace is not None:
                trace.append((t, "dot", 0))
            stats = PipelineStats(
                rows=rows,
                col_tiles=col_tiles,
                total_cycles=t,
                dot_products=dot_products,
                reductions=0,
                preemptions=0,
                stall_cycles=0,
                reduce_buffer_peak=1,
                dot_busy_cycles=col_tiles * self.dot_interval,
                pack_busy_cycles=0,
            )
            stats.record_metrics()
            return stats

        while reductions_done < total_reductions:
            now = pack_free_at
            # deepest reduction available at `now`
            available = [
                entry for entry in pending if entry[0] <= now
            ]
            if available:
                chosen = min(available, key=lambda e: (e[1], e[0], e[2]))
                pending.remove(chosen)
                heapq.heapify(pending)
                node = node_by_id.pop(chosen[2])
                if (
                    last_level_started is not None
                    and node.level > last_level_started
                ):
                    preemptions += 1
                last_level_started = node.level
                if trace is not None:
                    trace.append((now, "pack", node.level))
                done = now + self.pack_latency
                pack_free_at = now + self.pack_interval
                pack_busy += self.pack_interval
                reductions_done += 1
                buffer_used -= 1  # two inputs out, one result in
                finish_time = max(finish_time, done)
                if node.is_root:
                    buffer_used += 1  # root result stays until readout
                else:
                    child_done(node, done)
                continue
            # nothing available now: advance to the next event
            events = []
            if pending:
                events.append(pending[0][0])
            if produced < rows:
                events.append(next_dot_done)
            if not events:
                raise AssertionError(
                    "pack starved with no pending work — tree bookkeeping bug"
                )
            t_next = min(events)
            if produced < rows and next_dot_done <= t_next:
                when = next_dot_done
                if buffer_used >= buffer_cap:
                    # stage-4 stall: the LWE waits for a buffer slot, which
                    # frees when the next reduction retires
                    if not pending:
                        raise RuntimeError(
                            f"reduce buffer deadlock: {buffer_cap} entries "
                            f"too small for {rows}-row pack"
                        )
                    freed_at = max(pack_free_at, pending[0][0])
                    stall_cycles += max(freed_at - when, 0)
                    when = max(when, freed_at)
                buffer_used += 1
                buffer_peak = max(buffer_peak, buffer_used)
                dots_done += col_tiles
                if trace is not None:
                    trace.append((when, "dot", produced))
                child_done(leaves[produced], when)
                produced += 1
                next_dot_done = when + col_tiles * self.dot_interval
            else:
                pack_free_at = t_next

        dot_busy = dot_products * self.dot_interval
        stats = PipelineStats(
            rows=rows,
            col_tiles=col_tiles,
            total_cycles=finish_time,
            dot_products=dot_products,
            reductions=reductions_done,
            preemptions=preemptions,
            stall_cycles=stall_cycles,
            reduce_buffer_peak=buffer_peak,
            dot_busy_cycles=dot_busy,
            pack_busy_cycles=pack_busy,
        )
        stats.record_metrics()
        return stats


def simulate_multi_engine(
    cfg: ChamConfig, rows: int, col_tiles: int = 1
) -> PipelineStats:
    """Split ``rows`` across the engines and merge the stats.

    Rows are balanced across engines in contiguous blocks; the completion
    time is the slowest engine's.
    """
    per_engine = -(-rows // cfg.engines)
    pipelines = MacroPipeline(cfg.engine)
    stats: List[PipelineStats] = []
    remaining = rows
    while remaining > 0:
        chunk = min(per_engine, remaining)
        stats.append(pipelines.simulate_hmvp(chunk, col_tiles))
        remaining -= chunk
    total = max(s.total_cycles for s in stats)
    return PipelineStats(
        rows=rows,
        col_tiles=col_tiles,
        total_cycles=total,
        dot_products=sum(s.dot_products for s in stats),
        reductions=sum(s.reductions for s in stats),
        preemptions=sum(s.preemptions for s in stats),
        stall_cycles=sum(s.stall_cycles for s in stats),
        reduce_buffer_peak=max(s.reduce_buffer_peak for s in stats),
        dot_busy_cycles=sum(s.dot_busy_cycles for s in stats),
        pack_busy_cycles=sum(s.pack_busy_cycles for s in stats),
    )
