"""Partitioning an HMVP matrix into accelerator-sized shards.

One CHAM accelerator processes one ``N = 4096`` tile per pass with two
compute engines (Section IV); the matrices the serving roadmap targets
are far larger.  FAME partitions secure matrix multiply across parallel
FPGA compute units and Chameleon scatters scheme-level work across GPU
workers — this module is the planning half of that structure for the
reproduction:

* :class:`Shard` — one rectangular block of the matrix, at most ``N``
  rows tall, with column boundaries aligned to ``N``-wide ciphertext
  tiles (the unit the vector encryption fixes);
* :class:`PartitionPlan` — a validated row-cut x column-cut grid of
  shards covering the matrix exactly;
* :class:`PartitionPlanner` — builds plans from a cycle-accurate cost
  model (:class:`repro.hw.pipeline.MacroPipeline`, the same simulator
  :class:`repro.hw.runtime.FpgaRuntime` prices jobs with), searching
  row/column band counts for the least estimated makespan over ``K``
  nodes.

The algebra that makes any valid plan exact is in
``docs/ARCHITECTURE.md`` section 9: column cuts must land on ciphertext
tile boundaries because the per-tile rescale is non-linear, and row cuts
are unconstrained because every dot/rescale/extract kernel is
row-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..hw.arch import EngineConfig
from ..hw.netsim import NetworkSimulator
from ..hw.pipeline import MacroPipeline
from ..hw.topology import COORDINATOR, build_topology

__all__ = [
    "CommSpec",
    "PartitionError",
    "Shard",
    "PartitionPlan",
    "PartitionPlanner",
    "balanced_cuts",
]


class PartitionError(ValueError):
    """A partition plan violates the exactness or capacity constraints."""


@dataclass(frozen=True)
class CommSpec:
    """Interconnect parameters the planner prices candidate grids with.

    Mirrors the :class:`repro.cluster.executor.ClusterConfig` network
    knobs plus the ciphertext geometry needed to size payloads without
    touching live arrays: a hoisted scatter tile is two ``(L+1, n)``
    uint64 components, a gathered partial is one ``(L, rows)`` b plus
    one ``(L, rows, n)`` a.  With ``kind="ideal"`` every transfer costs
    zero cycles, so the planner's choices match the comm-free search
    exactly.
    """

    kind: str = "ideal"
    bandwidth: int = 64
    latency: int = 4
    flit_bytes: int = 64
    buffer_flits: int = 4
    arity: int = 2
    #: ciphertext-modulus limb count L (augmented basis is L + 1)
    ct_limbs: int = 2
    coeff_bytes: int = 8

    def scatter_tile_bytes(self, ring_n: int) -> int:
        return 2 * (self.ct_limbs + 1) * ring_n * self.coeff_bytes

    def gather_partial_bytes(self, rows: int, ring_n: int) -> int:
        return self.ct_limbs * rows * (1 + ring_n) * self.coeff_bytes


@dataclass(frozen=True)
class Shard:
    """One rectangular block of the matrix: rows x ring-aligned columns."""

    shard_id: int
    row_band: int
    col_band: int
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    @property
    def rows(self) -> int:
        return self.row_stop - self.row_start

    @property
    def cols(self) -> int:
        return self.col_stop - self.col_start

    def col_tiles(self, ring_n: int) -> int:
        """Ciphertext tiles this shard consumes (its scatter fan-in)."""
        return -(-self.cols // ring_n)

    def tile_range(self, ring_n: int) -> Tuple[int, int]:
        """Global ciphertext-tile indices ``[start, stop)`` it reads."""
        return self.col_start // ring_n, -(-self.col_stop // ring_n)

    def submatrix(self, matrix: np.ndarray) -> np.ndarray:
        return matrix[
            self.row_start : self.row_stop, self.col_start : self.col_stop
        ]


def balanced_cuts(extent: int, bands: int) -> Tuple[int, ...]:
    """Boundaries splitting ``extent`` into ``bands`` near-equal bands."""
    if bands < 1 or bands > extent:
        raise PartitionError(
            f"cannot cut extent {extent} into {bands} bands"
        )
    base, extra = divmod(extent, bands)
    cuts = [0]
    for band in range(bands):
        cuts.append(cuts[-1] + base + (1 if band < extra else 0))
    return tuple(cuts)


@dataclass
class PartitionPlan:
    """A validated shard grid covering an ``(rows x cols)`` matrix.

    ``row_cuts`` / ``col_cuts`` include both extremes (``0`` and the
    full extent); ``shards`` is the row-major grid of the resulting
    blocks.  Validity (checked by :meth:`validate`, called from
    ``__post_init__``):

    * cuts are strictly increasing and span the matrix exactly;
    * every row band is at most ``ring_n`` rows (one engine pass);
    * every *interior* column cut is a multiple of ``ring_n`` — the
      per-column-tile rescale is non-linear, so a cut inside a
      ciphertext tile could not be merged back exactly.
    """

    rows: int
    cols: int
    ring_n: int
    row_cuts: Tuple[int, ...]
    col_cuts: Tuple[int, ...]

    def __post_init__(self) -> None:
        self.row_cuts = tuple(int(c) for c in self.row_cuts)
        self.col_cuts = tuple(int(c) for c in self.col_cuts)
        self.validate()
        self.shards: List[Shard] = []
        sid = 0
        for rb in range(len(self.row_cuts) - 1):
            for cb in range(len(self.col_cuts) - 1):
                self.shards.append(
                    Shard(
                        shard_id=sid,
                        row_band=rb,
                        col_band=cb,
                        row_start=self.row_cuts[rb],
                        row_stop=self.row_cuts[rb + 1],
                        col_start=self.col_cuts[cb],
                        col_stop=self.col_cuts[cb + 1],
                    )
                )
                sid += 1

    def validate(self) -> None:
        for name, cuts, extent in (
            ("row", self.row_cuts, self.rows),
            ("col", self.col_cuts, self.cols),
        ):
            if len(cuts) < 2 or cuts[0] != 0 or cuts[-1] != extent:
                raise PartitionError(
                    f"{name}_cuts {cuts} must run 0..{extent}"
                )
            if any(b <= a for a, b in zip(cuts, cuts[1:])):
                raise PartitionError(
                    f"{name}_cuts {cuts} must be strictly increasing"
                )
        for a, b in zip(self.row_cuts, self.row_cuts[1:]):
            if b - a > self.ring_n:
                raise PartitionError(
                    f"row band {a}:{b} exceeds ring degree {self.ring_n}"
                )
        for cut in self.col_cuts[1:-1]:
            if cut % self.ring_n != 0:
                raise PartitionError(
                    f"interior column cut {cut} is not aligned to the "
                    f"ciphertext tile width {self.ring_n}: the per-tile "
                    "rescale is non-linear, so an unaligned cut cannot "
                    "be merged exactly"
                )

    @property
    def row_bands(self) -> int:
        return len(self.row_cuts) - 1

    @property
    def col_bands(self) -> int:
        return len(self.col_cuts) - 1

    @property
    def col_tiles(self) -> int:
        """Ciphertext tiles of the full vector (scatter fan-out width)."""
        return -(-self.cols // self.ring_n)

    def shard_at(self, row_band: int, col_band: int) -> Shard:
        return self.shards[row_band * self.col_bands + col_band]

    def to_dict(self) -> Dict[str, object]:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "ring_n": self.ring_n,
            "row_cuts": list(self.row_cuts),
            "col_cuts": list(self.col_cuts),
            "shards": len(self.shards),
        }


class PartitionPlanner:
    """Cost-model-driven planner over row/column band counts.

    The per-shard cost is the cycle count of the macro-pipeline
    simulator for that shard's ``(rows, col_tiles)`` job — identical to
    what :class:`repro.hw.runtime.FpgaRuntime` charges when the shard
    actually runs, so the planner's makespan estimate and the executor's
    measured makespan share one model.  The search is tiny (row bands x
    column bands, both bounded), and the estimate for a candidate grid
    is an LPT greedy placement over ``nodes`` — the same policy
    :meth:`repro.cluster.placement.ShardPlacement.place` applies.
    """

    #: cap on extra row splits considered beyond the forced minimum
    MAX_EXTRA_ROW_SPLITS = 8

    def __init__(
        self,
        ring_n: int,
        engine: Optional[EngineConfig] = None,
        comm: Optional[CommSpec] = None,
    ) -> None:
        if ring_n < 1:
            raise PartitionError("ring degree must be positive")
        self.ring_n = ring_n
        self._pipeline = MacroPipeline(engine or EngineConfig())
        #: interconnect pricing; None keeps the historical compute-only
        #: scoring (equivalent to passing ``comm_free=True`` everywhere)
        self.comm = comm
        self._comm_cache: Dict[Tuple, int] = {}

    def shard_cost_cycles(self, rows: int, col_tiles: int = 1) -> int:
        """Simulated device cycles for one ``(rows, col_tiles)`` shard."""
        return self._pipeline.total_cycles(rows, col_tiles)

    def plan_cost_cycles(self, plan: PartitionPlan) -> List[int]:
        """Per-shard cycle costs, in ``plan.shards`` order."""
        return [
            self.shard_cost_cycles(s.rows, s.col_tiles(plan.ring_n))
            for s in plan.shards
        ]

    def estimate_makespan(self, plan: PartitionPlan, nodes: int) -> int:
        """LPT greedy lower bound on the plan's *compute* makespan."""
        loads = [0] * max(nodes, 1)
        for cost in sorted(self.plan_cost_cycles(plan), reverse=True):
            idx = min(range(len(loads)), key=loads.__getitem__)
            loads[idx] += cost
        return max(loads)

    def _lpt_assignment(
        self, plan: PartitionPlan, nodes: int
    ) -> Dict[int, int]:
        """Shard id -> node id under the same LPT policy placement uses.

        Mirrors :meth:`repro.cluster.placement.ShardPlacement.place`:
        longest shard first onto the least-loaded node, ties by
        ``(load, node_id)`` then shard id.
        """
        costs = self.plan_cost_cycles(plan)
        loads = {nid: 0 for nid in range(max(nodes, 1))}
        order = sorted(
            range(len(plan.shards)),
            key=lambda i: (-costs[i], plan.shards[i].shard_id),
        )
        assignment: Dict[int, int] = {}
        for idx in order:
            node = min(loads, key=lambda n: (loads[n], n))
            loads[node] += costs[idx]
            assignment[plan.shards[idx].shard_id] = node
        return assignment

    def estimate_comm_cycles(self, plan: PartitionPlan, nodes: int) -> int:
        """Simulated network cycles for one request of this plan.

        Replays the executor's scatter/gather traffic for the candidate
        grid through the *actual* event simulator on the planner's
        :class:`CommSpec` fabric: hoisted ciphertext tiles out to each
        shard's LPT-assigned node (deduplicated per (node, tile), like
        the real scatter), LWE partials back.  Zero without a
        :class:`CommSpec` and on the ideal fabric, so attaching an
        infinite-bandwidth network never changes a planning decision.
        """
        if self.comm is None:
            return 0
        key = (plan.row_cuts, plan.col_cuts, nodes)
        cached = self._comm_cache.get(key)
        if cached is not None:
            return cached
        spec = self.comm
        topology = build_topology(
            spec.kind,
            list(range(max(nodes, 1))),
            bandwidth=spec.bandwidth,
            latency=spec.latency,
            arity=spec.arity,
        )
        sim = NetworkSimulator(
            topology,
            flit_bytes=spec.flit_bytes,
            buffer_flits=spec.buffer_flits,
        )
        assignment = self._lpt_assignment(plan, nodes)
        tile_bytes = spec.scatter_tile_bytes(self.ring_n)
        sim.begin_phase("scatter")
        sent: Set[Tuple[int, int]] = set()
        for shard in plan.shards:
            node = assignment[shard.shard_id]
            for t in range(*shard.tile_range(plan.ring_n)):
                if (node, t) in sent:
                    continue
                sent.add((node, t))
                sim.inject(COORDINATOR, node, tile_bytes)
        cycles = sim.drain()
        sim.begin_phase("gather")
        for shard in plan.shards:
            sim.inject(
                assignment[shard.shard_id],
                COORDINATOR,
                spec.gather_partial_bytes(shard.rows, self.ring_n),
            )
        cycles += sim.drain()
        self._comm_cache[key] = cycles
        return cycles

    def estimate_total_cycles(
        self, plan: PartitionPlan, nodes: int, comm_free: bool = False
    ) -> int:
        """Compute makespan plus the communication term.

        ``comm_free=True`` is the escape hatch recovering the historical
        compute-only score (also the behavior when no :class:`CommSpec`
        is attached).
        """
        total = self.estimate_makespan(plan, nodes)
        if not comm_free:
            total += self.estimate_comm_cycles(plan, nodes)
        return total

    def plan_from_cuts(
        self,
        rows: int,
        cols: int,
        row_cuts: Sequence[int],
        col_cuts: Sequence[int],
    ) -> PartitionPlan:
        """Wrap explicit cuts in a validated plan (test/CLI entry point)."""
        return PartitionPlan(
            rows=rows,
            cols=cols,
            ring_n=self.ring_n,
            row_cuts=tuple(row_cuts),
            col_cuts=tuple(col_cuts),
        )

    def plan(
        self,
        rows: int,
        cols: int,
        nodes: int = 1,
        comm_free: bool = False,
    ) -> PartitionPlan:
        """Search band counts for the least estimated total cycles.

        Row bands range from the forced minimum (``ceil(rows/N)``) up to
        a bounded number of extra splits; column bands range over every
        grouping of the ciphertext tiles.  The score is compute makespan
        plus the :class:`CommSpec` communication term — splitting rows
        multiplies scatter traffic (each shard needs its full ciphertext
        tiles), so grids that win on compute balance alone can lose on a
        bandwidth-limited fabric.  ``comm_free=True`` (or no comm spec)
        recovers the historical compute-only search.  Ties prefer
        *fewer* shards — each extra shard adds merge traffic and (for
        row splits of a pack tile) central pack work the estimate does
        not price — then the earlier grid in enumeration order.  Only
        grids whose compute makespan alone can still beat the best total
        are replayed through the network simulator.
        """
        if rows < 1 or cols < 1:
            raise PartitionError("matrix extents must be positive")
        if nodes < 1:
            raise PartitionError("need at least one node")
        min_row_bands = -(-rows // self.ring_n)
        max_row_bands = min(rows, min_row_bands + self.MAX_EXTRA_ROW_SPLITS)
        col_tiles = -(-cols // self.ring_n)
        candidates: List[PartitionPlan] = []
        for row_bands in range(min_row_bands, max_row_bands + 1):
            for col_bands in range(1, col_tiles + 1):
                tile_cuts = balanced_cuts(col_tiles, col_bands)
                col_cuts = tuple(
                    min(cut * self.ring_n, cols) for cut in tile_cuts
                )
                candidates.append(
                    PartitionPlan(
                        rows=rows,
                        cols=cols,
                        ring_n=self.ring_n,
                        row_cuts=balanced_cuts(rows, row_bands),
                        col_cuts=col_cuts,
                    )
                )
        # Communication is never negative, so a candidate's compute
        # makespan bounds its total from below.  Replay candidates in
        # ascending (makespan, shards, enumeration index) and stop once
        # the next bound exceeds the best (total, shards, index): no
        # later candidate can win, and ties resolve to the earliest
        # enumerated grid, as a full scan would.
        bounds = sorted(
            (self.estimate_makespan(plan, nodes), len(plan.shards), index)
            for index, plan in enumerate(candidates)
        )
        best: Optional[Tuple[int, int, int]] = None
        for makespan, shards, index in bounds:
            if best is not None and (makespan, shards, index) > best:
                break
            total = makespan
            if not comm_free:
                total += self.estimate_comm_cycles(candidates[index], nodes)
            if best is None or (total, shards, index) < best:
                best = (total, shards, index)
        assert best is not None  # search space is never empty
        return candidates[best[2]]
