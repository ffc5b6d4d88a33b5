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
* :class:`CommSpec` — the cluster's one fabric description, which
  builds the network simulator for the planner and the executor alike;
* :func:`lpt_hosts` — the one LPT placement policy, shared by the
  planner's estimates and :class:`repro.cluster.placement.ShardPlacement`;
* :func:`scatter_sends` — the one list of a request's scatter sends,
  and :func:`drain_phase`, the one way a phase of sends reaches the
  simulator;
* :class:`PartitionPlanner` — builds plans from a cycle-accurate cost
  model (:class:`repro.hw.pipeline.MacroPipeline`, the same simulator
  :class:`repro.hw.runtime.FpgaRuntime` prices jobs with) plus, with a
  :class:`CommSpec`, a replay of the executor's own fault-free traffic,
  searching row/column band counts for the least estimated makespan
  over ``K`` nodes.

The algebra that makes any valid plan exact is in
``docs/ARCHITECTURE.md`` section 9: column cuts must land on ciphertext
tile boundaries because the per-tile rescale is non-linear, and row cuts
are unconstrained because every dot/rescale/extract kernel is
row-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
    "drain_phase",
    "lpt_hosts",
    "scatter_sends",
]


class PartitionError(ValueError):
    """A partition plan violates the exactness or capacity constraints."""


@dataclass(frozen=True)
class CommSpec:
    """The cluster's one fabric description.

    The :class:`repro.cluster.executor.ClusterExecutor` builds one from
    its :class:`~repro.cluster.executor.ClusterConfig` and runs its
    lifetime simulator on it; the planner prices candidate grids on the
    same spec.  The ciphertext geometry sizes payloads without touching
    live arrays: a hoisted scatter tile is two ``(L+1, n)`` uint64
    components, a gathered partial is one ``(L, rows)`` b plus one
    ``(L, rows, n)`` a.  With ``kind="ideal"`` every transfer costs
    zero cycles, so the planner's choices match the compute-only search
    exactly.
    """

    kind: str = "ideal"
    bandwidth: int = 64
    latency: int = 4
    flit_bytes: int = 64
    #: ciphertext-modulus limb count L (augmented basis is L + 1)
    ct_limbs: int = 2

    def simulator(self, nodes: int) -> NetworkSimulator:
        """A fresh simulator over this fabric, wiring nodes ``0..nodes-1``."""
        topology = build_topology(
            self.kind,
            list(range(nodes)),
            bandwidth=self.bandwidth,
            latency=self.latency,
        )
        return NetworkSimulator(topology, flit_bytes=self.flit_bytes)

    def scatter_tile_bytes(self, ring_n: int) -> int:
        return 2 * (self.ct_limbs + 1) * ring_n * 8

    def gather_partial_bytes(self, rows: int, ring_n: int) -> int:
        return self.ct_limbs * rows * (1 + ring_n) * 8


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


def lpt_hosts(
    costs: Sequence[int], nodes: int, copies: int = 1
) -> Tuple[List[List[int]], List[int]]:
    """LPT greedy placement of shards onto nodes ``0..nodes-1``.

    Longest shard first (equal costs by shard index) onto the
    least-loaded node; then ``copies - 1`` replicas onto the
    least-loaded nodes not yet holding it.  Every load tie breaks by
    node id, and replicas add no load, so the primaries do not depend
    on ``copies``.  Returns each shard's hosts, primary first, in shard
    order, and the per-node primary loads.
    """
    loads = [0] * nodes
    hosts: List[List[int]] = [[] for _ in costs]
    for idx in sorted(range(len(costs)), key=lambda i: (-costs[i], i)):
        primary = min(range(nodes), key=lambda n: (loads[n], n))
        loads[primary] += costs[idx]
        chosen = hosts[idx] = [primary]
        while len(chosen) < copies:
            chosen.append(
                min(
                    (n for n in range(nodes) if n not in chosen),
                    key=lambda n: (loads[n], n),
                )
            )
    return hosts, loads


def scatter_sends(
    plan: PartitionPlan, primaries: Sequence[int]
) -> List[Tuple[int, int]]:
    """A request's scatter sends as ``(node, tile)`` pairs.

    One per distinct (primary node, ciphertext tile), in shard order: a
    node holding two shards that read the same tile receives it once.
    ``primaries`` holds each shard's primary node, in shard order.
    """
    sends: Dict[Tuple[int, int], None] = {}
    for shard, node in zip(plan.shards, primaries):
        for tile in range(*shard.tile_range(plan.ring_n)):
            sends[(node, tile)] = None
    return list(sends)


def drain_phase(
    sim: NetworkSimulator, phase: str, sends: Sequence[Tuple[int, int, int]]
) -> int:
    """Inject ``(src, dst, nbytes)`` sends as one phase and drain them.

    The planner's replay and the executor both move traffic through
    here, so they make the same simulator calls.  Returns the cycles the
    drain took.
    """
    sim.begin_phase(phase)
    for src, dst, nbytes in sends:
        sim.inject(src, dst, nbytes)
    return sim.drain()


class PartitionPlanner:
    """Cost-model-driven planner over row/column band counts.

    The per-shard cost is the cycle count of the macro-pipeline
    simulator for that shard's ``(rows, col_tiles)`` job — identical to
    what :class:`repro.hw.runtime.FpgaRuntime` charges when the shard
    actually runs, so the planner's makespan estimate and the executor's
    measured makespan share one model.  The search is tiny (row bands x
    column bands, both bounded), and the estimate for a candidate grid
    is the :func:`lpt_hosts` placement over ``nodes`` — the policy
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
        #: fabric the grids are priced on; None scores compute only
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
        _, loads = lpt_hosts(self.plan_cost_cycles(plan), max(nodes, 1))
        return max(loads)

    def estimate_comm_cycles(self, plan: PartitionPlan, nodes: int) -> int:
        """Simulated network cycles for one fault-free request of this plan.

        Makes the executor's own inject/drain calls on a fresh simulator
        of the planner's :class:`CommSpec`: the :func:`scatter_sends` of
        each shard's LPT primary, then every shard's LWE partial back.
        Zero without a :class:`CommSpec` and on the ideal fabric, so
        attaching an infinite-bandwidth network never changes a planning
        decision.
        """
        if self.comm is None:
            return 0
        key = (plan.row_cuts, plan.col_cuts, nodes)
        cached = self._comm_cache.get(key)
        if cached is not None:
            return cached
        spec = self.comm
        nodes = max(nodes, 1)
        sim = spec.simulator(nodes)
        hosts, _ = lpt_hosts(self.plan_cost_cycles(plan), nodes)
        primaries = [h[0] for h in hosts]
        tile_bytes = spec.scatter_tile_bytes(self.ring_n)
        cycles = drain_phase(
            sim,
            "scatter",
            [
                (COORDINATOR, node, tile_bytes)
                for node, _ in scatter_sends(plan, primaries)
            ],
        )
        cycles += drain_phase(
            sim,
            "gather",
            [
                (node, COORDINATOR, spec.gather_partial_bytes(s.rows, self.ring_n))
                for s, node in zip(plan.shards, primaries)
            ],
        )
        self._comm_cache[key] = cycles
        return cycles

    def plan(
        self,
        rows: int,
        cols: int,
        nodes: int = 1,
    ) -> PartitionPlan:
        """Search band counts for the least estimated total cycles.

        Row bands range from the forced minimum (``ceil(rows/N)``) up to
        a bounded number of extra splits; column bands range over every
        grouping of the ciphertext tiles.  The score is compute makespan
        plus the :class:`CommSpec` communication term — splitting rows
        multiplies scatter traffic (each shard needs its full ciphertext
        tiles), so grids that win on compute balance alone can lose on a
        bandwidth-limited fabric; without a comm spec the score is the
        compute makespan alone.  Ties prefer
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
            total = makespan + self.estimate_comm_cycles(
                candidates[index], nodes
            )
            if best is None or (total, shards, index) < best:
                best = (total, shards, index)
        assert best is not None  # search space is never empty
        return candidates[best[2]]
