"""Scatter/compute/gather execution of HMVP requests across a cluster.

:class:`ClusterExecutor` is the data path on top of the planning layer
(:mod:`repro.cluster.partition`) and the node pool
(:mod:`repro.cluster.placement`):

* **scatter** — hoist each request's vector ciphertext tiles once (the
  forward NTTs depend only on the ciphertext), then walk the shard grid:
  each shard's offload goes through :func:`~repro.hw.runtime.offload`,
  the policy the serving layer shares, with the shard's replicas as
  candidates, primary first;
* **failover** — a failed attempt (device hang or register-load error)
  reroutes the shard to the next replica (``cluster.shard_retries`` /
  ``cluster.rebalance_events``), bounded by the request deadline in
  *simulated* time; when every replica pass is exhausted (or the
  deadline budget is), the shard **degrades** to the CPU path — the
  functional result is identical, only the pricing changes — so no
  request is ever dropped;
* **gather** — column-shard partials merge with exact modular addition
  (the LWE-level additive merge; valid because every shard rescaled the
  same ciphertext-tile boundaries the unsharded path does), row bands
  concatenate in row order, and the full stacked LWEs pack centrally
  through :func:`repro.he.packing.pack_stacked_lwes` — the output RLWE
  ciphertext is bit-identical to the unsharded engine's, per limb.

With a topology, the executor builds one :class:`CommSpec` from its
:class:`ClusterConfig` and one lifetime
:class:`~repro.hw.netsim.NetworkSimulator` from it, and moves every
phase through :func:`~repro.cluster.partition.drain_phase`: the
:func:`~repro.cluster.partition.scatter_sends` of the shards' primaries,
failover resends, and the partials back.  The planner replays the same
calls for a fault-free request, so it prices the traffic the executor
ships; the simulator's clock is the report's ``network_cycles``.

The differential and metamorphic suites
(``tests/test_cluster_differential.py`` /
``tests/test_cluster_properties.py``) pin both halves of that claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..core.batch import encrypt_tiles
from ..core.hmvp import HmvpOpCount, HmvpResult
from ..he.bfv import BfvScheme
from ..he.packing import pack_stacked_lwes
from ..he.rlwe import RlweCiphertext
from ..hw.arch import ChamConfig, cham_default_config
from ..hw.netsim import NetworkSimulator
from ..hw.runtime import FaultInjector, offload
from ..hw.topology import COORDINATOR
from ..math.modular import modadd_vec
from .partition import (
    CommSpec,
    PartitionError,
    PartitionPlan,
    PartitionPlanner,
    Shard,
    drain_phase,
    scatter_sends,
)
from .placement import ClusterNode, ShardPlacement, build_nodes

__all__ = [
    "ClusterConfig",
    "ShardOutcome",
    "ClusterReport",
    "ClusterExecutor",
]

#: per-request failover budget in *simulated* milliseconds when
#: ``execute`` is given none
DEADLINE_MS = 60_000.0


@dataclass
class ClusterConfig:
    """Cluster policy knobs (defaults model a 4-node scale-out)."""

    #: simulated accelerator nodes
    nodes: int = 4
    #: copies of every shard (1 = no failover capacity), in
    #: ``1..nodes``; ``None`` means ``min(2, nodes)``
    replication: Optional[int] = None
    #: extra passes over a shard's replica list before degrading to CPU
    max_retries: int = 1
    #: device hang probability per shard offload (per-node injectors
    #: seeded ``seed + node_id``)
    fault_rate: float = 0.0
    register_flip_rate: float = 0.0
    seed: int = 0
    #: interconnect model: ``None`` keeps the historical free-comm
    #: behavior (no simulator attached at all); ``"ideal"`` attaches the
    #: zero-cost fabric (flits counted, zero cycles — bit-identical
    #: timing to ``None``); ``"ring"``/``"mesh"``/``"fat-tree"`` charge
    #: real contention through :mod:`repro.hw.netsim`
    topology: Optional[str] = None
    #: bytes per cycle each link accepts (ignored when ``topology=None``)
    link_bandwidth: int = 64
    #: pipeline cycles per hop
    link_latency: int = 4
    #: wire flit size; payloads round up to whole flits
    flit_bytes: int = 64


@dataclass
class ShardOutcome:
    """How one shard of one request was served."""

    shard_id: int
    #: node that served it; ``None`` for the CPU-degraded path
    node_id: Optional[int]
    attempts: int = 1
    rerouted: bool = False
    degraded: bool = False
    cycles: int = 0


@dataclass
class ClusterReport:
    """Aggregate outcome of an executor's lifetime (so far)."""

    requests: int
    rows: int
    cols: int
    nodes: int
    replication: int
    shards_per_request: int
    shard_executions: int
    shard_retries: int
    rebalance_events: int
    degraded_shards: int
    per_node_busy_cycles: Dict[int, int]
    cpu_fallback_cycles: int
    clock_hz: float
    estimated_single_node_cycles: int
    plan: Dict[str, object] = field(default_factory=dict)
    placement: Dict[str, object] = field(default_factory=dict)
    #: cycles the coordinator spent blocked on ciphertext movement: the
    #: fabric simulator's clock (0 without a topology, and on the ideal
    #: fabric)
    network_cycles: int = 0
    #: lifetime fabric stats ({} without a topology)
    network: Dict[str, object] = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        """Shards with no terminal outcome — the invariant is zero."""
        return self.requests * self.shards_per_request - self.shard_executions

    @property
    def compute_makespan_cycles(self) -> int:
        """Busiest compute resource: slowest node or the CPU lane."""
        return max(
            list(self.per_node_busy_cycles.values())
            + [self.cpu_fallback_cycles],
            default=0,
        )

    @property
    def makespan_cycles(self) -> int:
        """Compute makespan plus coordinator-serialized network cycles.

        Scatter/gather drains block the coordinator between compute
        phases, so network time adds to — never hides under — the
        busiest node.  With ``topology=None`` or ``"ideal"`` this equals
        the historical compute-only makespan exactly.
        """
        return self.compute_makespan_cycles + self.network_cycles

    @property
    def goodput_sim_rps(self) -> float:
        """Requests retired per simulated second on the device clock."""
        if self.makespan_cycles == 0 or self.requests == 0:
            return 0.0
        return self.requests / (self.makespan_cycles / self.clock_hz)

    @property
    def speedup_vs_single_node(self) -> float:
        """Measured makespan vs the cost model's one-node serial bound."""
        if self.makespan_cycles == 0:
            return 0.0
        return self.estimated_single_node_cycles / self.makespan_cycles

    def to_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "rows": self.rows,
            "cols": self.cols,
            "nodes": self.nodes,
            "replication": self.replication,
            "shards_per_request": self.shards_per_request,
            "shard_executions": self.shard_executions,
            "shard_retries": self.shard_retries,
            "rebalance_events": self.rebalance_events,
            "degraded_shards": self.degraded_shards,
            "dropped": self.dropped,
            "per_node_busy_cycles": {
                str(nid): cycles
                for nid, cycles in sorted(self.per_node_busy_cycles.items())
            },
            "cpu_fallback_cycles": self.cpu_fallback_cycles,
            "compute_makespan_cycles": self.compute_makespan_cycles,
            "network_cycles": self.network_cycles,
            "makespan_cycles": self.makespan_cycles,
            "goodput_sim_rps": self.goodput_sim_rps,
            "estimated_single_node_cycles": self.estimated_single_node_cycles,
            "speedup_vs_single_node": self.speedup_vs_single_node,
            "plan": self.plan,
            "placement": self.placement,
            "network": self.network,
        }


class ClusterExecutor:
    """Sharded multi-node HMVP with exact gather and failover.

    Parameters
    ----------
    scheme:
        The HE scheme (keys included; the central pack uses its Galois
        keys exactly as the unsharded engine would).
    matrix:
        Arbitrary ``(rows, cols)`` plaintext matrix — unlike
        :class:`~repro.core.batch.BatchedHmvp`, rows may exceed the ring
        degree (row bands become separate shards, and the gathered packs
        mirror the tiled reference's one-pack-per-ring-rows structure).
    config:
        Policy knobs; see :class:`ClusterConfig`.
    plan / placement:
        Explicit partition plan and shard placement (tests and the CLI
        pass these; both default to the planner's cost-driven choice).
    fault_injectors:
        One per node, overriding the rate-derived defaults (scripted
        hang sequences for deterministic failover tests).

    The node set is ``0..nodes-1`` for the executor's lifetime, and the
    gathered result packs in ring-degree row tiles, the unsharded
    engine's tile structure.
    """

    def __init__(
        self,
        scheme: BfvScheme,
        matrix: Sequence[Sequence[int]],
        config: Optional[ClusterConfig] = None,
        plan: Optional[PartitionPlan] = None,
        placement: Optional[ShardPlacement] = None,
        cham: Optional[ChamConfig] = None,
        fault_injectors: Optional[Sequence[FaultInjector]] = None,
    ) -> None:
        self.scheme = scheme
        self.config = config or ClusterConfig()
        if self.config.max_retries < 0:
            raise ValueError("max_retries must be at least 0")
        replication = self.config.replication
        if replication is None:
            replication = min(2, self.config.nodes)
        elif not 1 <= replication <= self.config.nodes:
            raise ValueError(
                f"replication must be in 1..nodes ({self.config.nodes}), "
                f"got {replication}"
            )
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        self.matrix = matrix
        self.rows, self.cols = (int(x) for x in matrix.shape)
        self.cham = cham or cham_default_config()
        ring = scheme.params.n
        #: the one fabric description; None keeps comm free (the
        #: calibration point the netsim property suite compares the
        #: ideal fabric against)
        self.comm: Optional[CommSpec] = None
        if self.config.topology is not None:
            self.comm = CommSpec(
                kind=self.config.topology,
                bandwidth=self.config.link_bandwidth,
                latency=self.config.link_latency,
                flit_bytes=self.config.flit_bytes,
                ct_limbs=len(scheme.ctx.ct_basis),
            )
        self.planner = PartitionPlanner(
            ring, engine=self.cham.engine, comm=self.comm
        )
        if plan is None:
            plan = self.planner.plan(
                self.rows, self.cols, nodes=self.config.nodes
            )
        if (plan.rows, plan.cols) != (self.rows, self.cols):
            raise PartitionError(
                f"plan covers {plan.rows}x{plan.cols}, "
                f"matrix is {self.rows}x{self.cols}"
            )
        if plan.ring_n != ring:
            raise PartitionError(
                f"plan ring degree {plan.ring_n} != scheme ring {ring}"
            )
        self.plan = plan
        costs = self.planner.plan_cost_cycles(plan)
        if placement is None:
            placement = ShardPlacement.place(
                plan,
                nodes=self.config.nodes,
                replication=replication,
                shard_costs=costs,
            )
        placement.validate_against(plan)
        self.placement = placement
        self.nodes: Dict[int, ClusterNode] = build_nodes(
            scheme,
            matrix,
            plan,
            placement,
            cham=self.cham,
            fault_injectors=fault_injectors,
            seed=self.config.seed,
            fault_rate=self.config.fault_rate,
            register_flip_rate=self.config.register_flip_rate,
        )
        #: the lifetime fabric simulator (None without a topology)
        self.net: Optional[NetworkSimulator] = (
            self.comm.simulator(placement.nodes) if self.comm else None
        )
        self._primaries = [
            placement.nodes_for(s.shard_id)[0] for s in plan.shards
        ]
        #: per-request hoisted-tile bytes by shard (set at scatter time)
        self._current_scatter_bytes: Dict[int, int] = {}
        self._single_node_cycles_per_request = sum(costs)
        # lifetime counters (report() snapshots these)
        self.requests_served = 0
        self.shard_executions = 0
        self.shard_retries = 0
        self.rebalance_events = 0
        self.degraded_shards = 0
        self.cpu_fallback_cycles = 0
        self._lanes_named = False
        obs.set_gauge("cluster.nodes", self.config.nodes)

    # -- request plumbing --------------------------------------------------

    def encrypt_vector(self, v: Sequence[int]) -> List[RlweCiphertext]:
        """One augmented ciphertext per ring-wide tile of the vector."""
        v = np.asarray(v)
        if v.shape[0] != self.cols:
            raise ValueError(
                f"vector length {v.shape[0]} != matrix cols {self.cols}"
            )
        return encrypt_tiles(self.scheme, v)

    def _normalize(
        self, request: Union[RlweCiphertext, Sequence[RlweCiphertext]]
    ) -> List[RlweCiphertext]:
        tiles = (
            [request] if isinstance(request, RlweCiphertext) else list(request)
        )
        if len(tiles) != self.plan.col_tiles:
            raise ValueError(
                f"need {self.plan.col_tiles} vector tiles for "
                f"{self.cols} columns, got {len(tiles)}"
            )
        return tiles

    # -- offload simulation ------------------------------------------------

    def _transfer_cycles(self, shard: Shard, node_id: int) -> int:
        """Idle-fabric cycles to move a shard's tiles in and partial out."""
        if self.net is None or self.comm is None:
            return 0
        return self.net.idle_transfer_cycles(
            COORDINATOR, node_id, self._current_scatter_bytes[shard.shard_id]
        ) + self.net.idle_transfer_cycles(
            node_id,
            COORDINATOR,
            self.comm.gather_partial_bytes(shard.rows, self.plan.ring_n),
        )

    def _offload_shard(self, shard: Shard, deadline_ms: float) -> ShardOutcome:
        """Offload across the shard's replicas, then CPU degrade."""
        hosted = self.placement.nodes_for(shard.shard_id)
        offloaded = offload(
            [
                (self.nodes[nid].runtime, self._transfer_cycles(shard, nid))
                for nid in hosted
            ],
            rows=shard.rows,
            cols=shard.cols,
            ring_n=self.plan.ring_n,
            tag=shard.shard_id,
            max_retries=self.config.max_retries,
            deadline_ms=deadline_ms,
            clock_hz=self.cham.clock_hz,
        )
        if offloaded.failed_attempts:
            self.shard_retries += offloaded.failed_attempts
            obs.inc("cluster.shard_retries", offloaded.failed_attempts)
        if offloaded.degraded:
            self.degraded_shards += 1
            self.cpu_fallback_cycles += offloaded.cycles
            obs.inc("cluster.degraded")
            return ShardOutcome(
                shard_id=shard.shard_id,
                node_id=None,
                attempts=offloaded.attempts,
                rerouted=True,
                degraded=True,
                cycles=offloaded.cycles,
            )
        node_id = hosted[offloaded.served_by]
        self.nodes[node_id].shards_served += 1
        rerouted = offloaded.served_by > 0
        if rerouted:
            self.rebalance_events += 1
            obs.inc("cluster.rebalance_events")
        return ShardOutcome(
            shard_id=shard.shard_id,
            node_id=node_id,
            attempts=offloaded.attempts,
            rerouted=rerouted,
            cycles=offloaded.cycles,
        )

    # -- network charging --------------------------------------------------
    #
    # The fabric changes *pricing only*: every method below is a no-op
    # without a topology, and none of them touches ciphertext values or
    # RNG streams — the differential suite pins that results stay
    # per-limb bit-identical across fabrics.

    def _ship(self, phase: str, sends: List[Tuple[int, int, int]]) -> None:
        """Drain one phase of ``(src, dst, nbytes)`` sends."""
        assert self.net is not None
        with obs.span(f"cluster.net.{phase}") as net_span:
            cycles = drain_phase(self.net, phase, sends)
            net_span.set(cycles=cycles, messages=len(sends))
            obs.inc("cluster.net.cycles", cycles)

    def _charge_scatter(self, hoisted: Sequence[np.ndarray]) -> None:
        """Move each hoisted ciphertext tile to the shards' primaries.

        The sends are :func:`scatter_sends`; the payload is the actual
        hoisted ndarray bytes, flit-quantized by the simulator.
        """
        if self.net is None:
            return
        ring = self.plan.ring_n
        tile_bytes = [int(h.nbytes) for h in hoisted]
        self._current_scatter_bytes = {
            s.shard_id: sum(
                tile_bytes[t] for t in range(*s.tile_range(ring))
            )
            for s in self.plan.shards
        }
        self._ship(
            "scatter",
            [
                (COORDINATOR, node, tile_bytes[t])
                for node, t in scatter_sends(self.plan, self._primaries)
            ],
        )

    def _charge_failover(self, outcomes: Sequence[ShardOutcome]) -> None:
        """Re-send ciphertext tiles to replicas that took over a shard."""
        if self.net is None:
            return
        resends = [
            (COORDINATOR, o.node_id, self._current_scatter_bytes[o.shard_id])
            for o in outcomes
            if o.rerouted and not o.degraded and o.node_id is not None
        ]
        if resends:
            self._ship("failover", resends)

    def _charge_gather(
        self,
        outcomes: Sequence[ShardOutcome],
        partials: Dict[int, "Tuple[np.ndarray, np.ndarray]"],
    ) -> None:
        """Ship each shard's LWE partial back, sized from its arrays.

        CPU-degraded shards computed on the coordinator's fallback lane,
        so they have nothing to ship.
        """
        if self.net is None:
            return
        sends = []
        for o in outcomes:
            if o.degraded or o.node_id is None:
                continue
            b, a = partials[o.shard_id]
            sends.append((o.node_id, COORDINATOR, int(b.nbytes) + int(a.nbytes)))
        self._ship("gather", sends)
        obs.set_gauge("cluster.net.total_cycles", self.net.now)

    def _network_block(self) -> Dict[str, object]:
        """Lifetime fabric stats for the ``ClusterReport``."""
        assert self.net is not None and self.comm is not None
        block = self.net.stats()
        block["links"] = dict(sorted(block["links"].items()))
        block.update(
            ideal=self.net.topology.ideal,
            bandwidth=self.comm.bandwidth,
            latency=self.comm.latency,
            trace_sha256=self.net.trace_digest(),
        )
        return block

    # -- the exact data path ----------------------------------------------

    def _gather(
        self,
        partials: Dict[int, "Tuple[np.ndarray, np.ndarray]"],
    ) -> HmvpResult:
        """Merge shard partials exactly and pack centrally.

        Column shards of one row band merge with modular addition, one
        call per component with the ciphertext basis broadcast over the
        limb axis; row bands concatenate in row order.  Both are exact,
        so the packed output is bit-identical to the unsharded path.
        """
        ctx = self.scheme.ctx
        ct_basis = ctx.ct_basis
        ring = self.plan.ring_n
        q_col = ct_basis.modulus_column
        band_b: List[np.ndarray] = []
        band_a: List[np.ndarray] = []
        for rb in range(self.plan.row_bands):
            acc_b, acc_a = partials[self.plan.shard_at(rb, 0).shard_id]
            for cb in range(1, self.plan.col_bands):
                b, a = partials[self.plan.shard_at(rb, cb).shard_id]
                acc_b = modadd_vec(acc_b, b, q_col.reshape(-1, 1))
                acc_a = modadd_vec(acc_a, a, q_col.reshape(-1, 1, 1))
            band_b.append(acc_b)
            band_a.append(acc_a)
        full_b = np.concatenate(band_b, axis=1)
        full_a = np.concatenate(band_a, axis=1)
        packs = []
        with obs.span("cluster.gather", rows=self.rows):
            for start in range(0, self.rows, ring):
                stop = min(start + ring, self.rows)
                packs.append(
                    pack_stacked_lwes(
                        ctx,
                        ct_basis,
                        np.ascontiguousarray(full_b[:, start:stop]),
                        np.ascontiguousarray(full_a[:, start:stop]),
                        self.scheme.galois_keys,
                    )
                )
        return HmvpResult(
            packs=packs,
            rows=self.rows,
            cols=self.cols,
            ops=HmvpOpCount.for_request(self.rows, self.cols, ring, len(ct_basis)),
        )

    def execute(
        self,
        request: Union[RlweCiphertext, Sequence[RlweCiphertext]],
        deadline_ms: Optional[float] = None,
    ) -> HmvpResult:
        """Serve one encrypted request across the cluster.

        ``request`` is a single augmented ciphertext (single-tile
        matrices) or one ciphertext per ring-wide column tile.
        """
        ct_tiles = self._normalize(request)
        budget_ms = deadline_ms if deadline_ms is not None else DEADLINE_MS
        obs.inc("cluster.requests")
        if obs.TRACER.enabled and not self._lanes_named:
            obs.TRACER.name_process(0, "cluster.coordinator")
            for node in self.nodes.values():
                obs.TRACER.name_process(node.node_id + 1, f"node{node.node_id}")
            self._lanes_named = True
        # each request is one trace: reuse the ambient context when a
        # caller (the serving layer) already minted one, else mint here
        req_ctx = obs.current_context()
        if req_ctx is None and obs.TRACER.enabled:
            req_ctx = obs.TRACER.new_trace()
        with obs.span(
            "cluster.request", ctx=req_ctx, shards=len(self.plan.shards)
        ):
            # hoist once per ciphertext tile; every shard touching that
            # tile reuses the transform (the scatter payload is small)
            with obs.span("cluster.scatter", tiles=len(ct_tiles)):
                first = self.plan.shards[0].shard_id
                host = self.nodes[self.placement.nodes_for(first)[0]]
                hoisted = [host.engines[first].hoist(ct) for ct in ct_tiles]
            self._charge_scatter(hoisted)
            partials: Dict[int, "Tuple[np.ndarray, np.ndarray]"] = {}
            outcomes: List[ShardOutcome] = []
            for shard in self.plan.shards:
                outcome = self._offload_shard(shard, budget_ms)
                outcomes.append(outcome)
                self.shard_executions += 1
                obs.inc("cluster.shard_executions")
                serving_node = (
                    outcome.node_id
                    if outcome.node_id is not None
                    else self.placement.nodes_for(shard.shard_id)[0]
                )
                engine = self.nodes[serving_node].engines[shard.shard_id]
                t0, t1 = shard.tile_range(self.plan.ring_n)
                # the functional kernels run "on" the serving node: pin
                # their spans (and the kernels' children, which inherit
                # the lane through the context) to that node's pid lane
                with obs.span(
                    "cluster.shard.compute",
                    pid=serving_node + 1,
                    shard=shard.shard_id,
                    node=serving_node,
                    degraded=outcome.degraded,
                ):
                    partial_tiles = engine.multiply_partial(
                        hoisted_tiles=hoisted[t0:t1]
                    )
                partials[shard.shard_id] = partial_tiles[0]
            self._charge_failover(outcomes)
            self._charge_gather(outcomes, partials)
            result = self._gather(partials)
        self.requests_served += 1
        return result

    def execute_batch(
        self,
        requests: Sequence[Union[RlweCiphertext, Sequence[RlweCiphertext]]],
        deadline_ms: Optional[float] = None,
    ) -> List[HmvpResult]:
        """Serve a request list; every request reaches a terminal result."""
        return [self.execute(req, deadline_ms=deadline_ms) for req in requests]

    # -- reporting ---------------------------------------------------------

    def report(self) -> ClusterReport:
        return ClusterReport(
            requests=self.requests_served,
            rows=self.rows,
            cols=self.cols,
            nodes=len(self.nodes),
            replication=self.placement.replication,
            shards_per_request=len(self.plan.shards),
            shard_executions=self.shard_executions,
            shard_retries=self.shard_retries,
            rebalance_events=self.rebalance_events,
            degraded_shards=self.degraded_shards,
            per_node_busy_cycles={
                nid: node.busy_cycles for nid, node in self.nodes.items()
            },
            cpu_fallback_cycles=self.cpu_fallback_cycles,
            clock_hz=self.cham.clock_hz,
            estimated_single_node_cycles=(
                self._single_node_cycles_per_request * self.requests_served
            ),
            plan=self.plan.to_dict(),
            placement=self.placement.to_dict(),
            network_cycles=self.net.now if self.net is not None else 0,
            network=self._network_block() if self.net is not None else {},
        )
