"""Mapping shards onto simulated accelerator nodes, with replication.

A :class:`ClusterNode` is one simulated accelerator host: an RAS runtime
(:class:`repro.hw.runtime.FpgaRuntime` with its own fault injector), a
per-node :class:`repro.core.batch.EncodedMatrixCache`, and one
matrix-resident :class:`repro.core.batch.BatchedHmvp` engine per shard
hosted there (primary or replica) — the same engine-pool shape
:class:`repro.serve.HmvpServer` runs per process, scaled out to K
processes.

:class:`ShardPlacement` assigns every shard a primary node and
``replication - 1`` replicas on distinct nodes.  Primaries are placed by
LPT greedy (longest shard first onto the least-loaded node, the policy
:class:`repro.cluster.partition.PartitionPlanner` estimates with);
replicas go to the least-loaded nodes not already holding the shard.
Ties between equal-load nodes break by **node id**, explicitly — the
elastic membership layer (:mod:`repro.cluster.membership`) renumbers
nodes as they churn, so plans must not depend on container iteration
order.  Replicas encode the shard into their node's cache at placement
time, so failover never pays an encode on the critical path.

Node identity is a persistent integer id, *not* a dense index: after a
node dies and another joins, the pool might be ``{0, 2, 4}``.  Both
:class:`ShardPlacement` and :func:`build_nodes` therefore speak id sets
(``nodes`` may still be passed as a plain count for the static case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.batch import BatchedHmvp, EncodedMatrixCache
from ..he.bfv import BfvScheme
from ..hw.arch import ChamConfig, cham_default_config
from ..hw.runtime import FaultInjector, FpgaRuntime, HealthReport
from .partition import PartitionError, PartitionPlan

__all__ = [
    "ClusterNode",
    "ShardPlacement",
    "build_nodes",
    "make_cluster_node",
]


@dataclass
class ClusterNode:
    """One simulated accelerator host in the cluster."""

    node_id: int
    runtime: FpgaRuntime
    cache: EncodedMatrixCache
    #: shard_id -> resident engine over that shard's submatrix
    engines: Dict[int, BatchedHmvp] = field(default_factory=dict)
    shards_served: int = 0

    @property
    def busy_cycles(self) -> int:
        return self.runtime.busy_cycles

    def health(self) -> HealthReport:
        return self.runtime.health()


def _normalize_node_ids(
    nodes: Union[int, Sequence[int]]
) -> Tuple[int, ...]:
    """A count becomes ``0..K-1``; an id collection is sorted and checked."""
    if isinstance(nodes, int):
        if nodes < 1:
            raise PartitionError("need at least one node")
        return tuple(range(nodes))
    ids = sorted(int(n) for n in nodes)
    if not ids:
        raise PartitionError("need at least one node")
    if len(set(ids)) != len(ids):
        raise PartitionError(f"duplicate node ids in {ids}")
    if any(n < 0 for n in ids):
        raise PartitionError(f"negative node ids in {ids}")
    return tuple(ids)


class ShardPlacement:
    """Shard -> ``[primary, replica, ...]`` node assignment."""

    def __init__(
        self,
        assignments: Dict[int, List[int]],
        nodes: Union[int, Sequence[int]],
        replication: int,
    ) -> None:
        self.assignments = assignments
        self.node_ids: Tuple[int, ...] = _normalize_node_ids(nodes)
        self.replication = replication

    @property
    def nodes(self) -> int:
        """Active node *count* (kept for the pre-elastic call sites)."""
        return len(self.node_ids)

    @classmethod
    def place(
        cls,
        plan: PartitionPlan,
        nodes: Union[int, Sequence[int]],
        replication: int,
        shard_costs: Optional[Sequence[int]] = None,
    ) -> "ShardPlacement":
        """LPT-greedy primaries plus least-loaded distinct replicas.

        All load ties break by ``(load, node_id)`` so the plan is a pure
        function of ``(plan, node id set, costs)`` — stable across Python
        versions, container ordering, and elastic churn renumbering.
        """
        node_ids = _normalize_node_ids(nodes)
        if not 1 <= replication <= len(node_ids):
            raise PartitionError(
                f"replication {replication} must be in "
                f"1..nodes ({len(node_ids)})"
            )
        costs = (
            list(shard_costs)
            if shard_costs is not None
            else [s.rows * max(s.col_tiles(plan.ring_n), 1) for s in plan.shards]
        )
        if len(costs) != len(plan.shards):
            raise PartitionError("one cost per shard required")
        loads = {nid: 0 for nid in node_ids}
        # replicas add standby load only; bias placement by primary load
        assignments: Dict[int, List[int]] = {}
        order = sorted(
            range(len(plan.shards)),
            key=lambda i: (-costs[i], plan.shards[i].shard_id),
        )
        for idx in order:
            primary = min(node_ids, key=lambda n: (loads[n], n))
            loads[primary] += costs[idx]
            chosen = [primary]
            while len(chosen) < replication:
                replica = min(
                    (n for n in node_ids if n not in chosen),
                    key=lambda n: (loads[n], n),
                )
                chosen.append(replica)
            assignments[plan.shards[idx].shard_id] = chosen
        return cls(assignments, nodes=node_ids, replication=replication)

    def nodes_for(self, shard_id: int) -> List[int]:
        return self.assignments[shard_id]

    def node_shards(self, node_id: int) -> List[int]:
        """Every shard hosted on a node (as primary or replica)."""
        return sorted(
            sid
            for sid, hosted in self.assignments.items()
            if node_id in hosted
        )

    def primary_shards(self, node_id: int) -> List[int]:
        """Shards this node serves as primary."""
        return sorted(
            sid
            for sid, hosted in self.assignments.items()
            if hosted and hosted[0] == node_id
        )

    def add_node(self, node_id: int) -> None:
        """Admit a node id to the active set (no shards yet)."""
        if node_id in self.node_ids:
            raise PartitionError(f"node {node_id} already active")
        self.node_ids = tuple(sorted(self.node_ids + (node_id,)))

    def remove_node(self, node_id: int) -> None:
        """Retire a node id; every shard must already be re-homed."""
        if node_id not in self.node_ids:
            raise PartitionError(f"node {node_id} is not active")
        if len(self.node_ids) == 1:
            raise PartitionError("cannot remove the last node")
        still = [
            sid for sid, hosted in self.assignments.items()
            if node_id in hosted
        ]
        if still:
            raise PartitionError(
                f"node {node_id} still hosts shards {sorted(still)}"
            )
        self.node_ids = tuple(n for n in self.node_ids if n != node_id)

    def validate_against(self, plan: PartitionPlan) -> None:
        shard_ids = {s.shard_id for s in plan.shards}
        if set(self.assignments) != shard_ids:
            raise PartitionError("placement does not cover every shard")
        active = set(self.node_ids)
        for sid, hosted in self.assignments.items():
            if not hosted:
                raise PartitionError(f"shard {sid} has no hosting node")
            if len(set(hosted)) != len(hosted):
                raise PartitionError(f"shard {sid} replicas not distinct")
            if any(n not in active for n in hosted):
                raise PartitionError(f"shard {sid} names an unknown node")

    def to_dict(self) -> Dict[str, object]:
        return {
            "nodes": self.nodes,
            "node_ids": list(self.node_ids),
            "replication": self.replication,
            "assignments": {
                str(sid): hosted
                for sid, hosted in sorted(self.assignments.items())
            },
        }


def make_cluster_node(
    node_id: int,
    plan: PartitionPlan,
    cham: Optional[ChamConfig] = None,
    faults: Optional[FaultInjector] = None,
    seed: int = 0,
    fault_rate: float = 0.0,
    register_flip_rate: float = 0.0,
) -> ClusterNode:
    """One bare node (runtime + empty cache, no engines).

    The fault injector derives from the rate knobs with a per-node seed
    unless given explicitly.  The elastic join path uses this directly — engines are staged
    afterwards by *migrating* encoded entries, never by re-encoding.
    """
    cfg = cham or cham_default_config()
    if faults is None:
        faults = FaultInjector(
            hang_prob=fault_rate,
            register_flip_prob=register_flip_rate,
            seed=seed + node_id,
        )
    # lane = node_id + 1: pid 0 stays the coordinator's lane in traces
    runtime = FpgaRuntime(cfg=cfg, faults=faults, lane=node_id + 1)
    return ClusterNode(
        node_id=node_id,
        runtime=runtime,
        cache=EncodedMatrixCache(capacity=max(len(plan.shards), 1)),
    )


def build_nodes(
    scheme: BfvScheme,
    matrix: np.ndarray,
    plan: PartitionPlan,
    placement: ShardPlacement,
    cham: Optional[ChamConfig] = None,
    fault_injectors: Optional[Sequence[FaultInjector]] = None,
    seed: int = 0,
    fault_rate: float = 0.0,
    register_flip_rate: float = 0.0,
) -> Dict[int, ClusterNode]:
    """Construct the node pool and stage every hosted shard's encoding.

    One fault injector per node (explicit list, in ``node_ids`` order, or
    derived from the rate knobs with per-node seeds).  Returns a dict
    keyed by persistent node id — the elastic membership layer adds and
    removes entries without renumbering survivors.
    """
    if fault_injectors is not None and len(fault_injectors) != placement.nodes:
        raise PartitionError("one fault injector per node")
    nodes: Dict[int, ClusterNode] = {}
    for idx, node_id in enumerate(placement.node_ids):
        nodes[node_id] = make_cluster_node(
            node_id,
            plan,
            cham=cham,
            faults=(
                fault_injectors[idx] if fault_injectors is not None else None
            ),
            seed=seed,
            fault_rate=fault_rate,
            register_flip_rate=register_flip_rate,
        )
    for shard in plan.shards:
        for node_id in placement.nodes_for(shard.shard_id):
            node = nodes[node_id]
            node.engines[shard.shard_id] = BatchedHmvp(
                scheme, shard.submatrix(matrix), cache=node.cache
            )
    return nodes
