"""Mapping shards onto simulated accelerator nodes, with replication.

A :class:`ClusterNode` is one simulated accelerator host: an RAS runtime
(:class:`repro.hw.runtime.FpgaRuntime` with its own fault injector), a
per-node :class:`repro.core.batch.EncodedMatrixCache`, and one
matrix-resident :class:`repro.core.batch.BatchedHmvp` engine per shard
hosted there (primary or replica) — the same engine-pool shape
:class:`repro.serve.HmvpServer` runs per process, scaled out to K
processes.

:class:`ShardPlacement` assigns every shard a primary node and
``replication - 1`` replicas on distinct nodes by
:func:`repro.cluster.partition.lpt_hosts`, the policy
:class:`repro.cluster.partition.PartitionPlanner` estimates with:
primaries LPT greedy (longest shard first onto the least-loaded node),
replicas onto the least-loaded nodes not already holding the shard.
Ties between equal-load nodes break by **node id**, explicitly, so
plans never depend on container iteration order.  Replicas encode the
shard into their node's cache at placement time, so failover never pays
an encode on the critical path.

Nodes are ``0..K-1`` for an executor's lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.batch import BatchedHmvp, EncodedMatrixCache
from ..he.bfv import BfvScheme
from ..hw.arch import ChamConfig, cham_default_config
from ..hw.runtime import FaultInjector, FpgaRuntime, HealthReport
from .partition import PartitionError, PartitionPlan, lpt_hosts

__all__ = [
    "ClusterNode",
    "ShardPlacement",
    "build_nodes",
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


class ShardPlacement:
    """Shard -> ``[primary, replica, ...]`` node assignment."""

    def __init__(
        self,
        assignments: Dict[int, List[int]],
        nodes: int,
        replication: int,
    ) -> None:
        if nodes < 1:
            raise PartitionError("need at least one node")
        self.assignments = assignments
        self.nodes = nodes
        self.replication = replication

    @property
    def node_ids(self) -> Tuple[int, ...]:
        return tuple(range(self.nodes))

    @classmethod
    def place(
        cls,
        plan: PartitionPlan,
        nodes: int,
        replication: int,
        shard_costs: Optional[Sequence[int]] = None,
    ) -> "ShardPlacement":
        """LPT-greedy primaries plus least-loaded distinct replicas.

        The policy is :func:`repro.cluster.partition.lpt_hosts`; all
        load ties break by ``(load, node_id)`` so the plan is a pure
        function of ``(plan, nodes, costs)`` — stable across Python
        versions and container ordering.
        """
        if nodes < 1:
            raise PartitionError("need at least one node")
        if not 1 <= replication <= nodes:
            raise PartitionError(
                f"replication {replication} must be in 1..nodes ({nodes})"
            )
        costs = (
            list(shard_costs)
            if shard_costs is not None
            else [s.rows * max(s.col_tiles(plan.ring_n), 1) for s in plan.shards]
        )
        if len(costs) != len(plan.shards):
            raise PartitionError("one cost per shard required")
        hosts, _ = lpt_hosts(costs, nodes, copies=replication)
        assignments = {
            shard.shard_id: chosen for shard, chosen in zip(plan.shards, hosts)
        }
        return cls(assignments, nodes=nodes, replication=replication)

    def nodes_for(self, shard_id: int) -> List[int]:
        return self.assignments[shard_id]

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

    Each node gets an RAS runtime and an empty encoded-matrix cache, and
    one fault injector: the explicit list's entry, in node id order, or
    one derived from the rate knobs with seed ``seed + node_id``.
    Returns a dict keyed by node id.
    """
    if fault_injectors is not None and len(fault_injectors) != placement.nodes:
        raise PartitionError("one fault injector per node")
    cfg = cham or cham_default_config()
    nodes: Dict[int, ClusterNode] = {}
    for node_id in placement.node_ids:
        faults = (
            fault_injectors[node_id]
            if fault_injectors is not None
            else FaultInjector(
                hang_prob=fault_rate,
                register_flip_prob=register_flip_rate,
                seed=seed + node_id,
            )
        )
        nodes[node_id] = ClusterNode(
            node_id=node_id,
            # lane = node_id + 1: pid 0 stays the coordinator's lane in traces
            runtime=FpgaRuntime(cfg=cfg, faults=faults, lane=node_id + 1),
            cache=EncodedMatrixCache(capacity=max(len(plan.shards), 1)),
        )
    for shard in plan.shards:
        for node_id in placement.nodes_for(shard.shard_id):
            node = nodes[node_id]
            node.engines[shard.shard_id] = BatchedHmvp(
                scheme, shard.submatrix(matrix), cache=node.cache
            )
    return nodes
