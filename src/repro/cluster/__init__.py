"""Sharded multi-engine HMVP cluster layer.

One CHAM accelerator is one ``N``-row engine pass; this package scales
the reproduction's serving story *out*: a cost-model-driven
:class:`PartitionPlanner` tiles the matrix into shards, a
:class:`ShardPlacement` maps shards (with replicas) onto K simulated
accelerator nodes, and a :class:`ClusterExecutor` scatters encrypted
requests, fails over around injected node hangs, and gathers partials
into a result **bit-identical** to the unsharded engine's — the merge is
exact modular addition of column-shard LWE stacks plus row-order
concatenation through the same central pack.

The node set is fixed for an executor's lifetime: nodes ``0..K-1``
host every shard's replicas from construction on, and a node hang is
absorbed by failover to a replica, never by changing the node set.

The fabric has one model: a :class:`CommSpec` builds the
:class:`repro.hw.netsim.NetworkSimulator` the executor ships every
request's traffic through, and the planner prices a candidate grid by
replaying the executor's own fault-free inject/drain calls on a fresh
simulator of the same spec.

Entry points: ``repro cluster`` on the CLI, ``benchmarks/bench_cluster.py``
for the scale-out numbers, and ``docs/ARCHITECTURE.md`` sections 9 and 13
for the partitioning algebra and the interconnect.
"""

from .executor import ClusterConfig, ClusterExecutor, ClusterReport, ShardOutcome
from .partition import (
    CommSpec,
    PartitionError,
    PartitionPlan,
    PartitionPlanner,
    Shard,
    balanced_cuts,
)
from .placement import ClusterNode, ShardPlacement, build_nodes

__all__ = [
    "CommSpec",
    "PartitionError",
    "Shard",
    "PartitionPlan",
    "PartitionPlanner",
    "balanced_cuts",
    "ClusterNode",
    "ShardPlacement",
    "build_nodes",
    "ClusterConfig",
    "ClusterExecutor",
    "ClusterReport",
    "ShardOutcome",
]
