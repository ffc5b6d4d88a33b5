"""Charging real ciphertext movement through the network simulator.

:class:`ClusterInterconnect` is the thin stateful bridge between
:class:`repro.cluster.executor.ClusterExecutor` and the discrete-event
fabric in :mod:`repro.hw.netsim`.  The executor stays the source of
truth for *what* moves (hoisted scatter tiles, failover resends,
gathered LWE partials) and sizes each payload from the actual ndarray
byte counts; this class turns those bytes into flits on a concrete
:class:`~repro.hw.topology.Topology` and keeps the cycle ledger.  An
executor wires one fabric over its fixed node set and keeps it for its
lifetime, so every reported total is that one simulator's.

The ``ideal`` fabric keeps every drain at zero cycles, which is how the
property suite pins that attaching a network simulator — without
bandwidth limits — reproduces the free-comm executor bit-exactly.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..hw.netsim import NetworkSimulator
from ..hw.topology import COORDINATOR, build_topology

__all__ = ["COORDINATOR", "ClusterInterconnect"]

_PHASES = ("scatter", "failover", "gather")


class ClusterInterconnect:
    """Lifetime network-cycle ledger over one fabric."""

    def __init__(
        self,
        kind: str,
        node_ids: Iterable[int],
        bandwidth: int = 64,
        latency: int = 4,
        flit_bytes: int = 64,
        buffer_flits: int = 4,
        arity: int = 2,
    ) -> None:
        self.bandwidth = int(bandwidth)
        self.latency = int(latency)
        self.flit_bytes = int(flit_bytes)
        self.buffer_flits = int(buffer_flits)
        self.phase_cycles: Dict[str, int] = {p: 0 for p in _PHASES}
        self.total_cycles = 0
        self.topology = build_topology(
            kind,
            sorted(node_ids),
            bandwidth=self.bandwidth,
            latency=self.latency,
            arity=int(arity),
        )
        self.sim = NetworkSimulator(
            self.topology,
            flit_bytes=self.flit_bytes,
            buffer_flits=self.buffer_flits,
        )

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def begin_phase(self, name: str) -> None:
        self.sim.begin_phase(name)

    def inject(self, src: int, dst: int, nbytes: int, tag: str = "") -> int:
        return self.sim.inject(src, dst, int(nbytes), tag=tag)

    def drain(self, phase: str) -> int:
        """Run the queue dry and book the cycles against ``phase``."""
        cycles = self.sim.drain()
        self.phase_cycles[phase] = self.phase_cycles.get(phase, 0) + cycles
        self.total_cycles += cycles
        return cycles

    def estimate_transfer_cycles(self, src: int, dst: int, nbytes: int) -> int:
        """Contention-free lower bound for one message (deadline math).

        Serialization on the tightest link along the path plus the sum
        of hop latencies — what the message costs on an otherwise idle
        fabric.  Zero on the ideal topology, matching its actual cost.
        """
        if self.topology.ideal or src == dst or nbytes <= 0:
            return 0
        path = self.topology.route(src, dst)
        if not path:
            return 0
        nflits = max(1, -(-int(nbytes) // self.flit_bytes))
        bottleneck = max(
            link.serialization_cycles(self.flit_bytes) for link in path
        )
        return nflits * bottleneck + sum(link.latency for link in path)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def network_block(self) -> Dict[str, object]:
        """Lifetime network stats for the ``ClusterReport``."""
        sim = self.sim
        links = sim.link_utilization()
        return {
            "topology": self.topology.name,
            "kind": self.topology.kind,
            "ideal": self.topology.ideal,
            "flit_bytes": self.flit_bytes,
            "buffer_flits": self.buffer_flits,
            "bandwidth": self.bandwidth,
            "latency": self.latency,
            "cycles": sim.engine.now,
            "events": sim.engine.events_handled,
            "messages": sim.message_count,
            "flits_injected": sim.flits_injected,
            "flits_delivered": sim.flits_delivered,
            "flits_dropped": sim.flits_dropped,
            "duplicates": sim.duplicates,
            "blocked_attempts": sim.blocked_attempts,
            "max_queue_depth": sim.max_queue_depth,
            "max_inject_depth": sim.max_inject_depth,
            "phase_cycles": dict(sorted(self.phase_cycles.items())),
            "phases": sim.phase_stats(),
            "links": {k: links[k] for k in sorted(links)},
            "trace_sha256": sim.trace_digest(),
        }
