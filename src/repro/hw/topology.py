"""Interconnect topology graphs for the cluster network simulator.

A :class:`Topology` is a directed multigraph of named routers joined by
:class:`Link` edges, plus an ``endpoints`` map from cluster endpoint ids
(node ids, and :data:`COORDINATOR` for the host) to the router each one
injects into and drains from.  The graph is *pure data*: bandwidth is
bytes per cycle, latency is pipeline cycles per hop, and routing is a
precomputed deterministic next-hop table (BFS shortest paths, ties broken
by lowest link id) so the event simulator in :mod:`repro.hw.netsim` never
has to make a choice at run time.

Four builders cover the design space the partition planner explores:

``ideal``
    No links at all.  Messages teleport with zero cycles — this is the
    calibration topology that must reproduce the pre-netsim free-comm
    behaviour bit-exactly (flits are still counted, cycles are not).
``ring``
    One router per node on a bidirectional ring, host attached to the
    lowest-rank router.  Worst-case hop count grows with K/2 and every
    hop re-serialises the flit, so gather traffic melts under load.
``mesh``
    Near-square 2D mesh with XY dimension-ordered shortest paths (the
    BFS table reproduces XY order through the tie-break), host attached
    at the (0, 0) corner.
``fat-tree``
    Two-level tree: leaf switches with ``arity`` nodes each, uplinks and
    the host link fattened by ``arity`` so the core is non-blocking —
    the "spend wires to buy back cycles" end of the DSE axis.

Node ids need not be dense: builders sort the ids and assign positions
by rank, so the same id set always yields the same wiring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

__all__ = [
    "COORDINATOR",
    "HOST_ROUTER",
    "Link",
    "Topology",
    "TopologyError",
    "TOPOLOGY_KINDS",
    "build_topology",
    "fat_tree_topology",
    "ideal_topology",
    "mesh2d_topology",
    "ring_topology",
]

#: Endpoint id of the coordinator/host in every topology.
COORDINATOR = -1

#: Router name the coordinator endpoint attaches to.
HOST_ROUTER = "host"


class TopologyError(ValueError):
    """Raised for malformed graphs or unroutable endpoint pairs."""


@dataclass(frozen=True)
class Link:
    """One directed wire between two routers."""

    link_id: int
    src: str
    dst: str
    #: bytes accepted per cycle once the head flit wins arbitration
    bandwidth: int
    #: pipeline cycles between leaving ``src`` and entering ``dst``
    latency: int
    #: non-empty on links that form a dependency cycle (e.g. one ring
    #: direction); the simulator applies bubble flow control when a flit
    #: *enters* a labelled channel so the cycle can never fill and
    #: deadlock.  Acyclic fabrics (mesh, tree) leave this empty.
    channel: str = ""

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"

    def serialization_cycles(self, nbytes: int) -> int:
        """Cycles the link stays busy shifting ``nbytes`` out."""
        return max(1, -(-int(nbytes) // self.bandwidth))


@dataclass
class Topology:
    """Routers + links + endpoint attachment, with routing precomputed."""

    name: str
    kind: str
    routers: Tuple[str, ...]
    endpoints: Dict[int, str]
    links: Tuple[Link, ...]
    #: ideal topologies teleport: no links, no cycles, flits still counted
    ideal: bool = False
    _next_hop: Dict[Tuple[str, str], Link] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        router_set = set(self.routers)
        if len(router_set) != len(self.routers):
            raise TopologyError(f"duplicate router names in {self.routers}")
        for ep, router in self.endpoints.items():
            if router not in router_set:
                raise TopologyError(
                    f"endpoint {ep} attaches to unknown router {router!r}"
                )
        seen_ids: Set[int] = set()
        for link in self.links:
            if link.src not in router_set or link.dst not in router_set:
                raise TopologyError(f"link {link.name} touches unknown router")
            if link.src == link.dst:
                raise TopologyError(f"self-loop link {link.name}")
            if link.link_id in seen_ids:
                raise TopologyError(f"duplicate link id {link.link_id}")
            seen_ids.add(link.link_id)
            if link.bandwidth < 1:
                raise TopologyError(
                    f"link {link.name} has bandwidth {link.bandwidth}; "
                    "need at least 1 byte per cycle"
                )
            if link.latency < 0:
                raise TopologyError(
                    f"link {link.name} has latency {link.latency}; "
                    "need at least 0 cycles"
                )
        if not self.ideal:
            self._build_routing()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _build_routing(self) -> None:
        """BFS shortest-path next-hop table, lowest link id breaks ties.

        One BFS per destination router over the *reversed* graph gives
        hop distances; the next hop from ``r`` toward ``d`` is the
        outgoing link whose far end is strictly closer, picking the
        smallest ``link_id`` among equals.  Pure function of the graph —
        no iteration-order or hash dependence.
        """
        out_links: Dict[str, List[Link]] = {r: [] for r in self.routers}
        in_links: Dict[str, List[Link]] = {r: [] for r in self.routers}
        for link in sorted(self.links, key=lambda l: l.link_id):
            out_links[link.src].append(link)
            in_links[link.dst].append(link)
        for dst in self.routers:
            dist = {dst: 0}
            frontier = [dst]
            while frontier:
                nxt: List[str] = []
                for router in frontier:
                    for link in in_links[router]:
                        if link.src not in dist:
                            dist[link.src] = dist[router] + 1
                            nxt.append(link.src)
                nxt.sort()
                frontier = nxt
            for router in self.routers:
                if router == dst:
                    continue
                if router not in dist:
                    continue
                for link in out_links[router]:
                    if dist.get(link.dst, math.inf) == dist[router] - 1:
                        self._next_hop[(router, dst)] = link
                        break
        # every endpoint pair must be mutually routable
        attach = sorted(set(self.endpoints.values()))
        for a in attach:
            for b in attach:
                if a != b and (a, b) not in self._next_hop:
                    raise TopologyError(
                        f"no route between routers {a!r} and {b!r}"
                    )

    def next_link(self, router: str, dst_router: str) -> Link:
        try:
            return self._next_hop[(router, dst_router)]
        except KeyError:
            raise TopologyError(
                f"no route from {router!r} to {dst_router!r}"
            ) from None

    def route(self, src_ep: int, dst_ep: int) -> List[Link]:
        """Full link path between two endpoints ([] on ideal graphs)."""
        if self.ideal:
            return []
        here = self.endpoints[src_ep]
        there = self.endpoints[dst_ep]
        path: List[Link] = []
        while here != there:
            link = self.next_link(here, there)
            path.append(link)
            here = link.dst
            if len(path) > len(self.links):
                raise TopologyError("routing loop detected")
        return path

    @property
    def node_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(e for e in self.endpoints if e != COORDINATOR))

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "ideal": self.ideal,
            "routers": list(self.routers),
            "endpoints": {str(k): v for k, v in sorted(self.endpoints.items())},
            "links": [
                {
                    "id": l.link_id,
                    "src": l.src,
                    "dst": l.dst,
                    "bandwidth": l.bandwidth,
                    "latency": l.latency,
                    "channel": l.channel,
                }
                for l in self.links
            ],
        }


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def _sorted_ids(node_ids: Iterable[int]) -> List[int]:
    ids = sorted(int(n) for n in node_ids)
    if not ids:
        raise TopologyError("need at least one node endpoint")
    if len(set(ids)) != len(ids):
        raise TopologyError(f"duplicate node ids {ids}")
    if COORDINATOR in ids:
        raise TopologyError("coordinator id is implicit, not a node id")
    return ids


class _LinkFactory:
    """Hands out links with dense deterministic ids."""

    def __init__(self) -> None:
        self._links: List[Link] = []

    def pair(
        self,
        a: str,
        b: str,
        bandwidth: int,
        latency: int,
        channel_ab: str = "",
        channel_ba: str = "",
    ) -> None:
        """One link in each direction."""
        self.one(a, b, bandwidth, latency, channel_ab)
        self.one(b, a, bandwidth, latency, channel_ba)

    def one(
        self,
        src: str,
        dst: str,
        bandwidth: int,
        latency: int,
        channel: str = "",
    ) -> None:
        self._links.append(
            Link(
                link_id=len(self._links),
                src=src,
                dst=dst,
                bandwidth=int(bandwidth),
                latency=int(latency),
                channel=channel,
            )
        )

    def done(self) -> Tuple[Link, ...]:
        return tuple(self._links)


def ideal_topology(node_ids: Iterable[int]) -> Topology:
    """Zero-cost teleport fabric: the free-comm calibration point."""
    ids = _sorted_ids(node_ids)
    endpoints = {nid: "ether" for nid in ids}
    endpoints[COORDINATOR] = "ether"
    return Topology(
        name="ideal",
        kind="ideal",
        routers=("ether",),
        endpoints=endpoints,
        links=(),
        ideal=True,
    )


def ring_topology(
    node_ids: Iterable[int],
    bandwidth: int = 64,
    latency: int = 4,
) -> Topology:
    """Bidirectional ring, host hung off the lowest-rank router."""
    ids = _sorted_ids(node_ids)
    k = len(ids)
    routers = tuple(f"r{i}" for i in range(k)) + (HOST_ROUTER,)
    endpoints = {nid: f"r{rank}" for rank, nid in enumerate(ids)}
    endpoints[COORDINATOR] = HOST_ROUTER
    lf = _LinkFactory()
    if k > 1:
        for i in range(k):
            j = (i + 1) % k
            if k == 2 and i == 1:
                break  # a 2-ring is a single bidirectional pair
            lf.pair(f"r{i}", f"r{j}", bandwidth, latency, "cw", "ccw")
    lf.pair(HOST_ROUTER, "r0", bandwidth, latency)
    return Topology(
        name=f"ring{k}",
        kind="ring",
        routers=routers,
        endpoints=endpoints,
        links=lf.done(),
    )


def mesh2d_topology(
    node_ids: Iterable[int],
    bandwidth: int = 64,
    latency: int = 4,
) -> Topology:
    """Near-square 2D mesh, nodes placed row-major, host at (0, 0)."""
    ids = _sorted_ids(node_ids)
    k = len(ids)
    width = max(1, math.ceil(math.sqrt(k)))
    height = math.ceil(k / width)
    routers = tuple(
        f"m{x}_{y}" for y in range(height) for x in range(width)
    ) + (HOST_ROUTER,)
    endpoints: Dict[int, str] = {}
    for rank, nid in enumerate(ids):
        x, y = rank % width, rank // width
        endpoints[nid] = f"m{x}_{y}"
    endpoints[COORDINATOR] = HOST_ROUTER
    lf = _LinkFactory()
    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                lf.pair(f"m{x}_{y}", f"m{x + 1}_{y}", bandwidth, latency)
            if y + 1 < height:
                lf.pair(f"m{x}_{y}", f"m{x}_{y + 1}", bandwidth, latency)
    lf.pair(HOST_ROUTER, "m0_0", bandwidth, latency)
    return Topology(
        name=f"mesh{width}x{height}",
        kind="mesh",
        routers=routers,
        endpoints=endpoints,
        links=lf.done(),
    )


def fat_tree_topology(
    node_ids: Iterable[int],
    bandwidth: int = 64,
    latency: int = 4,
    arity: int = 2,
) -> Topology:
    """Two-level tree with ``arity``-fattened uplinks and host link."""
    if arity < 1:
        raise TopologyError(f"arity must be >= 1, got {arity}")
    ids = _sorted_ids(node_ids)
    k = len(ids)
    leaves = math.ceil(k / arity)
    routers = tuple(f"l{i}" for i in range(leaves)) + ("root", HOST_ROUTER)
    endpoints: Dict[int, str] = {}
    for rank, nid in enumerate(ids):
        endpoints[nid] = f"l{rank // arity}"
    endpoints[COORDINATOR] = HOST_ROUTER
    lf = _LinkFactory()
    fat = int(bandwidth) * arity
    for i in range(leaves):
        lf.pair(f"l{i}", "root", fat, latency)
    lf.pair(HOST_ROUTER, "root", fat, latency)
    return Topology(
        name=f"fat-tree{k}",
        kind="fat-tree",
        routers=routers,
        endpoints=endpoints,
        links=lf.done(),
    )


TOPOLOGY_KINDS: Tuple[str, ...] = ("ideal", "ring", "mesh", "fat-tree")


def build_topology(
    kind: str,
    node_ids: Sequence[int],
    bandwidth: int = 64,
    latency: int = 4,
    arity: int = 2,
) -> Topology:
    """Build a topology by name (``fat_tree`` accepted as an alias)."""
    canonical = kind.strip().lower().replace("_", "-")
    if canonical == "ideal":
        return ideal_topology(node_ids)
    if canonical == "ring":
        return ring_topology(node_ids, bandwidth=bandwidth, latency=latency)
    if canonical == "mesh":
        return mesh2d_topology(node_ids, bandwidth=bandwidth, latency=latency)
    if canonical == "fat-tree":
        return fat_tree_topology(
            node_ids, bandwidth=bandwidth, latency=latency, arity=arity
        )
    raise TopologyError(
        f"unknown topology {kind!r}; expected one of {TOPOLOGY_KINDS}"
    )
