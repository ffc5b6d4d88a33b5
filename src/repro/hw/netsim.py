"""Deterministic discrete-event simulation of the cluster interconnect.

Three layers, smallest first:

:class:`SimulatorEngine`
    A bare event queue: a heap of flat ``(time, seq, *event)`` entries
    where ``seq`` is a monotone schedule counter, so two events at the
    same cycle always replay in the order they were scheduled.  No wall
    clock, no randomness — a run is a pure function of the injected
    workload, and the engine folds every handled event's trace line into
    a sha256 so two runs can be compared by digest alone.

:class:`Router`
    Per-router queue state: an unbounded DMA-style injection queue (the
    source endpoint's memory is not our concern) and one bounded FIFO
    input buffer per incoming link.

:class:`NetworkSimulator`
    The facade the cluster layer talks to: ``inject(src, dst, nbytes)``
    splits a message into fixed-size flits, routers forward them hop by
    hop under credit-based backpressure (a sender spends one credit per
    flit and gets it back only when the downstream buffer slot frees),
    links serialise at ``bandwidth`` bytes/cycle and add ``latency``
    pipeline cycles per hop.  ``drain()`` runs the queue dry and returns
    the cycles the current phase took.

Flow control invariant: credits per link start at the downstream buffer
capacity and are decremented at send time, incremented one cycle after
the downstream slot frees — so an input FIFO can never hold more than
``buffer_flits`` flits, and a stalled hop propagates backpressure
upstream instead of dropping anything.  Conservation (every injected
flit delivered exactly once) is tracked explicitly and asserted by the
property suite in ``tests/test_netsim_properties.py``.

Everything the forwarding loop would otherwise recompute per flit is
fixed at construction: each router's arbitration list (injection queue
first, then in-links by id) and, per arbitration source, a hop table
by destination router holding the outgoing link, its per-flit
serialization cycles, its latency and the credits the bubble rule asks
for.  A flit is a plain ``(msg_id, index, dst_router)`` tuple.

On the ``ideal`` topology there are no links: flits teleport at the
injection cycle, so drained phases cost zero cycles while flit counts
remain comparable with real topologies.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from .topology import Topology, TopologyError

__all__ = [
    "CREDIT_RETURN_CYCLES",
    "MessageRecord",
    "NetworkSimulator",
    "Router",
    "SimulatorEngine",
]

#: Cycles for a freed buffer slot's credit to reach the upstream sender.
CREDIT_RETURN_CYCLES = 1

# event kinds: a heap entry is ``(time, seq, kind, a, b)``
_INJECT, _ARRIVE, _CREDIT, _PUMP = range(4)

#: one flit on the wire: ``(msg_id, index, dst_router)``
_Flit = Tuple[int, int, int]
#: ``(link, serialization cycles of one flit, latency, credits needed)``
_Hop = Tuple[int, int, int, int]


@dataclass
class MessageRecord:
    msg_id: int
    src: int
    dst: int
    nbytes: int
    flits: int
    phase: str
    tag: str
    injected_at: int
    delivered_flits: int = 0
    delivered_at: Optional[int] = None


class SimulatorEngine:
    """Event heap with stable ``(time, seq)`` ordering and a trace hash.

    :meth:`NetworkSimulator.drain` runs this loop inline on ``_heap``,
    ``_seq``, ``_now`` and ``_events_handled``.  Trace lines collect in
    :attr:`trace_lines` and :meth:`flush` folds them into the digest as
    ``"\\n".join(lines) + "\\n"`` — the same sha256 as hashing each line
    and its newline as the event happens.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[object, ...]] = []
        self._seq = 0
        self._now = 0
        self._events_handled = 0
        self._trace = hashlib.sha256()
        #: trace lines not yet folded into the digest
        self.trace_lines: List[str] = []

    @property
    def now(self) -> int:
        return self._now

    @property
    def events_handled(self) -> int:
        return self._events_handled

    def schedule(self, time: int, event: Tuple[object, ...]) -> None:
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time} before now={self._now}"
            )
        heapq.heappush(self._heap, (int(time), self._seq) + tuple(event))
        self._seq += 1

    def pop(self) -> Tuple[int, int, Tuple[object, ...]]:
        entry = heapq.heappop(self._heap)
        self._now = entry[0]
        self._events_handled += 1
        return entry[0], entry[1], entry[2:]

    def flush(self) -> None:
        """Fold the buffered trace lines into the running digest."""
        if self.trace_lines:
            joined = "\n".join(self.trace_lines) + "\n"
            self._trace.update(joined.encode("ascii"))
            self.trace_lines.clear()

    def trace_digest(self) -> str:
        self.flush()
        return self._trace.hexdigest()


@dataclass
class Router:
    """Queue state for one router."""

    name: str
    #: DMA source queue: flits awaiting their first hop (unbounded)
    inject_q: Deque[_Flit] = field(default_factory=deque)
    #: bounded input FIFO per incoming link id
    in_bufs: Dict[int, Deque[_Flit]] = field(default_factory=dict)
    max_inject_depth: int = 0


class NetworkSimulator:
    """Credit-flow flit simulator over a :class:`Topology`."""

    def __init__(
        self,
        topology: Topology,
        flit_bytes: int = 64,
        buffer_flits: int = 4,
        record_orders: bool = False,
    ) -> None:
        if flit_bytes < 1:
            raise ValueError(f"flit_bytes must be >= 1, got {flit_bytes}")
        if buffer_flits < 2:
            # bubble flow control needs one spare slot per cyclic channel
            raise ValueError(f"buffer_flits must be >= 2, got {buffer_flits}")
        self.topology = topology
        self.flit_bytes = int(flit_bytes)
        self.buffer_flits = int(buffer_flits)
        self.engine = SimulatorEngine()
        self.messages: Dict[int, MessageRecord] = {}
        self._next_msg_id = 0
        self._phase = "idle"
        self._phase_start = 0
        self._phases: Dict[str, Dict[str, int]] = {}
        #: undelivered flit indices per message still in flight; a
        #: delivery outside its message's set is a duplicate
        self._undelivered: Dict[int, Set[int]] = {}
        self._duplicates = 0
        self._flits_injected = 0
        self._flits_delivered = 0
        #: ``time * routers + router`` of every pump already scheduled
        self._pump_pending: Set[int] = set()
        #: per-link (msg_id, flit_index) send/arrive orders for the
        #: FIFO property tests; disabled by default to bound memory
        self.record_orders = record_orders
        self.sent_order: Dict[int, List[Tuple[int, int]]] = {}
        self.arrive_order: Dict[int, List[Tuple[int, int]]] = {}

        # routers and links by dense index; links in id order
        self._router_names: Tuple[str, ...] = tuple(topology.routers)
        self._router_index = {
            name: i for i, name in enumerate(self._router_names)
        }
        self._routers = [Router(name=name) for name in self._router_names]
        self.routers: Dict[str, Router] = {r.name: r for r in self._routers}
        self._links = sorted(topology.links, key=lambda l: l.link_id)
        self._link_pos = {l.link_id: i for i, l in enumerate(self._links)}
        nlinks = len(self._links)
        self._link_src = [self._router_index[l.src] for l in self._links]
        self._link_dst = [self._router_index[l.dst] for l in self._links]
        self._bufs: List[Deque[_Flit]] = [deque() for _ in self._links]
        #: per-link sender state: credits and serialization horizon
        self._credits = [self.buffer_flits] * nlinks
        self._free_at = [0] * nlinks
        #: per-link counters (bytes and busy cycles follow from flits)
        self._sent = [0] * nlinks
        self._blocked = [0] * nlinks
        self._max_depth = [0] * nlinks
        for pos, link in enumerate(self._links):
            self.routers[link.dst].in_bufs[link.link_id] = self._bufs[pos]
            if record_orders:
                self.sent_order[link.link_id] = []
                self.arrive_order[link.link_id] = []
        #: per router: ``(from link or -1, queue, hop table)`` in
        #: arbitration order — injection queue first, then in-links by id
        self._arbitration: List[List[Tuple[int, Deque[_Flit], List]]] = []
        for r, router in enumerate(self._routers):
            sources = [(-1, router.inject_q, self._hop_table(r, None))]
            for lid in sorted(router.in_bufs):
                pos = self._link_pos[lid]
                channel = self._links[pos].channel
                sources.append(
                    (pos, self._bufs[pos], self._hop_table(r, channel))
                )
            self._arbitration.append(sources)

    def _hop(self, router: int, dst: int, from_channel: Optional[str]) -> _Hop:
        """The hop a flit at ``router`` bound for router ``dst`` takes.

        Bubble flow control: entering a cyclic channel (ring direction)
        from injection (``from_channel=None``) or from another channel
        must leave a spare downstream slot, so the cycle can never
        completely fill and deadlock.  In-channel transit and acyclic
        links need only one credit.  Raises :class:`TopologyError` for
        an unroutable pair or a link without bandwidth.
        """
        link = self.topology.next_link(
            self._router_names[router], self._router_names[dst]
        )
        need = 2 if link.channel and link.channel != from_channel else 1
        return (
            self._link_pos[link.link_id],
            link.serialization_cycles(self.flit_bytes),
            link.latency,
            need,
        )

    def _hop_table(
        self, router: int, from_channel: Optional[str]
    ) -> List[Optional[_Hop]]:
        """Hops from ``router`` by destination router, for one source.

        ``None`` where the flit is delivered at ``router``, and where no
        hop can be priced: :meth:`drain` repeats the lookup for a flit
        that needs such a hop, which raises the lookup's error.
        """
        table: List[Optional[_Hop]] = []
        for dst in range(len(self._router_names)):
            hop = None
            if dst != router:
                try:
                    hop = self._hop(router, dst, from_channel)
                except TopologyError:
                    hop = None
            table.append(hop)
        return table

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        return self.engine.now

    def begin_phase(self, name: str) -> None:
        self._phase = str(name)
        self._phase_start = self.engine.now
        self._phases.setdefault(
            self._phase,
            {"cycles": 0, "flits": 0, "messages": 0, "nbytes": 0, "drains": 0},
        )

    def inject(self, src: int, dst: int, nbytes: int, tag: str = "") -> int:
        """Queue a DMA-style message injection at the current cycle."""
        if src not in self.topology.endpoints:
            raise TopologyError(f"unknown source endpoint {src}")
        if dst not in self.topology.endpoints:
            raise TopologyError(f"unknown destination endpoint {dst}")
        if src == dst:
            raise TopologyError(f"endpoint {src} cannot message itself")
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"negative payload size {nbytes}")
        nflits = max(1, -(-nbytes // self.flit_bytes))
        msg = MessageRecord(
            msg_id=self._next_msg_id,
            src=src,
            dst=dst,
            nbytes=nbytes,
            flits=nflits,
            phase=self._phase,
            tag=tag,
            injected_at=self.engine.now,
        )
        self._next_msg_id += 1
        self.messages[msg.msg_id] = msg
        ph = self._phases.setdefault(
            self._phase,
            {"cycles": 0, "flits": 0, "messages": 0, "nbytes": 0, "drains": 0},
        )
        ph["messages"] += 1
        ph["flits"] += nflits
        ph["nbytes"] += nbytes
        self.engine.schedule(self.engine.now, (_INJECT, msg.msg_id, None))
        return msg.msg_id

    def drain(self) -> int:
        """Run the event queue dry; return cycles the phase advanced.

        Every handled event appends its trace line, then pumps one
        router: an injection its source router, an arrival the link's
        far end, a credit the link's sender, a pump its own router.  A
        pump forwards every head flit that can move this cycle, passing
        over the arbitration list until a pass moves nothing.
        """
        engine = self.engine
        heap = engine._heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        start = now = engine._now
        seq = seq0 = engine._seq
        queued = len(heap)
        out = engine.trace_lines.append
        deliver = self._deliver
        record = self.record_orders
        cap = self.buffer_flits
        arbitration = self._arbitration
        bufs = self._bufs
        credits = self._credits
        free_at = self._free_at
        sent = self._sent
        blocked = self._blocked
        max_depth = self._max_depth
        link_src = self._link_src
        link_dst = self._link_dst
        links = self._links
        names = self._router_names
        nrouters = len(names)
        pump_pending = self._pump_pending
        try:
            while heap:
                now, s, kind, a, b = heappop(heap)
                if kind == _ARRIVE:
                    msg_id, index, _ = b
                    lid = links[a].link_id
                    out(f"{now}.{s} arrive {lid} m{msg_id}.{index}")
                    buf = bufs[a]
                    buf.append(b)
                    depth = len(buf)
                    if depth > max_depth[a]:
                        max_depth[a] = depth
                        if depth > cap:  # pragma: no cover - invariant
                            raise RuntimeError(
                                f"credit protocol violated: {depth} flits "
                                f"in {cap}-deep buffer on link "
                                f"{links[a].name}"
                            )
                    if record:
                        self.arrive_order[lid].append((msg_id, index))
                    r = link_dst[a]
                elif kind == _CREDIT:
                    out(f"{now}.{s} credit {links[a].link_id}")
                    credits[a] += 1
                    if credits[a] > cap:  # pragma: no cover - invariant
                        raise RuntimeError(
                            f"credit overflow on link {links[a].name}"
                        )
                    r = link_src[a]
                elif kind == _PUMP:
                    pump_pending.discard(now * nrouters + a)
                    out(f"{now}.{s} pump {names[a]}")
                    r = a
                elif kind == _INJECT:
                    r = self._queue_flits(now, s, a)
                    if r < 0:
                        continue
                else:  # pragma: no cover - defensive
                    raise RuntimeError(f"unknown event kind {kind!r}")
                sources = arbitration[r]
                progress = True
                while progress:
                    progress = False
                    for from_link, queue, hops in sources:
                        if not queue:
                            continue
                        flit = queue[0]
                        hop = hops[flit[2]]
                        if hop is None:
                            if flit[2] != r:
                                # no hop could be priced here: repeat
                                # the lookup to raise its error
                                self._hop(r, flit[2], None)
                            queue.popleft()
                            deliver(flit[0], flit[1], now, -1)
                        else:
                            link, ser, latency, need = hop
                            c = credits[link]
                            if c < need or free_at[link] > now:
                                blocked[link] += 1
                                if c >= need:
                                    # serialising: retry when the link
                                    # frees; credit-starved heads are
                                    # re-pumped by the credit return
                                    when = free_at[link]
                                    key = when * nrouters + r
                                    if key not in pump_pending:
                                        pump_pending.add(key)
                                        heappush(
                                            heap, (when, seq, _PUMP, r, None)
                                        )
                                        seq += 1
                                continue
                            queue.popleft()
                            credits[link] = c - 1
                            free_at[link] = now + ser
                            sent[link] += 1
                            if record:
                                self.sent_order[links[link].link_id].append(
                                    (flit[0], flit[1])
                                )
                            heappush(
                                heap,
                                (now + ser + latency, seq, _ARRIVE, link, flit),
                            )
                            seq += 1
                        if from_link >= 0:
                            heappush(
                                heap,
                                (now + CREDIT_RETURN_CYCLES, seq, _CREDIT,
                                 from_link, None),
                            )
                            seq += 1
                        progress = True
        finally:
            engine._now = now
            engine._events_handled += queued + (seq - seq0) - len(heap)
            engine._seq = seq
            engine.flush()
        elapsed = now - start
        ph = self._phases.setdefault(
            self._phase,
            {"cycles": 0, "flits": 0, "messages": 0, "nbytes": 0, "drains": 0},
        )
        ph["cycles"] += elapsed
        ph["drains"] += 1
        return elapsed

    def trace_digest(self) -> str:
        return self.engine.trace_digest()

    # ------------------------------------------------------------------
    # event helpers
    # ------------------------------------------------------------------
    def _queue_flits(self, time: int, seq: int, msg_id: int) -> int:
        """Handle an injection: queue the message's flits at its source
        router and return that router's index, or deliver them at once
        on the ideal fabric and return -1."""
        msg = self.messages[msg_id]
        self.engine.trace_lines.append(
            f"{time}.{seq} inject m{msg_id} {msg.src}>{msg.dst} "
            f"f{msg.flits} b{msg.nbytes}"
        )
        self._flits_injected += msg.flits
        self._undelivered[msg_id] = set(range(msg.flits))
        if self.topology.ideal:
            for index in range(msg.flits):
                self._deliver(msg_id, index, time, seq)
            return -1
        endpoints = self.topology.endpoints
        src = self._router_index[endpoints[msg.src]]
        dst = self._router_index[endpoints[msg.dst]]
        router = self._routers[src]
        router.inject_q.extend((msg_id, i, dst) for i in range(msg.flits))
        router.max_inject_depth = max(
            router.max_inject_depth, len(router.inject_q)
        )
        return src

    def _deliver(self, msg_id: int, index: int, time: int, seq: int) -> None:
        left = self._undelivered.get(msg_id)
        if left is None or index not in left:
            self._duplicates += 1
        else:
            left.remove(index)
            if not left:
                del self._undelivered[msg_id]
        self._flits_delivered += 1
        self.engine.trace_lines.append(
            f"{time}.{seq} deliver m{msg_id}.{index}"
        )
        msg = self.messages[msg_id]
        msg.delivered_flits += 1
        if msg.delivered_flits == msg.flits:
            msg.delivered_at = time

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def flits_injected(self) -> int:
        return self._flits_injected

    @property
    def flits_delivered(self) -> int:
        return self._flits_delivered

    @property
    def flits_dropped(self) -> int:
        """Injected-but-undelivered flits after a drain (must be 0)."""
        return self._flits_injected - self._flits_delivered

    @property
    def duplicates(self) -> int:
        return self._duplicates

    @property
    def blocked_attempts(self) -> int:
        return sum(self._blocked)

    @property
    def max_queue_depth(self) -> int:
        """Deepest any *bounded* link input buffer got (<= buffer_flits)."""
        return max(self._max_depth, default=0)

    @property
    def max_inject_depth(self) -> int:
        """Deepest DMA source queue (unbounded by design)."""
        return max(
            (r.max_inject_depth for r in self._routers), default=0
        )

    def link_utilization(self) -> Dict[str, Dict[str, object]]:
        """Per-link flit/busy/utilization table keyed by link name."""
        horizon = max(1, self.engine.now)
        table: Dict[str, Dict[str, object]] = {}
        for pos, link in enumerate(self._links):
            flits = self._sent[pos]
            busy = (
                flits * link.serialization_cycles(self.flit_bytes)
                if flits
                else 0
            )
            table[link.name] = {
                "flits": flits,
                "nbytes": flits * self.flit_bytes,
                "busy_cycles": busy,
                "blocked": self._blocked[pos],
                "max_depth": self._max_depth[pos],
                "utilization": round(busy / horizon, 6),
            }
        return table

    def phase_stats(self) -> Dict[str, Dict[str, int]]:
        return {
            name: dict(stats) for name, stats in sorted(self._phases.items())
        }

    def stats(self) -> Dict[str, object]:
        return {
            "topology": self.topology.name,
            "kind": self.topology.kind,
            "flit_bytes": self.flit_bytes,
            "buffer_flits": self.buffer_flits,
            "cycles": self.engine.now,
            "events": self.engine.events_handled,
            "messages": len(self.messages),
            "flits_injected": self._flits_injected,
            "flits_delivered": self._flits_delivered,
            "flits_dropped": self.flits_dropped,
            "duplicates": self._duplicates,
            "blocked_attempts": self.blocked_attempts,
            "max_queue_depth": self.max_queue_depth,
            "max_inject_depth": self.max_inject_depth,
            "phases": self.phase_stats(),
            "links": self.link_utilization(),
        }
