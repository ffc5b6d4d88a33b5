"""Deterministic discrete-event simulation of the cluster interconnect.

Three layers, smallest first:

:class:`SimulatorEngine`
    A bare event queue: a heap of flat ``(time, seq, *event)`` entries
    where ``seq`` is a monotone schedule counter, so two events at the
    same cycle always replay in the order they were scheduled.  No wall
    clock, no randomness — a run is a pure function of the injected
    workload.

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

Drain replay: a drain that starts quiescent (the heap holds only its own
injections, every credit is home, every buffer and queue is empty and
nothing is in flight) is a pure function of the ordered
``(src, dst, nbytes)`` list injected since the last drain.  The
simulator records such a drain's deltas by that list, and a repeat adds
them at the current cycle instead of running the flit loop.  The trace
digest chains one sha256 per drain over the drain's event lines written
relative to its start cycle, first inject seq and first message id, so a
replayed drain extends it exactly as the simulated one would.

On the ``ideal`` topology there are no links: flits teleport at the
injection cycle, so drained phases cost zero cycles while flit counts
remain comparable with real topologies.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, Set, Tuple

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
#: one injected message as a drain's memo key sees it
_Send = Tuple[int, int, int]

_PHASE_KEYS = ("cycles", "flits", "messages", "nbytes", "drains")


@dataclass
class MessageRecord:
    msg_id: int
    src: int
    dst: int
    nbytes: int
    flits: int
    phase: str
    injected_at: int
    delivered_flits: int = 0
    delivered_at: Optional[int] = None


class _Drain(NamedTuple):
    """What one drain did, as deltas a replay adds at its start cycle."""

    cycles: int
    #: schedule-counter advance
    seq: int
    events: int
    #: ``(link position, delta)`` for every link whose count moved
    sent: Tuple[Tuple[int, int], ...]
    blocked: Tuple[Tuple[int, int], ...]
    injected: int
    delivered: int
    duplicates: int
    #: sha256 of the drain's relative trace; empty when it handled no event
    rel: bytes


def _deltas(before: List[int], after: List[int]) -> Tuple[Tuple[int, int], ...]:
    return tuple(
        (pos, a - b) for pos, (b, a) in enumerate(zip(before, after)) if a != b
    )


class SimulatorEngine:
    """Event heap with stable ``(time, seq)`` ordering.

    :meth:`NetworkSimulator.drain` runs this loop inline on ``_heap``,
    ``_seq``, ``_now`` and ``_events_handled``, and a replayed drain
    advances them by its recorded deltas.  The trace digest lives in
    :class:`NetworkSimulator`.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[object, ...]] = []
        self._seq = 0
        self._now = 0
        self._events_handled = 0

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
        #: records of the messages still in flight (of every message
        #: when ``record_orders`` is set)
        self.messages: Dict[int, MessageRecord] = {}
        self._next_msg_id = 0
        self._phase = "idle"
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
        #: FIFO property tests; disabled by default to bound memory.
        #: With orders recorded every drain is simulated.
        self.record_orders = record_orders
        self.sent_order: Dict[int, List[Tuple[int, int]]] = {}
        self.arrive_order: Dict[int, List[Tuple[int, int]]] = {}
        #: ``(src, dst, nbytes)`` of each message since the last drain
        self._pending: List[_Send] = []
        #: quiescent drains by their injected list
        self._memo: Dict[Tuple[_Send, ...], _Drain] = {}
        #: drains replayed from the memo instead of simulated
        self.replayed_drains = 0
        #: chained trace digest; sha256 of nothing until a drain handles
        #: an event
        self._digest = hashlib.sha256().digest()

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
        an unroutable pair (the topology rejects a link without
        bandwidth when it is built).
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

    def _phase_row(self) -> Dict[str, int]:
        return self._phases.setdefault(self._phase, dict.fromkeys(_PHASE_KEYS, 0))

    def begin_phase(self, name: str) -> None:
        self._phase = str(name)
        self._phase_row()

    def inject(self, src: int, dst: int, nbytes: int) -> int:
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
            injected_at=self.engine.now,
        )
        self._next_msg_id += 1
        self.messages[msg.msg_id] = msg
        self._pending.append((src, dst, nbytes))
        ph = self._phase_row()
        ph["messages"] += 1
        ph["flits"] += nflits
        ph["nbytes"] += nbytes
        self.engine.schedule(self.engine.now, (_INJECT, msg.msg_id, None))
        return msg.msg_id

    def drain(self) -> int:
        """Run the event queue dry; return cycles the phase advanced.

        A drain that starts quiescent (:meth:`_quiescent`) replays the
        recorded drain of the same injected list when there is one, and
        is simulated and recorded otherwise.  Every other drain, and
        every drain with ``record_orders`` set, is simulated; a drain
        that raises is not recorded.
        """
        engine = self.engine
        start = engine._now
        key = tuple(self._pending)
        self._pending.clear()
        n = len(key)
        # the first injection's seq and message id, unless something
        # else was scheduled since the last drain
        seq0 = engine._seq - n
        msg0 = self._next_msg_id - n
        memoize = not self.record_orders and self._quiescent(seq0, msg0, n)
        run = self._memo.get(key) if memoize else None
        if run is None:
            run = self._simulate(start, seq0, msg0)
            if memoize:
                self._memo[key] = run
        else:
            self._replay(run, start, seq0, msg0, n)
        ph = self._phase_row()
        ph["cycles"] += run.cycles
        ph["drains"] += 1
        return run.cycles

    def trace_digest(self) -> str:
        """sha256 chained over every drain's relative event trace."""
        return self._digest.hex()

    def idle_transfer_cycles(self, src: int, dst: int, nbytes: int) -> int:
        """Contention-free cycles for one message (deadline math).

        Serialization on the tightest link along the path plus the sum
        of hop latencies — what the message costs on an otherwise idle
        fabric.  Zero on the ideal topology, matching its actual cost,
        and for an empty payload.
        """
        path = self.topology.route(src, dst)
        if not path or nbytes <= 0:
            return 0
        nflits = max(1, -(-int(nbytes) // self.flit_bytes))
        bottleneck = max(
            link.serialization_cycles(self.flit_bytes) for link in path
        )
        return nflits * bottleneck + sum(link.latency for link in path)

    # ------------------------------------------------------------------
    # drain helpers
    # ------------------------------------------------------------------
    def _quiescent(self, seq0: int, msg0: int, n: int) -> bool:
        """Whether a drain starting now depends only on its injected list.

        The heap holds exactly the ``n`` injections since the last drain
        (seqs from ``seq0``, message ids from ``msg0``), every credit is
        home, every link buffer and injection queue is empty, and no
        pump or message is pending.  Every drain that returned leaves
        this so; the check stays because :meth:`SimulatorEngine.schedule`
        is public.  No link is then still serialising: a send's arrival
        is scheduled no earlier than the link frees, and popping it
        brings the clock there.
        """
        now = self.engine._now
        cap = self.buffer_flits
        return (
            self.engine._heap
            == [(now, seq0 + i, _INJECT, msg0 + i, None) for i in range(n)]
            and not self._undelivered
            and not self._pump_pending
            and all(c == cap for c in self._credits)
            and not any(self._bufs)
            and not any(r.inject_q for r in self._routers)
        )

    def _chain(self, start: int, seq0: int, msg0: int, rel: bytes) -> None:
        """Fold one drain's relative trace and its offsets into the
        digest; a drain that handled no event leaves it as it is."""
        if rel:
            self._digest = hashlib.sha256(
                self._digest + f"{start} {seq0} {msg0}\n".encode("ascii") + rel
            ).digest()

    def _replay(
        self, run: _Drain, start: int, seq0: int, msg0: int, n: int
    ) -> None:
        """Add a recorded quiescent drain's deltas at cycle ``start``.

        Per-link and per-router maximum depths need nothing: the
        simulated run already folded the same depths into them.
        """
        engine = self.engine
        engine._heap.clear()
        engine._now = start + run.cycles
        engine._seq += run.seq
        engine._events_handled += run.events
        for pos, flits in run.sent:
            self._sent[pos] += flits
        for pos, attempts in run.blocked:
            self._blocked[pos] += attempts
        self._flits_injected += run.injected
        self._flits_delivered += run.delivered
        self._duplicates += run.duplicates
        for msg_id in range(msg0, msg0 + n):
            del self.messages[msg_id]
        self.replayed_drains += 1
        self._chain(start, seq0, msg0, run.rel)

    def _simulate(self, start: int, seq0: int, msg0: int) -> _Drain:
        """Run the flit loop dry and return what it did.

        Every handled event writes its trace line, with cycles, seqs and
        message ids relative to ``start``, ``seq0`` and ``msg0``, then
        pumps one router: an injection its source router, an arrival the
        link's far end, a credit the link's sender, a pump its own
        router.  A pump forwards every head flit that can move this
        cycle, passing over the arbitration list until a pass moves
        nothing.  A flit delivered by a pump has no seq of its own and
        writes ``-1``.
        """
        engine = self.engine
        heap = engine._heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        now = start
        seq = seq_start = engine._seq
        queued = len(heap)
        lines: List[str] = []
        out = lines.append
        deliver = self._deliver
        messages = self.messages
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
        sent0, blocked0 = list(sent), list(blocked)
        counts0 = (self._flits_injected, self._flits_delivered, self._duplicates)
        rel = b""
        try:
            while heap:
                now, s, kind, a, b = heappop(heap)
                if kind == _ARRIVE:
                    msg_id, index, _ = b
                    lid = links[a].link_id
                    out(
                        f"{now - start}.{s - seq0} arrive {lid} "
                        f"m{msg_id - msg0}.{index}"
                    )
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
                    out(f"{now - start}.{s - seq0} credit {links[a].link_id}")
                    credits[a] += 1
                    if credits[a] > cap:  # pragma: no cover - invariant
                        raise RuntimeError(
                            f"credit overflow on link {links[a].name}"
                        )
                    r = link_src[a]
                elif kind == _PUMP:
                    pump_pending.discard(now * nrouters + a)
                    out(f"{now - start}.{s - seq0} pump {names[a]}")
                    r = a
                elif kind == _INJECT:
                    msg = messages[a]
                    out(
                        f"{now - start}.{s - seq0} inject m{a - msg0} "
                        f"{msg.src}>{msg.dst} f{msg.flits} b{msg.nbytes}"
                    )
                    r = self._queue_flits(msg)
                    if r < 0:
                        # ideal fabric: every flit lands at injection
                        for index in range(msg.flits):
                            deliver(a, index, now)
                            out(
                                f"{now - start}.{s - seq0} deliver "
                                f"m{a - msg0}.{index}"
                            )
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
                            deliver(flit[0], flit[1], now)
                            out(
                                f"{now - start}.-1 deliver "
                                f"m{flit[0] - msg0}.{flit[1]}"
                            )
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
            events = queued + (seq - seq_start) - len(heap)
            engine._events_handled += events
            engine._seq = seq
            if lines:
                joined = "\n".join(lines) + "\n"
                rel = hashlib.sha256(joined.encode("ascii")).digest()
            self._chain(start, seq0, msg0, rel)
        return _Drain(
            cycles=now - start,
            seq=seq - seq_start,
            events=events,
            sent=_deltas(sent0, sent),
            blocked=_deltas(blocked0, blocked),
            injected=self._flits_injected - counts0[0],
            delivered=self._flits_delivered - counts0[1],
            duplicates=self._duplicates - counts0[2],
            rel=rel,
        )

    def _queue_flits(self, msg: MessageRecord) -> int:
        """Handle an injection: queue the message's flits at its source
        router and return that router's index, or -1 on the ideal
        fabric, where the caller delivers them at once."""
        self._flits_injected += msg.flits
        self._undelivered[msg.msg_id] = set(range(msg.flits))
        if self.topology.ideal:
            return -1
        endpoints = self.topology.endpoints
        src = self._router_index[endpoints[msg.src]]
        dst = self._router_index[endpoints[msg.dst]]
        router = self._routers[src]
        router.inject_q.extend((msg.msg_id, i, dst) for i in range(msg.flits))
        router.max_inject_depth = max(
            router.max_inject_depth, len(router.inject_q)
        )
        return src

    def _deliver(self, msg_id: int, index: int, time: int) -> None:
        left = self._undelivered.get(msg_id)
        if left is None or index not in left:
            self._duplicates += 1
        else:
            left.remove(index)
            if not left:
                del self._undelivered[msg_id]
        self._flits_delivered += 1
        msg = self.messages.get(msg_id)
        if msg is None:  # a duplicate of a message already delivered
            return
        msg.delivered_flits += 1
        if msg.delivered_flits == msg.flits:
            msg.delivered_at = time
            if not self.record_orders:
                del self.messages[msg_id]

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def message_count(self) -> int:
        """Messages injected over the simulator's lifetime."""
        return self._next_msg_id

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
            "messages": self.message_count,
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
