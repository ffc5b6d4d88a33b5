"""Elastic cluster membership: nodes join, leave, and die mid-flight.

The PR-5 cluster layer assumed a fixed node set: one dead or added node
invalidated the whole placement and would have forced a full matrix
re-encode.  This module makes membership a first-class, *deterministic*
input — Varuna-style elasticity (preemption signals, morphing a running
job onto a changed node set) with the hard guarantee that results stay
bit-identical per RNS limb across any scale schedule:

* :class:`MembershipEvent` / :class:`MembershipSchedule` — seeded
  join/leave/kill events indexed by **request sequence number**, so a
  chaos run is a pure function of ``(data seed, schedule seed)`` and can
  be replayed byte-for-byte;
* :class:`ClusterController` — reacts between requests.  The key design
  decision is that the :class:`~repro.cluster.partition.PartitionPlan`
  shard grid **never changes**: membership events only move *where*
  shards run, so the merge algebra (exact modular addition + row-order
  concat + central pack) is untouched and bit-identity is structural,
  not incidental.  Re-partitioning is incremental — only the affected
  shards' :class:`~repro.core.batch.EncodedMatrixCache` entries migrate
  (a cache-to-cache copy of the already-NTT'd rows, never a re-encode;
  the ``migrated_entries`` / ``reencodes_avoided`` counters prove it),
  a surviving replica is promoted when a primary dies, and graceful
  departures drain their shards to survivors before leaving.

An encode is re-run only in the one case where it is information-
theoretically unavoidable: every node holding a shard's encoding died in
the same instant (the ``reencodes`` counter; the property suite pins it
to zero whenever any surviving node still holds the entry).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .. import obs
from ..core.batch import BatchedHmvp, EncodedMatrixCache
from .partition import Shard
from .placement import ClusterNode, make_cluster_node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .autoscaler import Autoscaler
    from .executor import ClusterExecutor

__all__ = [
    "MembershipError",
    "MembershipEvent",
    "MembershipSchedule",
    "ClusterController",
]

_KINDS = ("join", "leave", "kill")


class MembershipError(ValueError):
    """A membership event is invalid for the current node set."""


@dataclass(frozen=True)
class MembershipEvent:
    """One membership change, fired *before* request number ``seq``.

    ``node_id`` is required for ``leave`` / ``kill``; for ``join`` it may
    be ``None`` (the controller allocates the next fresh id) or explicit
    (a departed node rejoining — with a cold cache, since its old cache
    died with its process).
    """

    seq: int
    kind: str
    node_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise MembershipError(
                f"unknown membership event kind {self.kind!r}"
            )
        if self.seq < 0:
            raise MembershipError(f"event seq {self.seq} must be >= 0")
        if self.kind in ("leave", "kill") and self.node_id is None:
            raise MembershipError(f"{self.kind} event needs a node_id")

    def to_dict(self) -> Dict[str, object]:
        return {"seq": self.seq, "kind": self.kind, "node_id": self.node_id}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "MembershipEvent":
        return cls(
            seq=int(payload["seq"]),  # type: ignore[arg-type]
            kind=str(payload["kind"]),
            node_id=(
                None if payload.get("node_id") is None
                else int(payload["node_id"])  # type: ignore[arg-type]
            ),
        )


class MembershipSchedule:
    """An ordered, replayable list of membership events.

    Events are stably sorted by ``seq`` (same-seq events keep their
    authored order, so "kill 3 then kill 2 at request 4" means exactly
    that).  The schedule is data: it round-trips through dicts, a compact
    CLI spec string, and JSON fixture files unchanged.
    """

    def __init__(self, events: Sequence[MembershipEvent] = ()) -> None:
        self.events: Tuple[MembershipEvent, ...] = tuple(
            sorted(events, key=lambda e: e.seq)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[MembershipEvent]:
        return iter(self.events)

    def to_dict(self) -> Dict[str, object]:
        return {"events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "MembershipSchedule":
        return cls(
            [MembershipEvent.from_dict(e) for e in payload["events"]]  # type: ignore[union-attr]
        )

    def to_spec(self) -> str:
        """Compact CLI form: ``seq:kind[:node]`` joined by commas."""
        parts = []
        for e in self.events:
            part = f"{e.seq}:{e.kind}"
            if e.node_id is not None:
                part += f":{e.node_id}"
            parts.append(part)
        return ",".join(parts)

    @classmethod
    def parse(cls, spec: str) -> "MembershipSchedule":
        """Parse the CLI form, e.g. ``"4:kill:3,4:kill:2,8:join,8:join"``."""
        events = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            pieces = part.split(":")
            if len(pieces) not in (2, 3):
                raise MembershipError(
                    f"bad schedule element {part!r} "
                    "(want seq:kind or seq:kind:node)"
                )
            try:
                seq = int(pieces[0])
                node = int(pieces[2]) if len(pieces) == 3 else None
            except ValueError as exc:
                raise MembershipError(
                    f"bad schedule element {part!r}: {exc}"
                ) from exc
            events.append(MembershipEvent(seq=seq, kind=pieces[1], node_id=node))
        return cls(events)

    @classmethod
    def random(
        cls,
        seed: int,
        requests: int,
        initial_nodes: int,
        max_events: int = 6,
        max_nodes: int = 8,
    ) -> "MembershipSchedule":
        """A seeded, *valid* random schedule for chaos runs.

        Validity is simulated during generation: leaves/kills only target
        nodes active at fire time, the pool never drops below one node,
        and joins stop at ``max_nodes``.  Joins may reuse a departed id
        (a rejoin with a cold cache) or allocate a fresh one.
        """
        rng = Random(seed)
        active = set(range(initial_nodes))
        departed: List[int] = []
        next_id = initial_nodes
        events: List[MembershipEvent] = []
        seq = 0
        for _ in range(rng.randint(1, max(max_events, 1))):
            seq = rng.randint(seq, max(requests - 1, 0))
            kinds = []
            if len(active) < max_nodes:
                kinds.append("join")
            if len(active) > 1:
                kinds.extend(["leave", "kill"])
            if not kinds:
                break
            kind = rng.choice(kinds)
            if kind == "join":
                if departed and rng.random() < 0.3:
                    node = departed.pop(rng.randrange(len(departed)))
                else:
                    node, next_id = next_id, next_id + 1
                active.add(node)
            else:
                node = rng.choice(sorted(active))
                active.remove(node)
                departed.append(node)
            events.append(MembershipEvent(seq=seq, kind=kind, node_id=node))
        return cls(events)


class ClusterController:
    """Reacts to membership events against a live :class:`ClusterExecutor`.

    The controller owns no data plane of its own: it mutates the
    executor's node pool and :class:`~repro.cluster.placement.ShardPlacement`
    in place, re-validating the placement against the (fixed) partition
    plan after every event batch.  All policies are deterministic — every
    tie breaks by node id or shard id — so a chaos run replays exactly.
    """

    def __init__(
        self,
        executor: "ClusterExecutor",
        schedule: Optional[MembershipSchedule] = None,
        autoscaler: Optional["Autoscaler"] = None,
    ) -> None:
        self.executor = executor
        self.schedule = schedule or MembershipSchedule()
        self.autoscaler = autoscaler
        self._cursor = 0
        self._next_node_id = max(executor.nodes, default=-1) + 1
        for event in self.schedule:
            if event.node_id is not None:
                self._next_node_id = max(self._next_node_id, event.node_id + 1)
        self.applied_events: List[MembershipEvent] = []
        # lifetime counters (surfaced through ClusterReport.membership)
        self.joins = 0
        self.leaves = 0
        self.kills = 0
        self.replica_promotions = 0
        self.drained_shards = 0
        self.migrated_entries = 0
        self.reencodes = 0
        self.reencodes_avoided = 0
        self.autoscale_actions = 0

    # -- event pump --------------------------------------------------------

    def advance(self, seq: int) -> List[MembershipEvent]:
        """Apply every scheduled event due at or before request ``seq``."""
        applied: List[MembershipEvent] = []
        events = self.schedule.events
        while self._cursor < len(events) and events[self._cursor].seq <= seq:
            event = events[self._cursor]
            self._cursor += 1
            self.apply(event)
            applied.append(event)
        return applied

    def apply(self, event: MembershipEvent) -> None:
        """Apply one event and re-validate placement against the plan."""
        with obs.span(
            "cluster.membership.event",
            kind=event.kind,
            node=event.node_id,
            seq=event.seq,
        ):
            if event.kind == "join":
                self._join(event.node_id)
            elif event.kind == "leave":
                self._leave(event.node_id)  # type: ignore[arg-type]
            else:
                self._kill(event.node_id)  # type: ignore[arg-type]
        self.applied_events.append(event)
        obs.inc(f"cluster.membership.{event.kind}")
        obs.set_gauge("cluster.nodes", len(self.executor.nodes))
        self.executor.placement.validate_against(self.executor.plan)

    def maybe_autoscale(self, seq: int, queue_depth: int) -> Optional[str]:
        """Feed the autoscaler one observation; apply its decision."""
        if self.autoscaler is None:
            return None
        action = self.autoscaler.observe(
            queue_depth=queue_depth, nodes=len(self.executor.nodes)
        )
        if action == "up":
            self.apply(MembershipEvent(seq=seq, kind="join"))
        elif action == "down":
            # drain the least-loaded node; ties retire the newest id first
            loads = self._primary_loads()
            victim = min(loads, key=lambda n: (loads[n], -n))
            self.apply(
                MembershipEvent(seq=seq, kind="leave", node_id=victim)
            )
        if action is not None:
            self.autoscale_actions += 1
            obs.inc(f"cluster.autoscale.{action}")
        return action

    # -- shared helpers ----------------------------------------------------

    def _shard(self, shard_id: int) -> Shard:
        return self.executor.plan.shards[shard_id]

    def _primary_loads(self) -> Dict[int, int]:
        costs = self.executor.shard_costs
        placement = self.executor.placement
        return {
            nid: sum(costs[sid] for sid in placement.primary_shards(nid))
            for nid in sorted(self.executor.nodes)
        }

    def _pick_target(self, exclude: set) -> Optional[int]:
        """Least-loaded active node outside ``exclude`` (ties: lowest id)."""
        loads = self._primary_loads()
        eligible = [n for n in loads if n not in exclude]
        if not eligible:
            return None
        return min(eligible, key=lambda n: (loads[n], n))

    def _stage_engine(self, shard: Shard, target: ClusterNode) -> None:
        """Make ``shard`` resident on ``target`` — by migration, not encode.

        The encoded entry is copied cache-to-cache from *any* surviving
        node that still holds it (current hosts first, then demoted
        standbys whose caches kept the entry).  Only when no live cache
        holds it — every holder died at once — does the engine build fall
        through to a real re-encode, counted in ``reencodes``.
        """
        executor = self.executor
        sub = shard.submatrix(executor.matrix)
        key = EncodedMatrixCache.key_for(executor.scheme, sub)
        if target.cache.peek(key) is not None:
            self.reencodes_avoided += 1
            obs.inc("cluster.migration.already_resident")
        else:
            hosted = executor.placement.nodes_for(shard.shard_id)
            search = [n for n in hosted if n in executor.nodes] + [
                n for n in sorted(executor.nodes) if n not in hosted
            ]
            source = None
            source_nid = None
            for nid in search:
                node = executor.nodes[nid]
                if node is not target:
                    entry = node.cache.peek(key)
                    if entry is not None:
                        source = entry
                        source_nid = nid
                        break
            if source is not None:
                target.cache.install(key, source)
                self.migrated_entries += 1
                self.reencodes_avoided += 1
                obs.inc("cluster.migration.entries")
                # replica-sync traffic: the encoded entry moves
                # cache-to-cache over the interconnect (no-op when no
                # topology is attached), sized from its actual tiles
                executor._net_transfer(
                    source_nid,
                    target.node_id,
                    sum(int(t.nbytes) for t in source.tiles.values()),
                    tag=f"sync{shard.shard_id}",
                )
            else:
                self.reencodes += 1
                obs.inc("cluster.migration.reencodes")
        with obs.span(
            "cluster.migration",
            pid=target.node_id + 1,
            shard=shard.shard_id,
            node=target.node_id,
        ):
            target.engines[shard.shard_id] = BatchedHmvp(
                executor.scheme, sub, cache=target.cache
            )

    def _retire(self, node: ClusterNode) -> None:
        """Bank a departing node's cycle ledger and drop it from the pool."""
        executor = self.executor
        executor.departed_busy_cycles[node.node_id] = (
            executor.departed_busy_cycles.get(node.node_id, 0)
            + node.busy_cycles
        )
        del executor.nodes[node.node_id]

    # -- the three event kinds ---------------------------------------------

    def _join(self, node_id: Optional[int]) -> None:
        """Admit a node and incrementally shift primaries onto it.

        Only shards whose move *strictly* reduces the primary-load
        imbalance migrate — the rest of the placement is untouched.  The
        new primary's encoding is copied from the demoted old primary
        (which stays on as a replica); when the promotion pushes a
        shard's host list over the replication target, the tail replica
        is demoted (engine dropped, cache entry kept as a warm standby).
        """
        executor = self.executor
        if node_id is None:
            node_id = self._next_node_id
        if node_id in executor.nodes:
            raise MembershipError(f"node {node_id} is already active")
        self._next_node_id = max(self._next_node_id, node_id + 1)
        config = executor.config
        node = make_cluster_node(
            node_id,
            executor.plan,
            cham=executor.cham,
            seed=config.seed,
            fault_rate=config.fault_rate,
            register_flip_rate=config.register_flip_rate,
        )
        executor.nodes[node_id] = node
        executor.placement.add_node(node_id)
        # rewire the interconnect first so the staging migrations below
        # can charge their replica-sync traffic to the new endpoint
        executor._net_set_nodes()
        if obs.TRACER.enabled:
            obs.TRACER.name_process(node_id + 1, f"node{node_id}")
        costs = self.executor.shard_costs
        placement = executor.placement
        loads = self._primary_loads()
        while True:
            donors = [n for n in loads if n != node_id]
            if not donors:
                break
            donor = max(donors, key=lambda n: (loads[n], -n))
            pick = None
            for sid in sorted(
                placement.primary_shards(donor),
                key=lambda s: (-costs[s], s),
            ):
                if loads[donor] - loads[node_id] > costs[sid]:
                    pick = sid
                    break
            if pick is None:
                break
            self._stage_engine(self._shard(pick), node)
            hosted = placement.nodes_for(pick)
            hosted.insert(0, node_id)
            while len(hosted) > placement.replication:
                demoted = hosted.pop()
                standby = executor.nodes.get(demoted)
                if standby is not None:
                    standby.engines.pop(pick, None)
            loads[node_id] += costs[pick]
            loads[donor] -= costs[pick]
        # heal under-replication: a shrunken pool may have left shards
        # with a single live copy — the fresh node restores the replica
        # count by migration, so a later death of the old sole holder can
        # never force a re-encode.
        for shard in executor.plan.shards:
            hosted = placement.nodes_for(shard.shard_id)
            if node_id not in hosted and len(hosted) < placement.replication:
                self._stage_engine(shard, node)
                hosted.append(node_id)
                obs.inc("cluster.membership.healed")
        self.joins += 1

    def _leave(self, node_id: int) -> None:
        """Graceful departure: drain every hosted shard, then retire.

        The leaving node is still alive, so every migration sources from
        a live cache (usually its own) — a drain never re-encodes.
        Primaries hand off to their first surviving replica when one
        exists, else migrate directly to the least-loaded survivor.
        """
        executor = self.executor
        node = executor.nodes.get(node_id)
        if node is None:
            raise MembershipError(f"node {node_id} is not active")
        if len(executor.nodes) == 1:
            raise MembershipError("cannot drain the last node")
        placement = executor.placement
        for sid in placement.node_shards(node_id):
            hosted = placement.nodes_for(sid)
            was_primary = hosted[0] == node_id
            hosted.remove(node_id)
            if was_primary and hosted:
                self.drained_shards += 1
                obs.inc("cluster.membership.drained")
            replacement = self._pick_target(
                exclude=set(hosted) | {node_id}
            )
            if replacement is not None and (
                not hosted or len(hosted) < placement.replication
            ):
                self._stage_engine(
                    self._shard(sid), executor.nodes[replacement]
                )
                hosted.append(replacement)
            node.engines.pop(sid, None)
        placement.remove_node(node_id)
        self._retire(node)
        executor._net_set_nodes()
        self.leaves += 1

    def _kill(self, node_id: int) -> None:
        """Abrupt death: the node's cache is lost with it.

        Surviving replicas are promoted to primary in place; replication
        is restored by copying the encoding from any surviving holder.
        Only a shard whose every host died in the same event can force a
        re-encode — and even then a demoted standby's warm cache is
        checked first.
        """
        executor = self.executor
        node = executor.nodes.get(node_id)
        if node is None:
            raise MembershipError(f"node {node_id} is not active")
        if len(executor.nodes) == 1:
            raise MembershipError("cannot kill the last node")
        self._retire(node)  # dead first: its cache must not be a source
        # drop the dead endpoint before the re-homing migrations charge
        # their replica-sync traffic among the survivors
        executor._net_set_nodes()
        placement = executor.placement
        for sid in placement.node_shards(node_id):
            hosted = placement.nodes_for(sid)
            was_primary = hosted[0] == node_id
            hosted.remove(node_id)
            if was_primary and hosted:
                self.replica_promotions += 1
                obs.inc("cluster.membership.promotions")
            replacement = self._pick_target(exclude=set(hosted))
            if replacement is not None and (
                not hosted or len(hosted) < placement.replication
            ):
                self._stage_engine(
                    self._shard(sid), executor.nodes[replacement]
                )
                hosted.append(replacement)
        placement.remove_node(node_id)
        self.kills += 1

    # -- reporting ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "joins": self.joins,
            "leaves": self.leaves,
            "kills": self.kills,
            "replica_promotions": self.replica_promotions,
            "drained_shards": self.drained_shards,
            "migrated_entries": self.migrated_entries,
            "reencodes": self.reencodes,
            "reencodes_avoided": self.reencodes_avoided,
            "autoscale_actions": self.autoscale_actions,
            "applied_events": [e.to_dict() for e in self.applied_events],
        }
