"""Queue-depth-driven autoscaling policy for the elastic cluster.

The policy consumes the same signals :mod:`repro.obs` already exports —
queue depth (``cluster.queue.depth`` / ``serve.queue.depth`` gauges) and
goodput counters — and emits at most one decision per observation:

* **scale up** after ``up_after`` *consecutive* observations with the
  backlog at or above ``high_queue_depth`` (sustained pressure, not a
  blip);
* **scale down** after ``down_after`` consecutive observations at or
  below ``low_queue_depth`` (sustained idle);
* a **cooldown** of ``cooldown`` observations after any action, plus the
  gap between the two watermarks, gives the classic hysteresis window —
  the policy cannot flap a node in and out on oscillating load.

The policy is pure and deterministic (no wall clock, no randomness): the
chaos/property suites replay it exactly, and
:class:`~repro.cluster.membership.ClusterController.maybe_autoscale`
turns its decisions into membership events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .. import obs

__all__ = ["AutoscalerConfig", "Autoscaler"]


@dataclass
class AutoscalerConfig:
    """Hysteresis knobs (defaults sized for the simulated cluster)."""

    #: backlog at/above this arms the scale-up path
    high_queue_depth: float = 8.0
    #: backlog at/below this arms the scale-down path
    low_queue_depth: float = 1.0
    #: consecutive breaching observations before scaling up
    up_after: int = 2
    #: consecutive idle observations before scaling down
    down_after: int = 4
    #: observations to ignore after any action (either direction)
    cooldown: int = 3
    min_nodes: int = 1
    max_nodes: int = 16

    def __post_init__(self) -> None:
        if self.low_queue_depth > self.high_queue_depth:
            raise ValueError(
                "low watermark must not exceed the high watermark"
            )
        if self.up_after < 1 or self.down_after < 1:
            raise ValueError("hysteresis windows must be >= 1 observation")
        if not 1 <= self.min_nodes <= self.max_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")


class Autoscaler:
    """Streaming scale-up/scale-down decider with hysteresis."""

    def __init__(self, config: Optional[AutoscalerConfig] = None) -> None:
        self.config = config or AutoscalerConfig()
        self._high_streak = 0
        self._low_streak = 0
        self._cooldown_left = 0
        self.observations = 0
        self.decisions: Dict[str, int] = {"up": 0, "down": 0}

    @staticmethod
    def _obs_queue_depth() -> float:
        """Default signal: the deepest queue gauge the registry carries."""
        gauges = obs.REGISTRY.snapshot().get("gauges", {})
        return max(
            float(gauges.get("cluster.queue.depth", 0.0)),
            float(gauges.get("serve.queue.depth", 0.0)),
        )

    def observe(
        self,
        queue_depth: Optional[float] = None,
        nodes: Optional[int] = None,
        goodput: Optional[float] = None,
    ) -> Optional[str]:
        """Ingest one observation; return ``"up"``, ``"down"`` or ``None``.

        ``queue_depth`` defaults to the registry's queue gauges;
        ``nodes`` (the current pool size) bounds decisions to
        ``[min_nodes, max_nodes]``.  ``goodput`` is advisory: a zero
        goodput with backlog counts as pressure even below the high
        watermark (the cluster is stalled, not merely busy).
        """
        cfg = self.config
        if queue_depth is None:
            queue_depth = self._obs_queue_depth()
        self.observations += 1
        stalled = goodput is not None and goodput == 0.0 and queue_depth > 0
        if queue_depth >= cfg.high_queue_depth or stalled:
            self._high_streak += 1
            self._low_streak = 0
        elif queue_depth <= cfg.low_queue_depth:
            self._low_streak += 1
            self._high_streak = 0
        else:
            # between the watermarks: the hysteresis dead band
            self._high_streak = 0
            self._low_streak = 0
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return None
        if self._high_streak >= cfg.up_after and (
            nodes is None or nodes < cfg.max_nodes
        ):
            self._high_streak = 0
            self._cooldown_left = cfg.cooldown
            self.decisions["up"] += 1
            obs.set_gauge("cluster.autoscaler.last_depth", queue_depth)
            return "up"
        if self._low_streak >= cfg.down_after and (
            nodes is None or nodes > cfg.min_nodes
        ):
            self._low_streak = 0
            self._cooldown_left = cfg.cooldown
            self.decisions["down"] += 1
            obs.set_gauge("cluster.autoscaler.last_depth", queue_depth)
            return "down"
        return None
