"""Two-party protocol harness with communication accounting.

The paper's motivating applications are *protocols*: HeteroLR exchanges
encrypted residuals and masked gradients; Delphi exchanges encrypted
randomness offline and masked shares online.  This module provides the
plumbing those protocols run on:

* :class:`Channel` — an in-process duplex link that counts every message
  (bytes, per-label tallies) and the number of communication *rounds*
  (direction changes), the two quantities 2PC papers report;
* :class:`Party` — a named endpoint bound to one side of a channel;
* sizing helpers that price HE objects at their true wire size
  (:mod:`repro.he.serialization`) without always materializing bytes.

The harness is deliberately synchronous and deterministic so protocol
tests stay exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from ..he.rlwe import RlweCiphertext
from ..he.serialization import rlwe_wire_bytes

__all__ = ["Message", "Channel", "Party", "wire_size"]


def wire_size(obj: Any) -> int:
    """Best-effort wire size in bytes for protocol payloads."""
    import numpy as np

    if isinstance(obj, RlweCiphertext):
        return rlwe_wire_bytes(obj.ctx.n, obj.basis.moduli)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype == object:
            # field elements: price at 5 bytes (40-bit plaintext modulus)
            return 5 * obj.size
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(wire_size(x) for x in obj)
    if isinstance(obj, (int, float)):
        return 8
    raise TypeError(f"cannot size payload of type {type(obj).__name__}")


@dataclass
class Message:
    sender: str
    receiver: str
    label: str
    payload: Any
    size: int


@dataclass
class Channel:
    """Duplex in-process channel with byte and round accounting."""

    name: str = "channel"
    _queues: Dict[str, Deque[Message]] = field(default_factory=dict)
    log: List[Message] = field(default_factory=list)

    def send(self, sender: str, receiver: str, label: str, payload: Any) -> None:
        msg = Message(sender, receiver, label, payload, wire_size(payload))
        self._queues.setdefault(receiver, deque()).append(msg)
        self.log.append(msg)

    def recv(self, receiver: str, label: Optional[str] = None) -> Any:
        queue = self._queues.get(receiver)
        if not queue:
            raise RuntimeError(f"{receiver} has no pending messages")
        msg = queue.popleft()
        if label is not None and msg.label != label:
            raise RuntimeError(
                f"{receiver} expected {label!r}, got {msg.label!r}"
            )
        return msg.payload

    # -- accounting -----------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return sum(m.size for m in self.log)

    def bytes_by_label(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for m in self.log:
            out[m.label] = out.get(m.label, 0) + m.size
        return out

    @property
    def rounds(self) -> int:
        """Communication rounds = number of direction changes + 1."""
        if not self.log:
            return 0
        rounds = 1
        last = self.log[0].sender
        for m in self.log[1:]:
            if m.sender != last:
                rounds += 1
                last = m.sender
        return rounds


@dataclass
class Party:
    """A named protocol endpoint bound to a channel."""

    name: str
    channel: Channel

    def send(self, to: "Party", label: str, payload: Any) -> None:
        self.channel.send(self.name, to.name, label, payload)

    def recv(self, label: Optional[str] = None) -> Any:
        return self.channel.recv(self.name, label)
