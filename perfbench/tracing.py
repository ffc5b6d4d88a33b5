"""Span recorder for the traced run, attached from outside ``src/``.

The traced run opens one span around every call into a layer's public
entry point.  :class:`Recorder` patches those entry points for the traced
phases only: methods on their classes, module-level functions in every
``repro`` module that bound the name.  Stopping restores the originals, so
the untraced phases run the program unchanged.

Spans live in memory (name, layer, start, end, parent span, thread,
operation id) and are written out when the run ends.  A span's self time
is its duration minus its children's; nested calls on one thread are
children.  The operation-level layer (serve, cluster or apps) is the
benchmark's own per-operation span; its self time is the part of that
span no top-level layer span covers, on any thread.

Metrics are named by role, and a role lists every entry point that plays
it.  A later change that merges or deletes some of them keeps the metric
alive as long as one survives; entry points that no longer exist are
skipped and reported by :meth:`Recorder.missing`.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import sys
import threading
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: role -> entry points, as (module, attribute path)
ENTRY_POINTS: Dict[str, List[Tuple[str, str]]] = {
    "core.hmvp": [
        ("repro.core.batch", "BatchedHmvp.multiply_batch"),
        ("repro.core.batch", "BatchedHmvp.multiply_tiles"),
        ("repro.core.batch", "BatchedHmvp.multiply_one"),
        ("repro.core.batch", "BatchedHmvp.multiply_partial"),
        ("repro.core.batch", "BatchedHmvp.hoist"),
        ("repro.core.hmvp", "TiledHmvp.multiply"),
        ("repro.core.hmvp", "hmvp"),
    ],
    "core.encode": [("repro.core.batch", "EncodedMatrix.encode")],
    "cluster.plan": [("repro.cluster.partition", "PartitionPlanner.plan")],
    "he.keygen": [("repro.he.bfv", "BfvScheme.__init__")],
    "he.keyswitch": [
        ("repro.he.keyswitch", "key_switch_raw"),
        ("repro.he.keyswitch", "apply_keyswitch"),
    ],
    "he.pack": [
        ("repro.he.packing", "pack_two_lwes"),
        ("repro.he.packing", "pack_lwes"),
        ("repro.he.packing", "pack_lwes_batched"),
        ("repro.he.packing", "pack_stacked_lwes"),
        ("repro.he.packing", "pack_stacked_lwes_many"),
        ("repro.he.bfv", "BfvScheme.pack"),
    ],
    "he.encrypt": [
        ("repro.he.bfv", "BfvScheme.encrypt_vector"),
        ("repro.he.bfv", "BfvScheme.encrypt_plaintext"),
        ("repro.he.rlwe", "encrypt"),
        ("repro.he.rlwe", "encrypt_pk"),
    ],
    "he.decrypt": [
        ("repro.he.bfv", "BfvScheme.decrypt_plaintext"),
        ("repro.he.bfv", "BfvScheme.decrypt_coeffs"),
        ("repro.he.bfv", "BfvScheme.decrypt_packed"),
        ("repro.he.bfv", "BfvScheme.decrypt_lwe"),
        ("repro.he.rlwe", "decrypt"),
    ],
    "math.ntt": [
        ("repro.math.ntt", "NegacyclicNtt.forward"),
        ("repro.math.ntt", "NegacyclicNtt.inverse"),
        ("repro.math.ntt", "FusedLimbNtt.forward"),
        ("repro.math.ntt", "FusedLimbNtt.inverse"),
    ],
    "math.modmul": [
        ("repro.math.modular", "modmul_vec"),
        ("repro.math.modular", "modmul_scalar_vec"),
    ],
    "hw.offload": [
        ("repro.hw.runtime", "FpgaRuntime.load_register_checked"),
        ("repro.hw.runtime", "FpgaRuntime.submit"),
        ("repro.hw.runtime", "FpgaRuntime.poll_once"),
        ("repro.hw.runtime", "FpgaRuntime.estimate_cycles"),
    ],
    "hw.net": [
        ("repro.hw.netsim", "NetworkSimulator.inject"),
        ("repro.hw.netsim", "NetworkSimulator.drain"),
    ],
}


class Span:
    """One call into a layer entry point, or one benchmark operation."""

    __slots__ = ("name", "layer", "t0", "t1", "parent", "thread", "child_s", "op")

    def __init__(self, name: str, layer: str, parent: Optional["Span"], thread: int) -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.t0 = 0.0
        self.t1 = 0.0
        self.child_s = 0.0
        self.op: Optional[object] = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.t1 - self.t0 - self.child_s


class Recorder:
    """Patches the entry points while active and keeps every span."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.ops: List[Span] = []
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []
        self._missing: List[str] = []

    # -- patching ----------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self._undo)

    def start(self) -> None:
        """Install a wrapper on every entry point that exists."""
        if self.active:
            return
        self._missing = []
        for role, targets in ENTRY_POINTS.items():
            for module_name, path in targets:
                if not self._patch(role, module_name, path):
                    self._missing.append(f"{module_name}.{path}")

    def stop(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def missing(self) -> List[str]:
        """Entry points the last :meth:`start` could not find."""
        return list(self._missing)

    def _patch(self, role: str, module_name: str, path: str) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        name = f"{module_name.rsplit('.', 1)[-1]}.{path}"
        if "." in path:
            cls_name, attr = path.split(".", 1)
            cls = getattr(module, cls_name, None)
            raw = vars(cls).get(attr) if isinstance(cls, type) else None
            if raw is None:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(role, name, raw.__func__))
            else:
                wrapped = self._wrap(role, name, raw)
            setattr(cls, attr, wrapped)
            self._undo.append((cls, attr, raw))
            return True
        original = getattr(module, path, None)
        if not callable(original):
            return False
        wrapped = self._wrap(role, name, original)
        # callers bind the function by name at import time, so patch
        # every repro module that holds this very object
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))
        return True

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span = Span(name, layer, stack[-1] if stack else None, threading.get_ident())
            stack.append(span)
            span.t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.t1 - span.t0
                recorder.spans.append(span)

        return traced

    # -- operations --------------------------------------------------------

    def op(self, op_id: object, layer: str, name: str, t0: float, t1: float) -> None:
        """Record one benchmark operation (the operation-level span)."""
        span = Span(name, layer, None, threading.get_ident())
        span.t0, span.t1, span.op = t0, t1, op_id
        self.ops.append(span)

    def take(self) -> Tuple[List[Span], List[Span]]:
        """Hand over and forget the spans and operations recorded so far."""
        spans, ops = self.spans, self.ops
        self.spans, self.ops = [], []
        return spans, ops


# -- analysis ----------------------------------------------------------------


def self_seconds(spans: Iterable[Span]) -> Dict[str, float]:
    """Total self time per layer role."""
    out: Dict[str, float] = {}
    for span in spans:
        out[span.layer] = out.get(span.layer, 0.0) + span.self_s
    return out


def inclusive_seconds(spans: Iterable[Span], layer: str) -> float:
    """Wall time inside outermost spans of ``layer`` (nested ones not re-counted)."""
    total = 0.0
    for span in spans:
        if span.layer != layer:
            continue
        parent = span.parent
        while parent is not None and parent.layer != layer:
            parent = parent.parent
        if parent is None:
            total += span.duration
    return total


def _merged(intervals: List[Tuple[float, float]]) -> Tuple[List[float], List[float], List[float]]:
    """Disjoint union of intervals: starts, ends and cumulative covered length."""
    starts: List[float] = []
    ends: List[float] = []
    for t0, t1 in sorted(intervals):
        if ends and t0 <= ends[-1]:
            ends[-1] = max(ends[-1], t1)
        else:
            starts.append(t0)
            ends.append(t1)
    cum = [0.0]
    for t0, t1 in zip(starts, ends):
        cum.append(cum[-1] + t1 - t0)
    return starts, ends, cum


def _covered(merged, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the merged union."""
    starts, ends, cum = merged
    i = bisect.bisect_right(ends, lo)
    j = bisect.bisect_left(starts, hi)
    if i >= j:
        return 0.0
    total = cum[j] - cum[i]
    total -= max(0.0, lo - starts[i])
    total -= max(0.0, ends[j - 1] - hi)
    return max(0.0, total)


def op_self_seconds(ops: Sequence[Span], spans: Sequence[Span]) -> float:
    """Sum over operations of the span time no top-level layer span covers."""
    merged = _merged([(s.t0, s.t1) for s in spans if s.parent is None])
    return sum(max(0.0, op.duration - _covered(merged, op.t0, op.t1)) for op in ops)


#: more operations than any workload keeps in flight at once
_IN_FLIGHT = 8


def assign_ops(ops: Sequence[Span], spans: Sequence[Span]) -> None:
    """Tag each layer span with the operation(s) whose span contains its root."""
    ordered = sorted(ops, key=lambda o: o.t0)
    starts = [o.t0 for o in ordered]
    for span in spans:
        if span.parent is not None:
            continue
        hi = bisect.bisect_right(starts, span.t0)
        owners = [o.op for o in ordered[max(0, hi - _IN_FLIGHT) : hi] if o.t1 >= span.t1]
        span.op = owners[0] if len(owners) == 1 else (owners or None)
    # children finish, and are listed, before their root
    for span in spans:
        root = span
        while root.parent is not None:
            root = root.parent
        span.op = root.op


def dump(path: str, spans: Sequence[Span], ops: Sequence[Span]) -> None:
    """Write spans as JSON: one record per span, parents by index."""
    everything = list(ops) + list(spans)
    index = {id(s): i for i, s in enumerate(everything)}
    records = [
        {
            "id": i,
            "name": s.name,
            "layer": s.layer,
            "start": s.t0,
            "end": s.t1,
            "parent": index.get(id(s.parent)) if s.parent is not None else None,
            "thread": s.thread,
            "op": s.op,
        }
        for i, s in enumerate(everything)
    ]
    with open(path, "w") as fh:
        json.dump({"spans": records}, fh)
