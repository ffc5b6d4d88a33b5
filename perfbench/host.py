"""Host record for one run: steal, CPU time, memory, machine metadata and speed.

Run sets that disagree can then be traced to the host rather than to the
code: hypervisor steal over the timed phase, process CPU time per
operation (exited child processes included), the CPU count and
``repro.obs.perfcheck.run_metadata()``.

On a shared host the CPU itself runs faster or slower from one second to
the next and from one half hour to the next, as neighbours come and go:
the same fixed computation's CPU time moves by a fifth or more.
:func:`probe` times a fixed reference computation; :class:`HostSpeed`
takes it at the points where the program is idle between operations, and
tells how much slower than the reference host the host ran around any
stretch of the run.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import os
import resource
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np


@dataclass
class Sample:
    """CPU counters at one instant."""

    cpu_s: float
    #: (steal jiffies, total jiffies) from /proc/stat, None where absent
    jiffies: Optional["tuple[int, int]"]


def _proc_stat() -> Optional["tuple[int, int]"]:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    values = [int(v) for v in fields[1:]]
    # guest time is already folded into user/nice
    return values[7], sum(values[:8])


def sample() -> Sample:
    t = os.times()
    cpu = t.user + t.system + t.children_user + t.children_system
    return Sample(cpu_s=cpu, jiffies=_proc_stat())


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def record(before: Sample, after: Sample, ops: int, repo_root: str) -> Dict[str, object]:
    """Host record of a timed phase bounded by two samples."""
    from repro.obs.perfcheck import run_metadata

    steal = None
    if before.jiffies is not None and after.jiffies is not None:
        total = after.jiffies[1] - before.jiffies[1]
        steal = (after.jiffies[0] - before.jiffies[0]) / total if total > 0 else 0.0
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "steal_fraction": steal,
        "cpu_ms_per_op": 1e3 * (after.cpu_s - before.cpu_s) / ops if ops else None,
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "meta": run_metadata(repo_root),
    }


# -- host speed ----------------------------------------------------------------

#: seconds each reference computation took on the reference host (a 2-vCPU
#: Intel Xeon VM); they only fix the scale of host-normalised timings and
#: must never change, or every later run reads faster or slower
REFERENCE_PROBE_S = {"interpreter": 0.012, "array": 0.0095}

_PROBE_EVENTS = 1300
_PROBE_ROUNDS = 40
#: the probes touch a few MB and ~0.4 MB, as the program does, so that they
#: feel contention for the shared caches and not only for the core
_PROBE_TABLE = {(i * 2654435761) % (1 << 32): i for i in range(1 << 16)}
_PROBE_KEYS = list(_PROBE_TABLE)
_PROBE_Q = np.uint64(1073479681)
_PROBE_BATCH = np.random.default_rng(0).integers(0, int(_PROBE_Q), (4, 3, 4096), dtype=np.uint64)


def _interpreter_work() -> int:
    """Heap-ordered event loop over tuples and a large dict, as the simulators run."""
    table, keys = _PROBE_TABLE, _PROBE_KEYS
    heap = [((i * 7919) % 1000, i, 0) for i in range(_PROBE_EVENTS)]
    heapq.heapify(heap)
    handled = 0
    while heap:
        t, i, hop = heapq.heappop(heap)
        handled += table[keys[(i * 40503 + hop * 9973) & 0xFFFF]] & 1
        if hop < 4:
            heapq.heappush(heap, (t + 3 + (i & 7), i, hop + 1))
    return handled


def _array_work() -> int:
    """Modular arithmetic streamed over a batch of four 3-limb N = 4096
    polynomials, as the batched HE kernels run."""
    x = _PROBE_BATCH
    for _ in range(_PROBE_ROUNDS):
        x = (x * np.uint64(3) + np.uint64(1)) % _PROBE_Q
    return int(x[0, 0, 0])


_REFERENCE_WORK = {"interpreter": _interpreter_work, "array": _array_work}


def probe(kind: str) -> float:
    """Seconds one reference computation takes right now, garbage collector off."""
    work = _REFERENCE_WORK[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """The host's slowdown against the reference host, probe by probe."""

    def __init__(self, kind: str) -> None:
        #: which reference computation to time
        self.kind = kind
        #: when each probe ended, and its time over the reference time
        self.at: List[float] = []
        self.slowdowns: List[float] = []
        #: wall seconds spent probing, to take out of the timed phase
        self.spent_s = 0.0

    def probe(self) -> None:
        """Probe now; call only while the program is idle."""
        t0 = perf_counter()
        slowdown = probe(self.kind) / REFERENCE_PROBE_S[self.kind]
        self.at.append(perf_counter())
        self.slowdowns.append(slowdown)
        self.spent_s += self.at[-1] - t0

    def around(self, t0: float, t1: float) -> float:
        """Mean slowdown of the last probe before ``t0`` and the first after ``t1``."""
        before = bisect.bisect_right(self.at, t0) - 1
        after = bisect.bisect_left(self.at, t1)
        picked = [self.slowdowns[k] for k in (before, after) if 0 <= k < len(self.at)]
        return sum(picked) / len(picked) if picked else 1.0
