"""The three closed-loop workloads, driven through public entry points.

Every workload follows the same life cycle, which ``run.py`` times:

``build(seed)``
    construct the system from scratch (keys, matrix encoding, partition
    plan, server start) and run one warm-up round of the steady-state
    shape; returns whether the warm-up replies were correct.  This is
    the set-up that ``setup_s`` measures.
``prepare(seed)``
    make the client-side inputs of the timed phase (untimed).
``run(until, traced)``
    one closed-loop slice of the timed phase; appends :class:`Op` records
    and calls ``idle()`` at every point where nothing is in flight, which
    is where ``run.py`` probes the host's speed.
``check()``
    verify every reply against its exact plaintext result.

Inputs, keys and fault-injector seeds all derive from the workload seed
through :func:`derive`, so one seed always gives the same inputs.  Every
operation carries distinct inputs.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.apps.datasets import make_vertical_dataset
from repro.apps.heterolr import BfvBackend, HeteroLrTrainer, LrConfig, PlainBackend
from repro.cluster import ClusterConfig, ClusterExecutor
from repro.core import batch as core_batch
from repro.he.bfv import BfvScheme
from repro.he.params import CheParams, cham_params, toy_params
from repro.he.rlwe import RlweCiphertext
from repro.hw.perf import ChamPerfModel
from repro.serve import HmvpServer, ServeConfig

#: spans and parked replies go here, inside the checkout
OUT = Path(__file__).resolve().parent / "out"

#: operations whose exact counts (retries, ops, cycles, network events)
#: are compared across runs of one seed; every run completes more
COUNT_OPS = 64


def derive(seed: int, purpose: str) -> int:
    """A stable sub-seed of the workload seed for one purpose."""
    sequence = np.random.SeedSequence([seed, zlib.crc32(purpose.encode())])
    return int(sequence.generate_state(1)[0])


@dataclass
class Op:
    """One timed operation."""

    op_id: int
    t0: float
    t1: float
    traced: bool
    #: False when the system rejected it, let it expire, or raised
    ok: bool = True

    @property
    def latency_s(self) -> float:
        return self.t1 - self.t0


@dataclass
class Until:
    """When a closed-loop slice stops issuing new operations."""

    deadline: float
    #: keep going past the deadline until this many operations are done
    min_ops: int = 0
    #: hard stop, whatever ``min_ops`` says
    cap: float = float("inf")

    def done(self, completed: int) -> bool:
        now = perf_counter()
        return now >= self.cap or (now >= self.deadline and completed >= self.min_ops)


class Workload:
    """Shared bookkeeping; subclasses supply the system."""

    name = ""
    #: layer of the operation-level span (serve, cluster or apps)
    op_layer = ""
    #: per-layer metrics whose layer this workload does not reach
    not_reached: Dict[str, str] = {}
    #: the reference computation that ``run.py`` times between operations
    #: to read the host's speed: the one whose time tracked this workload's
    #: operation latencies most closely (see README, "Host speed")
    host_probe = "interpreter"

    def __init__(self) -> None:
        self.ops: List[Op] = []
        self.on_op: Optional[Callable[[Op], None]] = None
        #: called between operations, with nothing in flight
        self.idle: Callable[[], None] = lambda: None

    def _record(self, op: Op) -> None:
        self.ops.append(op)
        if self.on_op is not None:
            self.on_op(op)

    def close(self) -> None:
        """Release the current system before the next set-up builds one."""

    def shutdown(self) -> None:
        """Release everything at the end of the run."""
        self.close()

    def counters(self) -> Dict[str, float]:
        """Monotone counters of the current system, for per-slice deltas."""
        return {}

    def first_ops(self) -> List[int]:
        return sorted(op.op_id for op in self.ops)[:COUNT_OPS]


def _centered(values: np.ndarray, t: int) -> np.ndarray:
    vals = np.mod(np.asarray(values, dtype=object), t)
    return np.where(vals > t // 2, vals - t, vals)


class _PairPool:
    """Distinct client inputs without encryption inside the timed loop.

    ``size`` fresh encryptions of seeded random vectors; request ``i``
    is the homomorphic sum of the ``i``-th pair in a seeded shuffle of
    all pairs, so its vector ``u_a + u_b`` differs from every other
    request's.  A sum costs microseconds; an encryption at N = 4096
    costs ~14 ms and would stall the clients' event loop.
    """

    def __init__(self, vectors: np.ndarray, cts: Sequence[object], seed: int) -> None:
        self.vectors = vectors
        self.cts = list(cts)
        pairs = list(itertools.combinations(range(len(self.cts)), 2))
        order = np.random.default_rng(seed).permutation(len(pairs))
        self.pairs = [pairs[i] for i in order]

    def vector(self, i: int) -> np.ndarray:
        a, b = self.pairs[i % len(self.pairs)]
        return self.vectors[a] + self.vectors[b]

    def ct(self, i: int):
        a, b = self.pairs[i % len(self.pairs)]
        ca, cb = self.cts[a], self.cts[b]
        if isinstance(ca, list):
            return [x + y for x, y in zip(ca, cb)]
        return ca + cb


@dataclass
class Reply:
    """What the benchmark keeps of one reply once its ciphertexts are parked."""

    keyswitches: int = 0
    ntts: int = 0
    retries: int = 0
    cycles: int = 0
    queue_ms: float = 0.0


class ReplySpool:
    """Reply ciphertexts parked in a file until the check.

    Keeping every reply in memory would make ``peak_rss_mb`` grow with
    the number of operations, so a faster system would read as a memory
    regression.  Raw limb bytes are written as replies arrive (tens of
    microseconds each) and read back for decryption after the timed phase.
    """

    def __init__(self, tag: str) -> None:
        OUT.mkdir(exist_ok=True)
        self.path = OUT / f"replies-{tag}-{os.getpid()}.bin"
        self.fh = open(self.path, "w+b")
        #: op id -> [(offset, shape, count, scale_pow2)] per pack
        self.index: Dict[int, list] = {}
        self.template: Optional[RlweCiphertext] = None

    def put(self, op_id: int, result) -> Reply:
        entries = []
        for pack in result.packs:
            ct = pack.ct
            if self.template is None:
                self.template = ct
            self.fh.seek(0, os.SEEK_END)
            entries.append((self.fh.tell(), ct.c0.shape, pack.count, pack.scale_pow2))
            self.fh.write(ct.c0.tobytes())
            self.fh.write(ct.c1.tobytes())
        self.index[op_id] = entries
        return Reply(result.ops.keyswitches, result.ops.ntts + result.ops.intts)

    def raw(self, op_id: int) -> List[bytes]:
        """The parked limb bytes of one reply, one entry per pack."""
        out = []
        for offset, shape, _count, _scale in self.index[op_id]:
            self.fh.seek(offset)
            out.append(self.fh.read(2 * int(np.prod(shape)) * self.template.c0.itemsize))
        return out

    def values(self, scheme: BfvScheme, op_id: int) -> np.ndarray:
        """The decrypted reply, slot values in row order."""
        dtype = self.template.c0.dtype
        parts = []
        for data, (_off, shape, count, scale_pow2) in zip(self.raw(op_id), self.index[op_id]):
            c0, c1 = np.frombuffer(data, dtype=dtype).reshape((2,) + tuple(shape)).copy()
            ct = RlweCiphertext(self.template.ctx, self.template.basis, c0, c1)
            pt = scheme.decrypt_plaintext(ct)
            parts.append(scheme.encoder.decode_packed(pt, count, scale_pow2))
        return np.concatenate(parts)

    def close(self) -> None:
        self.fh.close()
        self.path.unlink(missing_ok=True)


class _MatrixWorkload(Workload):
    """A resident matrix applied to encrypted vectors; replies are checked
    against the exact plaintext product."""

    def __init__(self, spec) -> None:
        super().__init__()
        self.spec = spec
        self.replies: Dict[int, Reply] = {}
        self.spool: Optional[ReplySpool] = None

    def _encrypt(self, vector):
        raise NotImplementedError

    def _new_matrix(self, seed: int) -> None:
        rng = np.random.default_rng(derive(seed, "matrix"))
        self.matrix = rng.integers(-30, 30, (self.spec.rows, self.spec.cols))

    def _correct(self, values, vector) -> bool:
        want = _centered(self.matrix.astype(object) @ np.asarray(vector).astype(object),
                         self.scheme.params.plain_modulus)
        got = np.asarray(values, dtype=object)[: self.spec.rows]
        return bool(np.array_equal(got, want))

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng(derive(seed, "vectors"))
        vecs = rng.integers(-30, 30, (self.spec.pool, self.spec.cols))
        self.pool = _PairPool(vecs, [self._encrypt(v) for v in vecs], derive(seed, "pairs"))
        self.spool = ReplySpool(self.name)
        self.next_op = 0

    def _park(self, op_id: int, result) -> Reply:
        """Park one reply's ciphertexts; returns what stays in memory."""
        return Reply() if result is None else self.spool.put(op_id, result)

    def check(self) -> List[int]:
        failed = []
        for op in self.ops:
            vector = self.pool.vector(op.op_id)
            if not (op.ok and self._correct(self.spool.values(self.scheme, op.op_id), vector)):
                failed.append(op.op_id)
        return failed

    def _first_replies(self) -> List[Reply]:
        return [self.replies[i] for i in self.first_ops()]

    def shutdown(self) -> None:
        self.close()
        if self.spool is not None:
            self.spool.close()
            self.spool = None


# -- serve-n4096 -------------------------------------------------------------


@dataclass
class ServeSpec:
    params: Callable[[], CheParams]
    rows: int
    cols: int
    clients: int = 4
    max_batch: int = 4
    max_wait_ms: float = 2.0
    fault_rate: float = 0.05
    max_retries: int = 2
    pool: int = 64


SERVE_SPECS = {
    "paper": ServeSpec(params=cham_params, rows=8, cols=4096),
    "tiny": ServeSpec(params=lambda: toy_params(n=128), rows=8, cols=128, pool=16),
}


class ServeWorkload(_MatrixWorkload):
    """``HmvpServer`` with one engine, fed by a closed loop of clients."""

    name = "serve-n4096"
    op_layer = "serve"
    #: the engine's batched N = 4096 kernels move with array work; the
    #: interpreter probe moved ~2.7 times as much as these latencies
    host_probe = "array"
    not_reached = {
        "cluster.plan_s": "no partition planner in the serving path",
        "cluster.self_ms_per_op": "no cluster executor in the serving path",
        "cluster.shard_retries_per_op": "no shards in the serving path",
        "apps.self_ms_per_op": "no application layer in the serving path",
        "hw.net_ms_per_op": "one engine, no fabric",
        "hw.net_events_per_s": "one engine, no fabric",
        "hw.net_events_per_op": "one engine, no fabric",
        "hw.sim_network_cycles_per_op": "one engine, no fabric",
    }

    def __init__(self, spec: ServeSpec) -> None:
        super().__init__(spec)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[HmvpServer] = None

    def _encrypt(self, vector):
        return self.scheme.encrypt_vector(vector)

    def build(self, seed: int) -> bool:
        spec = self.spec
        if self.loop is None:
            self.loop = asyncio.new_event_loop()
        self.scheme = BfvScheme(spec.params(), seed=derive(seed, "keys"))
        self._new_matrix(seed)
        config = ServeConfig(
            engines=1,
            max_batch=spec.max_batch,
            max_wait_ms=spec.max_wait_ms,
            queue_capacity=4 * spec.clients,
            fault_rate=spec.fault_rate,
            max_retries=spec.max_retries,
            seed=derive(seed, "faults"),
        )
        self.server = HmvpServer(self.scheme, self.matrix, config)
        self.loop.run_until_complete(self.server.start())
        # warm-up: one full batch, encrypted here (client work, not set-up)
        paused = perf_counter()
        wrng = np.random.default_rng(derive(seed, "warmup"))
        vecs = wrng.integers(-30, 30, (spec.max_batch, spec.cols))
        cts = [self._encrypt(v) for v in vecs]
        self.client_s = perf_counter() - paused

        async def warm():
            futures = [await self.server.submit(ct) for ct in cts]
            return await asyncio.gather(*futures)

        outcomes = self.loop.run_until_complete(warm())
        self.batches0 = sum(w.batches_served for w in self.server.workers)
        self.requests0 = sum(w.requests_served for w in self.server.workers)
        return all(
            o.completed and self._correct(o.result.decrypt(self.scheme), v)
            for o, v in zip(outcomes, vecs)
        )

    def run(self, until: Until, traced: bool) -> None:
        server = self.server

        async def request() -> None:
            op_id = self.next_op
            self.next_op += 1
            ct = self.pool.ct(op_id)
            t0 = perf_counter()
            outcome = None
            try:
                outcome = await (await server.submit(ct))
            except Exception as exc:  # a raise is a failed operation
                print(f"op {op_id} raised {exc!r}")
            t1 = perf_counter()
            ok = outcome is not None and outcome.completed
            reply = self._park(op_id, outcome.result if ok else None)
            if outcome is not None:
                reply.retries, reply.cycles = outcome.retries, outcome.cycles
                reply.queue_ms = outcome.queue_ms
            self.replies[op_id] = reply
            self._record(Op(op_id, t0, t1, traced, ok))

        async def rounds() -> None:
            # the clients send together and each sends its next vector once
            # its round's replies are all in, so every round is one full
            # micro-batch and the engine is idle between rounds
            while not until.done(len(self.ops)):
                await asyncio.gather(*(request() for _ in range(self.spec.clients)))
                self.idle()

        self.loop.run_until_complete(rounds())

    def exact_counts(self) -> Dict[str, float]:
        first = self._first_replies()
        n = len(first) or 1
        return {
            "he.keyswitches_per_op": sum(r.keyswitches for r in first) / n,
            "math.ntts_per_op": sum(r.ntts for r in first) / n,
            "serve.retries_per_op": sum(r.retries for r in first) / n,
            "cluster.shard_retries_per_op": 0.0,
            "hw.net_events_per_op": 0.0,
            "hw.sim_cycles_per_op": sum(r.cycles for r in first) / n,
            "hw.sim_network_cycles_per_op": 0.0,
        }

    def layer_facts(self) -> Dict[str, float]:
        waits = sorted(r.queue_ms for r in self.replies.values())
        batches = sum(w.batches_served for w in self.server.workers) - self.batches0
        requests = sum(w.requests_served for w in self.server.workers) - self.requests0
        return {
            "serve.queue_wait_ms_p50": percentile(waits, 50) if waits else 0.0,
            "serve.batch_size_mean": requests / batches if batches else 0.0,
            "core.cache_hit_ratio": _hit_ratio([self.server.cache]),
        }

    def close(self) -> None:
        if self.server is not None:
            self.loop.run_until_complete(self.server.close())
            self.server = None

    def shutdown(self) -> None:
        super().shutdown()
        if self.loop is not None:
            self.loop.close()
            self.loop = None


# -- cluster-ring-n128 -------------------------------------------------------


@dataclass
class ClusterSpec:
    params: Callable[[], CheParams]
    rows: int
    cols: int
    nodes: int = 4
    replication: int = 2
    fault_rate: float = 0.05
    topology: str = "ring"
    pool: int = 64


CLUSTER_SPECS = {
    "paper": ClusterSpec(params=lambda: toy_params(n=128), rows=96, cols=256),
    "tiny": ClusterSpec(params=lambda: toy_params(n=64), rows=24, cols=128, pool=16),
}


class ClusterWorkload(_MatrixWorkload):
    """``ClusterExecutor`` over a ring fabric, one caller back to back."""

    name = "cluster-ring-n128"
    op_layer = "cluster"
    not_reached = {
        "serve.queue_wait_ms_p50": "one caller issues execute directly, no serving queue",
        "serve.batch_size_mean": "one caller issues execute directly, no micro-batches",
        "serve.self_ms_per_op": "no serving layer in the cluster path",
        "serve.retries_per_op": "no serving layer; failover shows as shard retries",
        "apps.self_ms_per_op": "no application layer in the cluster path",
    }

    def __init__(self, spec: ClusterSpec) -> None:
        super().__init__(spec)
        self.executor: Optional[ClusterExecutor] = None

    def _encrypt(self, vector):
        return self.executor.encrypt_vector(vector)

    def build(self, seed: int) -> bool:
        spec = self.spec
        self.scheme = BfvScheme(spec.params(), seed=derive(seed, "keys"))
        self._new_matrix(seed)
        self.executor = ClusterExecutor(
            self.scheme,
            self.matrix,
            config=ClusterConfig(
                nodes=spec.nodes,
                replication=spec.replication,
                fault_rate=spec.fault_rate,
                seed=derive(seed, "faults"),
                topology=spec.topology,
            ),
        )
        paused = perf_counter()
        vec = np.random.default_rng(derive(seed, "warmup")).integers(-30, 30, spec.cols)
        tiles = self._encrypt(vec)
        self.client_s = perf_counter() - paused
        ok = self._correct(self.executor.execute(tiles).decrypt(self.scheme), vec)
        self.report0 = self.executor.report()
        self.report_k = None
        return ok

    def run(self, until: Until, traced: bool) -> None:
        executor = self.executor
        while not until.done(len(self.ops)):
            op_id = self.next_op
            self.next_op += 1
            tiles = self.pool.ct(op_id)
            t0 = perf_counter()
            result = None
            try:
                result = executor.execute(tiles)
            except Exception as exc:  # a raise is a failed operation
                print(f"op {op_id} raised {exc!r}")
            t1 = perf_counter()
            self.replies[op_id] = self._park(op_id, result)
            self._record(Op(op_id, t0, t1, traced, result is not None))
            if op_id == COUNT_OPS - 1:
                # outside the operation's own timing
                self.report_k = executor.report()
            self.idle()

    def counters(self) -> Dict[str, float]:
        return {"net_events": float(self.executor.report().network.get("events", 0))}

    def exact_counts(self) -> Dict[str, float]:
        first = self._first_replies()
        n = len(first) or 1
        r0, rk = self.report0, self.report_k or self.executor.report()
        return {
            "he.keyswitches_per_op": sum(r.keyswitches for r in first) / n,
            "math.ntts_per_op": sum(r.ntts for r in first) / n,
            "serve.retries_per_op": 0.0,
            "cluster.shard_retries_per_op": (rk.shard_retries - r0.shard_retries) / n,
            "hw.net_events_per_op": (rk.network.get("events", 0) - r0.network.get("events", 0)) / n,
            "hw.sim_cycles_per_op": (rk.makespan_cycles - r0.makespan_cycles) / n,
            "hw.sim_network_cycles_per_op": (rk.network_cycles - r0.network_cycles) / n,
        }

    def layer_facts(self) -> Dict[str, float]:
        return {
            "serve.queue_wait_ms_p50": 0.0,
            "serve.batch_size_mean": 0.0,
            "core.cache_hit_ratio": _hit_ratio(n.cache for n in self.executor.nodes.values()),
        }


# -- heterolr-n4096 ----------------------------------------------------------


@dataclass
class HeteroLrSpec:
    params: Callable[[], CheParams]
    features: int = 16
    batch: int = 64
    #: mini-batches per training run; the timed loop checks the clock
    #: between training runs, so this bounds the overshoot
    batches_per_run: int = 4


HETEROLR_SPECS = {
    "paper": HeteroLrSpec(params=cham_params),
    "tiny": HeteroLrSpec(params=lambda: toy_params(n=128, plain_bits=40), features=4, batch=16),
}

#: weights may differ from the cleartext oracle by fixed-point rounding only
WEIGHT_ATOL = 1e-3


class TimedBackend:
    """Pass-through crypto backend that times each mini-batch.

    ``HeteroLrTrainer`` calls ``encrypt_residual`` first and
    ``decrypt_gradient`` twice (one per party) per mini-batch; one
    operation runs from the first call to the return of the last.
    """

    def __init__(self, inner: BfvBackend, workload: "HeteroLrWorkload") -> None:
        self.inner = inner
        self.workload = workload
        self._t0 = 0.0
        self._decrypts = 0
        self.op_results: Dict[int, list] = {}

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def encrypt_residual(self, e):
        self._t0 = perf_counter()
        self._decrypts = 0
        self.current = self.workload.next_op
        self.workload.next_op += 1
        self.op_results[self.current] = []
        return self.inner.encrypt_residual(e)

    def gradient(self, features, enc_e):
        result = self.inner.gradient(features, enc_e)
        self.op_results[self.current].append((result.ops, result.rows, result.cols))
        return result

    def decrypt_gradient(self, result, count):
        out = self.inner.decrypt_gradient(result, count)
        self._decrypts += 1
        if self._decrypts == 2:
            self.workload.batch_done(self.current, self._t0, perf_counter())
        return out


class HeteroLrWorkload(Workload):
    """HeteroLR training with the BFV backend; one op is one mini-batch."""

    name = "heterolr-n4096"
    op_layer = "apps"
    not_reached = {
        "serve.queue_wait_ms_p50": "the trainer calls the backend directly, no serving queue",
        "serve.batch_size_mean": "the trainer calls the backend directly, no micro-batches",
        "serve.self_ms_per_op": "no serving layer in the training path",
        "serve.retries_per_op": "no device offload in the training path",
        "cluster.plan_s": "no partition planner in the training path",
        "cluster.self_ms_per_op": "no cluster executor in the training path",
        "cluster.shard_retries_per_op": "no shards in the training path",
        "core.encode_s": "a fresh matrix every operation: nothing is encoded in set-up",
        "core.cache_hit_ratio": "the training path keeps no encoded-matrix cache",
        "hw.offload_ms_per_op": "no device offload in the training path",
        "hw.net_ms_per_op": "no fabric in the training path",
        "hw.net_events_per_s": "no fabric in the training path",
        "hw.net_events_per_op": "no fabric in the training path",
        "hw.sim_network_cycles_per_op": "no fabric in the training path",
    }

    def __init__(self, spec: HeteroLrSpec) -> None:
        super().__init__()
        self.spec = spec
        #: (op ids, trained weights or None, dataset) per training run
        self.training_runs: List[tuple] = []
        self._traced = False
        self.next_op = 0
        self.cache_before = _cache_counts([core_batch.MATRIX_CACHE])

    def batch_done(self, op_id: int, t0: float, t1: float) -> None:
        self._record(Op(op_id, t0, t1, self._traced))
        self.idle()

    def _config(self) -> LrConfig:
        return LrConfig(epochs=1, batch_size=self.spec.batch)

    def _train(self, data):
        """One training run; returns (op ids, weights or None)."""
        first = self.next_op
        try:
            weights, _history = HeteroLrTrainer(self.backend, self._config()).train(data)
        except Exception as exc:  # a raise fails the run's mini-batches
            print(f"training run raised {exc!r}")
            weights = None
        return list(range(first, self.next_op)), weights

    def _dataset(self, seed: int, index: int, batches: int):
        return make_vertical_dataset(
            self.spec.batch * batches, self.spec.features, seed=derive(seed, f"data{index}")
        )

    def _matches_oracle(self, data, weights) -> bool:
        oracle, _ = HeteroLrTrainer(PlainBackend(), self._config()).train(data)
        return weights is not None and bool(np.allclose(weights, oracle, atol=WEIGHT_ATOL, rtol=0))

    def build(self, seed: int) -> bool:
        self.seed = seed
        self.scheme = BfvScheme(self.spec.params(), seed=derive(seed, "keys"))
        self.backend = TimedBackend(BfvBackend(self.scheme), self)
        self.client_s = 0.0
        # warm-up: one mini-batch through the protocol
        data = self._dataset(seed, -1, 1)
        mark = len(self.ops)
        _ids, weights = self._train(data)
        del self.ops[mark:]
        return self._matches_oracle(data, weights)

    def prepare(self, seed: int) -> None:
        self.next_op = 0
        self.backend.op_results.clear()

    def run(self, until: Until, traced: bool) -> None:
        self._traced = traced
        while not until.done(len(self.ops)):
            data = self._dataset(self.seed, len(self.training_runs), self.spec.batches_per_run)
            ids, weights = self._train(data)
            self.training_runs.append((ids, weights, data))
            done = {op.op_id for op in self.ops}
            for op_id in ids:
                if op_id not in done:  # a raise mid-batch
                    self._record(Op(op_id, perf_counter(), perf_counter(), traced, ok=False))

    def check(self) -> List[int]:
        failed = [op.op_id for op in self.ops if not op.ok]
        for ids, weights, data in self.training_runs:
            if not self._matches_oracle(data, weights):
                failed.extend(i for i in ids if i not in failed)
        return failed

    def exact_counts(self) -> Dict[str, float]:
        first = self.first_ops()
        n = len(first) or 1
        model = ChamPerfModel()
        priced: Dict[tuple, int] = {}
        keyswitches = ntts = cycles = 0
        for op_id in first:
            for ops, rows, cols in self.backend.op_results.get(op_id, []):
                keyswitches += ops.keyswitches
                ntts += ops.ntts + ops.intts
                if (rows, cols) not in priced:
                    priced[(rows, cols)] = model.hmvp_cycles(rows, cols)
                cycles += priced[(rows, cols)]
        return {
            "he.keyswitches_per_op": keyswitches / n,
            "math.ntts_per_op": ntts / n,
            "serve.retries_per_op": 0.0,
            "cluster.shard_retries_per_op": 0.0,
            "hw.net_events_per_op": 0.0,
            "hw.sim_cycles_per_op": cycles / n,
            "hw.sim_network_cycles_per_op": 0.0,
        }

    def layer_facts(self) -> Dict[str, float]:
        return {
            "serve.queue_wait_ms_p50": 0.0,
            "serve.batch_size_mean": 0.0,
            "core.cache_hit_ratio": _hit_ratio([core_batch.MATRIX_CACHE], self.cache_before),
        }


# -- helpers -----------------------------------------------------------------


def _cache_counts(caches) -> "tuple[int, int]":
    hits = misses = 0
    for cache in caches:
        hits += cache.hits
        misses += cache.misses
    return hits, misses


def _hit_ratio(caches, before: "tuple[int, int]" = (0, 0)) -> float:
    """Encoded-matrix cache hits over lookups (0 when nothing was looked up)."""
    hits, misses = _cache_counts(caches)
    hits, misses = hits - before[0], misses - before[1]
    return hits / (hits + misses) if hits + misses else 0.0


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, -(-int(p * len(sorted_values)) // 100))
    return sorted_values[min(rank, len(sorted_values)) - 1]


WORKLOADS = {
    "serve-n4096": (ServeWorkload, SERVE_SPECS),
    "cluster-ring-n128": (ClusterWorkload, CLUSTER_SPECS),
    "heterolr-n4096": (HeteroLrWorkload, HETEROLR_SPECS),
}


def make(name: str, size: str = "paper") -> Workload:
    cls, specs = WORKLOADS[name]
    return cls(specs[size])
