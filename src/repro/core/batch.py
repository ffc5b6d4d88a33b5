"""The HMVP engine: one plaintext matrix, one or many encrypted vectors.

CHAM computes every matrix-vector product with one pipeline — dot
product, EXTRACTLWES, one PACKLWES tree (Alg. 1-3) — and its deployment
story (Section V) is *many vectors against one resident matrix*:
HeteroLR streams mini-batches through the same weight layout, Beaver
triple generation streams vectors through fixed tiles, and the paper's
introduction cites batching as the standard amortization ("up to 4096
encrypted images can be evaluated simultaneously").  This module is
that pipeline, for resident and one-shot matrices alike:

* :class:`EncodedMatrix` — each row tile is Eq. 1-encoded and
  forward-NTT'd **once**, stored per RNS limb as a frozen
  ``(L_aug, rows, n)`` stack (the URAM-resident staging of
  Section III-C), keyed by a content fingerprint;
* :class:`EncodedMatrixCache` — a thread-safe LRU over fingerprints, so
  repeat engines for the same matrix skip encoding entirely
  (``batch.cache.hit`` / ``batch.cache.miss`` counters);
* :class:`BatchedHmvp` — the only HMVP engine: hoists each vector
  ciphertext's forward NTT once per request, runs every row of a tile
  through one vectorized dot/rescale/extract pass, aggregates partial
  LWEs across column tiles, and packs each row tile through the one
  PACKLWES tree; a batch runs in stacked request groups whose work
  items fan out across a ``concurrent.futures`` worker pool.

Functionally everything is exact: per RNS limb, bit-identical to the
scalar per-row oracle in ``tests/oracles.py`` (``encode_row`` →
``multiply_plain`` → rescale → ``extract_lwe`` → recursive pack); the
op-count deltas feed the performance model and
``benchmarks/bench_batch.py``.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..he.bfv import BfvScheme
from ..he.packing import STACK_COEFFS, PackedResult, _pack_tree
from ..he.params import CheParams
from ..he.rlwe import RlweCiphertext
from ..math.modular import modadd_vec, modmul_vec, modneg_vec
from ..math.ntt import freeze_array
from ..math.rns import RnsBasis
from .hmvp import HmvpOpCount, HmvpResult

__all__ = [
    "matrix_fingerprint",
    "EncodedMatrix",
    "EncodedMatrixCache",
    "MATRIX_CACHE",
    "encode_matrix",
    "encrypt_tiles",
    "host_cpus",
    "BatchedHmvp",
]


def matrix_fingerprint(matrix: np.ndarray, params: CheParams) -> str:
    """Content fingerprint of an encoded matrix.

    Hashes the matrix values together with everything the NTT-domain
    encoding depends on (shape, ring degree, plaintext modulus, RNS
    moduli) — a mutated matrix or a different parameter set can never
    alias a cached encoding.
    """
    h = hashlib.sha256()
    arr = np.asarray(matrix)
    meta = (
        arr.shape,
        params.n,
        params.plain_modulus,
        tuple(params.ct_moduli),
        params.special_modulus,
    )
    h.update(repr(meta).encode())
    if arr.dtype == object:
        h.update(repr(arr.tolist()).encode())
    else:
        h.update(np.ascontiguousarray(arr.astype(np.int64)).tobytes())
    return h.hexdigest()


def _encode_rows_eq1(block: np.ndarray, n: int, t: int) -> np.ndarray:
    """Vectorized Eq. 1 row encoding of a ``(rows, width)`` block.

    Row-for-row identical to ``CoefficientEncoder.encode_row``:
    ``pt^(A_i) = A_{i,0} - sum_{j>=1} A_{i,j} X^{N-j}``.
    """
    rows, width = block.shape
    reduced = np.mod(block.astype(object), t).astype(np.uint64)
    coeffs = np.zeros((rows, n), dtype=np.uint64)
    coeffs[:, 0] = reduced[:, 0]
    if width > 1:
        neg = (np.uint64(t) - reduced[:, 1:]) % np.uint64(t)
        coeffs[:, n - (width - 1) :] = neg[:, ::-1]
    return coeffs


def _centered_limbs(coeffs: np.ndarray, t: int, basis: RnsBasis) -> np.ndarray:
    """Centered lift + per-limb reduction of plaintext coefficients.

    Matches ``plaintext_limbs`` (Plaintext.centered then
    signed_to_limbs) for stacked ``(rows, n)`` input.
    """
    half = t // 2
    c = coeffs.astype(np.int64)
    signed = np.where(c > half, c - t, c)
    return np.stack([np.mod(signed, q).astype(np.uint64) for q in basis])


@dataclass
class EncodedMatrix:
    """A matrix encoded once, resident in the NTT domain per row tile.

    Row and column tiles are ``N`` (the ring degree) wide, the last of
    each possibly narrower.  ``tiles[(rt, ct)]`` is the frozen
    ``(L_aug, rows_in_tile, n)`` stack of forward-transformed Eq. 1 row
    encodings for row tile ``rt`` against column tile ``ct``.
    """

    fingerprint: str
    shape: Tuple[int, int]
    ring_n: int
    tiles: Dict[Tuple[int, int], np.ndarray] = field(repr=False)
    encode_ops: HmvpOpCount = field(default_factory=HmvpOpCount)

    @property
    def row_tiles(self) -> int:
        return -(-self.shape[0] // self.ring_n)

    @property
    def col_tiles(self) -> int:
        return -(-self.shape[1] // self.ring_n)

    def row_tile_rows(self, rt: int) -> int:
        return min(self.ring_n, self.shape[0] - rt * self.ring_n)

    @classmethod
    def encode(cls, scheme: BfvScheme, matrix: np.ndarray) -> "EncodedMatrix":
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        m, n_cols = matrix.shape
        ring = scheme.params.n
        ctx = scheme.ctx
        aug = ctx.aug_basis
        t = scheme.params.plain_modulus
        tiles: Dict[Tuple[int, int], np.ndarray] = {}
        with obs.span("batch.encode", rows=m, cols=n_cols):
            for rt, row_start in enumerate(range(0, m, ring)):
                row_block = matrix[row_start : row_start + ring]
                for ct, col_start in enumerate(range(0, n_cols, ring)):
                    block = row_block[:, col_start : col_start + ring]
                    coeffs = _encode_rows_eq1(block, ring, t)
                    limbs = _centered_limbs(coeffs, t, aug)
                    tiles[(rt, ct)] = freeze_array(ctx.ntt_limbs(limbs, aug))
        col_tiles = -(-n_cols // ring)
        return cls(
            fingerprint=matrix_fingerprint(matrix, scheme.params),
            shape=(m, n_cols),
            ring_n=ring,
            tiles=tiles,
            encode_ops=HmvpOpCount(ntts=m * len(aug) * col_tiles),
        )


class EncodedMatrixCache:
    """Thread-safe LRU of :class:`EncodedMatrix` entries by fingerprint.

    The fingerprint covers the matrix content, so mutating a matrix and
    re-submitting it *misses* (no stale NTT-domain rows are ever
    served); re-submitting unchanged content hits and skips the encode.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, EncodedMatrix]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get_or_encode(self, scheme: BfvScheme, matrix: np.ndarray) -> EncodedMatrix:
        key = matrix_fingerprint(matrix, scheme.params)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if entry is not None:
            obs.inc("batch.cache.hit")
            return entry
        obs.inc("batch.cache.miss")
        # encode outside the lock: concurrent misses on the same key do
        # redundant work but never block each other or corrupt the map
        encoded = EncodedMatrix.encode(scheme, matrix)
        with self._lock:
            self.misses += 1
            self._entries[key] = encoded
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return encoded

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide default cache (what :class:`BatchedHmvp` uses unless an
#: explicit cache is passed).
MATRIX_CACHE = EncodedMatrixCache()


def encode_matrix(
    scheme: BfvScheme,
    matrix: np.ndarray,
    *,
    cache: Optional[EncodedMatrixCache] = None,
) -> EncodedMatrix:
    """Encode (or fetch from cache) the NTT-domain row tiles of a matrix."""
    target = cache if cache is not None else MATRIX_CACHE
    return target.get_or_encode(scheme, matrix)


def encrypt_tiles(
    scheme: BfvScheme, v: Sequence[int]
) -> List[RlweCiphertext]:
    """One augmented vector ciphertext per ring-wide column tile of ``v``.

    The request layout every engine entry point takes for matrices
    wider than the ring (:meth:`BatchedHmvp.multiply_tiles`).
    """
    v = np.asarray(v)
    ring = scheme.params.n
    return [
        scheme.encrypt_vector(v[start : start + ring])
        for start in range(0, v.shape[0], ring)
    ]


def host_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class BatchedHmvp:
    """The HMVP engine: one plaintext matrix applied to encrypted vectors.

    Every entry point runs the same request-stacked pipeline — hoist
    (NTT) → dot (MULTPOLY, INTT) → RESCALE+EXTRACT → column-tile LWE sum
    → PACK — over a *request group*: ``R`` vector ciphertexts stacked on
    one axis, so each stage is one NumPy pass per row tile.  A batch
    runs in groups of ``max(1, STACK_COEFFS // (rows * n))`` requests;
    one-shot products (:meth:`once`) and the cluster's partial products
    are groups of one.

    Parameters
    ----------
    scheme:
        The HE scheme (keys included).
    matrix:
        ``(m, n_cols)`` of any size: every ``N`` rows (``N`` the ring
        degree) form a row tile (one pack each), and every ``N`` columns
        a column tile, in which case requests supply one vector
        ciphertext per column tile (see :meth:`multiply_tiles`).
    cache:
        Encoded-matrix cache; defaults to the module :data:`MATRIX_CACHE`.
    workers:
        Worker-pool width for :meth:`multiply_batch`; defaults to
        :func:`host_cpus`.
    """

    def __init__(
        self,
        scheme: BfvScheme,
        matrix: Sequence[Sequence[int]],
        *,
        cache: Optional[EncodedMatrixCache] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.scheme = scheme
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if 0 in matrix.shape:
            raise ValueError(f"nothing to pack: empty {matrix.shape} matrix")
        self.matrix = matrix
        self.workers = workers if workers is not None else host_cpus()
        self.encoded = encode_matrix(scheme, matrix, cache=cache)
        self.encode_ops = self.encoded.encode_ops

    @classmethod
    def once(
        cls,
        scheme: BfvScheme,
        matrix: Sequence[Sequence[int]],
        ct_tiles: Sequence[RlweCiphertext],
    ) -> HmvpResult:
        """One-shot product of a fresh matrix with one request.

        The matrix is encoded outside :data:`MATRIX_CACHE` (nothing is
        retained once the result returns), and the result's ``ops``
        include that encode — a one-shot product pays the row
        transforms every call.
        """
        engine = cls(scheme, matrix, cache=EncodedMatrixCache(capacity=1))
        result = engine.multiply_tiles(ct_tiles)
        result.ops = engine.encode_ops + result.ops
        return result

    @property
    def shape(self) -> "tuple[int, int]":
        return tuple(self.matrix.shape)

    # -- the request-stacked pipeline ------------------------------------------

    def _check_tiles(self, count: int, what: str = "vector") -> None:
        if count != self.encoded.col_tiles:
            raise ValueError(
                f"need {self.encoded.col_tiles} {what} tiles for "
                f"{self.matrix.shape[1]} columns, got {count}"
            )

    def check_request(self, ct: RlweCiphertext) -> None:
        """Raise ``ValueError`` unless ``ct`` is an augmented vector
        ciphertext over this engine's ring degree and modulus basis.

        Every path that admits a request runs this check (the hoist and
        the serving layer's ``submit``), so a
        foreign ciphertext fails on its own instead of inside a batch
        it shares with valid requests.
        """
        ctx = self.scheme.ctx
        if ct.ctx.n != ctx.n:
            raise ValueError(
                f"ciphertext ring degree {ct.ctx.n} != engine ring "
                f"degree {ctx.n}"
            )
        if not ct.is_augmented:
            raise ValueError("vector ciphertext must be augmented")
        if ct.basis.moduli != ctx.aug_basis.moduli:
            raise ValueError(
                f"ciphertext modulus basis {ct.basis.moduli} != engine "
                f"basis {ctx.aug_basis.moduli}"
            )

    def _group_size(self) -> int:
        """Requests per stacked group (see :data:`STACK_COEFFS`)."""
        rows = self.encoded.row_tile_rows(0)
        return max(1, STACK_COEFFS // (rows * self.encoded.ring_n))

    def _hoist(self, cts: Sequence[RlweCiphertext]) -> np.ndarray:
        """Forward NTT of a request group's ciphertexts, once per request.

        Returns the ``(L_aug, 2, R, n)`` stack of both components.
        """
        for ct in cts:
            self.check_request(ct)
        ctx = self.scheme.ctx
        aug = ctx.aug_basis
        with obs.span("NTT", limbs=len(aug), polys=2, requests=len(cts)):
            comps = np.stack(
                [
                    np.stack([ct.c0 for ct in cts], axis=1),
                    np.stack([ct.c1 for ct in cts], axis=1),
                ],
                axis=1,
            )
            return ctx.ntt_limbs(comps, aug)

    def _tile_partial(
        self, tile_ntt: np.ndarray, comp: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Dot → rescale/extract of one ``(L_aug, rows, n)`` tile against
        a group's ``(L_aug, 2, R, n)`` hoisted components.

        Returns the stacked LWEs ``(b (L, R, rows), a (L, R, rows, n))``.
        EXTRACTLWES keeps only coefficient 0 of the c0 product, so ``b``
        is read from its transform slots
        (:meth:`~repro.math.ntt.FusedLimbNtt.inverse_constant`) and
        rescaled as scalars; only the c1 product is inverse-transformed.
        """
        ctx = self.scheme.ctx
        aug = ctx.aug_basis
        rows, reqs = tile_ntt.shape[1], comp.shape[2]
        with obs.span("batch.dot", rows=rows, requests=reqs):
            with obs.span("MULTPOLY", rows=rows, limbs=len(aug)):
                # every row against both components of every request:
                # (L_aug, 1, 1, rows, n) x (L_aug, 2, R, 1, n)
                prods = modmul_vec(
                    tile_ntt[:, np.newaxis, np.newaxis],
                    comp[..., np.newaxis, :],
                    aug.modulus_column.reshape(-1, 1, 1, 1, 1),
                )
            with obs.span("INTT", rows=rows, limbs=len(aug)):
                d1 = ctx.intt_limbs(prods[:, 1], aug)
            with obs.span("RESCALE+EXTRACT", rows=rows):
                # vectorized EXTRACTLWES at index 0: b = c0[..0];
                # a[0] = c1[..0], a[j] = -c1[..n-j] for j >= 1
                b = aug.rescale_last(
                    ctx.fused_ntt(aug).inverse_constant(prods[:, 0])
                )
                r1 = aug.rescale_last(d1)  # (L, R, rows, n)
                a = np.empty_like(r1)
                a[..., 0] = r1[..., 0]
                ct_col = ctx.ct_basis.modulus_column.reshape(-1, 1, 1, 1)
                a[..., 1:] = modneg_vec(r1[..., :0:-1], ct_col)
        return b, a

    def _row_tile_partial(
        self, rt: int, hoisted_tiles: Sequence[np.ndarray]
    ) -> "tuple[np.ndarray, np.ndarray]":
        """All column tiles of row tile ``rt``, summed as LWEs.

        ``hoisted_tiles[c]`` is a group's ``(L_aug, 2, R, n)`` transform
        for column tile ``c``.  Returns the stacked LWEs
        ``(b (L, R, rows), a (L, R, rows, n))`` — what the pack tree
        consumes, and (per request) the merge payload the cluster layer
        (:mod:`repro.cluster`) ships between nodes.
        """
        ct_col = self.scheme.ctx.ct_basis.modulus_column
        b, a = self._tile_partial(
            self.encoded.tiles[(rt, 0)], hoisted_tiles[0]
        )
        for col in range(1, len(hoisted_tiles)):
            b_col, a_col = self._tile_partial(
                self.encoded.tiles[(rt, col)], hoisted_tiles[col]
            )
            # aggregate partial dot products as LWEs (cheap additions)
            b = modadd_vec(b, b_col, ct_col.reshape(-1, 1, 1))
            a = modadd_vec(a, a_col, ct_col.reshape(-1, 1, 1, 1))
        return b, a

    def _row_tile_pack(
        self, rt: int, hoisted_tiles: Sequence[np.ndarray]
    ) -> List[PackedResult]:
        """One row tile of a request group: partials → PACK, per request."""
        ctx = self.scheme.ctx
        b, a = self._row_tile_partial(rt, hoisted_tiles)
        return _pack_tree(ctx, ctx.ct_basis, b, a, self.scheme.galois_keys)

    def request_op_count(self) -> HmvpOpCount:
        """Operation counts of one request against the resident matrix."""
        m, n_cols = self.matrix.shape
        return HmvpOpCount.for_request(
            m, n_cols, self.encoded.ring_n, len(self.scheme.ctx.ct_basis)
        )

    # -- public entry points ---------------------------------------------------

    def hoist(self, ct: RlweCiphertext) -> np.ndarray:
        """Public hoist: the forward NTT of one ciphertext, a group of one.

        The hoisted components depend only on the ciphertext (not on the
        resident matrix), so a caller fanning one request across several
        engines — the cluster scatter path — computes them once and
        passes them to every engine's :meth:`multiply_partial`.
        """
        return self._hoist([ct])

    def multiply_partial(
        self, hoisted_tiles: Sequence[np.ndarray]
    ) -> "List[tuple[np.ndarray, np.ndarray]]":
        """Stages 1-4 only: stacked partial LWEs per row tile, unpacked.

        Runs the hoisted dot/rescale/extract kernels and the per-engine
        column-tile LWE aggregation but stops *before* PACKLWES,
        returning ``(b (L, rows), a (L, rows, n))`` per row tile.  Every
        per-row value is exactly what the packed path would consume, so
        a caller may merge partials across shards (modular addition for
        column shards, row-order concatenation for row shards) and pack
        centrally — the resulting RLWE ciphertext is bit-identical to
        the unsharded pipeline.  This is the scatter payload of
        :mod:`repro.cluster`.

        ``hoisted_tiles`` holds one :meth:`hoist` result per column tile.
        """
        self._check_tiles(len(hoisted_tiles), "hoisted")
        obs.inc(
            "core.hmvp.dot_products",
            self.matrix.shape[0] * self.encoded.col_tiles,
        )
        partials = []
        for rt in range(self.encoded.row_tiles):
            b, a = self._row_tile_partial(rt, hoisted_tiles)
            partials.append((b[:, 0], a[:, 0]))
        return partials

    def multiply_tiles(
        self, ct_tiles: Sequence[RlweCiphertext]
    ) -> HmvpResult:
        """Full Alg. 1 for one request (one ciphertext per column tile)."""
        self._check_tiles(len(ct_tiles))
        hoisted = [self.hoist(ct) for ct in ct_tiles]
        packs = [
            self._row_tile_pack(rt, hoisted)[0]
            for rt in range(self.encoded.row_tiles)
        ]
        m, n_cols = self.matrix.shape
        obs.inc("core.hmvp.dot_products", m * self.encoded.col_tiles)
        return HmvpResult(
            packs=packs, rows=m, cols=n_cols, ops=self.request_op_count()
        )

    def multiply_one(self, ct_v: RlweCiphertext) -> HmvpResult:
        """Full Alg. 1 for one vector against the cached matrix."""
        if self.encoded.col_tiles != 1:
            raise ValueError(
                "matrix has multiple column tiles; use multiply_tiles"
            )
        return self.multiply_tiles([ct_v])

    def multiply_batch(self, cts: Sequence[RlweCiphertext]) -> List[HmvpResult]:
        """Apply the cached matrix to a batch of encrypted vectors.

        The batch runs in request groups; the ``(group, row tile)`` work
        items fan out across a thread pool when :attr:`workers` ``> 1``
        (the NumPy kernels release the GIL for most of their runtime).
        """
        if self.encoded.col_tiles != 1:
            raise ValueError(
                "matrix has multiple column tiles; use multiply_tiles "
                "per request"
            )
        if not cts:
            return []
        size = self._group_size()
        groups = [cts[i : i + size] for i in range(0, len(cts), size)]
        row_tiles = self.encoded.row_tiles
        obs.inc("batch.requests", len(cts))
        with obs.span("batch.batch", requests=len(cts), workers=self.workers):
            hoisted = [[self._hoist(group)] for group in groups]
            tasks = [
                (gi, rt) for gi in range(len(groups)) for rt in range(row_tiles)
            ]
            if self.workers > 1 and len(tasks) > 1:
                # pool threads do not inherit the contextvar, so carry
                # the batch's trace context across the executor hop
                batch_ctx = obs.current_context()
                with ThreadPoolExecutor(max_workers=self.workers) as pool:
                    packed = list(
                        pool.map(
                            lambda task: obs.run_with_context(
                                batch_ctx,
                                self._row_tile_pack,
                                task[1],
                                hoisted[task[0]],
                            ),
                            tasks,
                        )
                    )
            else:
                packed = [
                    self._row_tile_pack(rt, hoisted[gi]) for gi, rt in tasks
                ]
        m, n_cols = self.matrix.shape
        obs.inc("core.hmvp.dot_products", m * len(cts))
        per_request = self.request_op_count()
        results = []
        for gi, group in enumerate(groups):
            tile_packs = packed[gi * row_tiles : (gi + 1) * row_tiles]
            for ri in range(len(group)):
                results.append(
                    HmvpResult(
                        packs=[packs[ri] for packs in tile_packs],
                        rows=m,
                        cols=n_cols,
                        ops=per_request,
                    )
                )
        return results

    def amortized_op_count(self, batch: int) -> HmvpOpCount:
        """Total ops for a batch, including the one-time encode."""
        total = HmvpOpCount()
        for name in vars(total):
            setattr(total, name, getattr(self.encode_ops, name))
        per_vec = self.request_op_count()
        for _ in range(batch):
            total = total + per_vec
        return total
