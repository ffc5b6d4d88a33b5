"""Negacyclic NTT: one constant-geometry kernel over RNS limb stacks.

Every transform runs :class:`FusedLimbNtt`, the constant-geometry (Pease)
network of the paper's Algorithm 4 over a whole ``(L, ..., n)`` limb
stack; :class:`NegacyclicNtt` is its one-limb view.  The twiddle schedule
is derived from the merged Cooley-Tukey network, with the ψ twisting
factors folded in, so outputs are in its bit-reversed slot order and
pointwise products compute multiplication in ``Z_q[X]/(X^N + 1)``.  The
merged CT/GS loops live on in ``tests/oracles.py`` as the gold oracle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from ..obs.metrics import REGISTRY as _METRICS
from .modular import MAX_MODULUS_BITS, modinv, modmul_vec
from .primes import negacyclic_psi

__all__ = [
    "bit_reverse",
    "bit_reverse_indices",
    "constant_geometry_index",
    "freeze_array",
    "NegacyclicNtt",
    "FusedLimbNtt",
    "fused_limb_ntt",
]

#: The float twiddle quotients are scaled down by this factor, so the
#: quotient estimate never exceeds the true quotient (see FusedLimbNtt).
_QUOTIENT_BIAS = 1.0 - 2.0**-49


def freeze_array(arr: np.ndarray) -> np.ndarray:
    """Mark a cached table read-only and return it.

    ``lru_cache``d functions hand the *same* array object to every
    caller; without this flag a single in-place mutation would silently
    corrupt every subsequent transform process-wide.
    """
    arr.flags.writeable = False
    return arr


def bit_reverse(x: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``x``."""
    out = 0
    for _ in range(bits):
        out = (out << 1) | (x & 1)
        x >>= 1
    return out


def _log2(n: int) -> int:
    if n < 2 or n & (n - 1):
        raise ValueError(f"n={n} must be a power of two >= 2")
    return n.bit_length() - 1


@lru_cache(maxsize=None)
def bit_reverse_indices(n: int) -> np.ndarray:
    """Permutation array ``perm`` with ``perm[i] = bit_reverse(i, log2 n)``."""
    bits = n.bit_length() - 1
    if 1 << bits != n:
        raise ValueError(f"n={n} is not a power of two")
    idx = np.arange(n, dtype=np.int64)
    perm = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        perm |= ((idx >> b) & 1) << (bits - 1 - b)
    return freeze_array(perm)


def _powers(root: int, n: int, q: int) -> np.ndarray:
    """``[root^0, root^1, ..., root^(n-1)] mod q`` by doubling."""
    out = np.empty(n, dtype=np.uint64)
    out[0] = 1
    k, step = 1, root % q
    while k < n:
        out[k : 2 * k] = modmul_vec(out[:k], np.uint64(step), q)
        k, step = 2 * k, pow(step, 2, q)
    return out


@lru_cache(maxsize=None)
def _tables(n: int, q: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """Merged twiddle tables.

    Returns ``(psis, inv_psis, n_inv)`` where ``psis[i] = ψ^brv(i)`` and
    ``inv_psis[i] = ψ^{-brv(i)}`` (brv over ``log2 n`` bits): the merged
    Cooley-Tukey table the constant-geometry schedule gathers from.
    """
    psi = negacyclic_psi(n, q)
    brv = bit_reverse_indices(n)
    psis = _powers(psi, n, q)[brv]
    inv_psis = _powers(modinv(psi, q), n, q)[brv]
    return freeze_array(psis), freeze_array(inv_psis), modinv(n, q)


@lru_cache(maxsize=None)
def constant_geometry_index(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Derive the constant-geometry schedule from the merged CT network.

    Returns ``(index, output_perm)``: ``index[i, j]`` is the position in
    the merged table (``psis`` of :func:`_tables`) of the twiddle that
    butterfly ``j`` consumes in stage ``i``, and ``output_perm`` is the
    permutation ``σ`` with ``cg_output[k] = merged_output[σ[k]]``.

    The derivation tracks the data permutation ``π_i`` between the two
    networks:

    * invariant: CG state ``A_i[k] = C_i[π_i[k]]`` where ``C_i`` is the
      Cooley-Tukey state;
    * CG reads ``(j, j + n/2)`` and writes ``(2j, 2j + 1)``, so
      ``π_{i+1}[2j] = π_i[j]`` and ``π_{i+1}[2j+1] = π_i[j] + t_i``;
    * the twiddle of CG butterfly ``j`` in stage ``i`` is the CT twiddle
      of block ``π_i[j] >> (log2 n - i)``, at table index ``2^i + block``.

    ``output_perm`` comes out as the identity: the CG network leaves its
    output in the merged network's bit-reversed slot order.  The schedule
    depends on ``n`` alone; a modulus only supplies the table it indexes.
    """
    log_n = _log2(n)
    half = n // 2
    index = np.empty((log_n, half), dtype=np.int64)
    perm = np.arange(n, dtype=np.int64)
    for i in range(log_n):
        index[i] = (1 << i) + (perm[:half] >> (log_n - i))
        nxt = np.empty(n, dtype=np.int64)
        nxt[0::2] = perm[:half]
        nxt[1::2] = perm[:half] + (n >> (i + 1))
        perm = nxt
    return freeze_array(index), freeze_array(perm)


def _mul_lazy(
    x: np.ndarray,
    w: np.ndarray,
    wq: np.ndarray,
    q: np.ndarray,
    out: np.ndarray,
    est_f: np.ndarray,
    est: np.ndarray,
) -> None:
    """``out = x * w mod q`` in ``[0, 2q)``, for ``x < 4q`` and a twiddle
    ``w`` with its biased float quotient ``wq`` (see FusedLimbNtt)."""
    np.multiply(x, wq, out=est_f)
    np.copyto(est, est_f, casting="unsafe")  # non-negative: truncation is floor
    est_u = est.view(np.uint64)
    np.multiply(x, w, out=out)
    est_u *= q
    out -= est_u


def _reduce_once(x: np.ndarray, bound: np.ndarray, tmp: np.ndarray) -> None:
    """``x = x - bound if x >= bound`` in place, for ``x < 2 * bound``."""
    np.subtract(x, bound, out=tmp)
    np.minimum(x, tmp, out=x)


class FusedLimbNtt:
    """Negacyclic NTT over a whole RNS limb stack, on the paper's
    constant-geometry schedule.

    All limbs of an ``(L, ..., n)`` stack advance through the stages in
    lock-step, the software mirror of CHAM's limb-parallel NTT lanes
    (Section III-B).  The stack is read as ``(B, L, n)``; a forward
    stage reads the contiguous halves ``(j, j + n/2)`` and writes
    ``(2j, 2j + 1)`` into a fresh buffer, the inverse runs the mirror
    and folds ``n^{-1}`` into its last stage.  Stage twiddles and their
    float quotients are frozen ``(L, n/2)`` tables that broadcast over
    ``B`` only.  Buffers are allocated per call and the input is only read, so
    concurrent calls share nothing writable.  The schedule's output
    permutation is the identity: slots are in the merged network's
    bit-reversed order, bit-identical per limb to its outputs.

    *Lazy residues.*  Between stages residues lie in ``[0, 2q)``.  A
    butterfly sum, or a difference taken as ``u - v + 2q``, lies in
    ``[0, 4q)``, and one conditional subtraction of ``2q`` per output
    (an unsigned minimum of ``x`` and ``x - 2q``) restores the range;
    the last stage subtracts ``q``, so outputs are canonical.

    *Float quotients.*  A twiddle product ``x * w mod q`` with ``x < 4q``
    and ``w < q`` takes ``est = floor(fl(x * fl(w/q)))`` as its quotient.
    With ``q < 2**41`` (:data:`~repro.math.modular.MAX_MODULUS_BITS`) the
    true quotient ``x*w/q`` is below ``4q < 2**43`` and the estimate
    carries three roundings of relative size ``2**-53``, an absolute
    error below ``2**43 * 2**-51 < 1``: the estimate is within ±1 of the
    true quotient ``Q``, and the raw residue ``x*w - est*q``, taken in
    wrap-around ``uint64`` arithmetic, lies in ``(-q, 2q)``.  The quotient
    tables are scaled down by ``1 - 2**-49``, which moves the estimate
    below the true quotient by less than ``2**43 * 2**-48 < 1`` and
    never above it, so ``est`` is ``Q - 1`` or ``Q`` and the residue
    lies in ``[0, 2q)`` with no correction.  Hence the modulus cap: a
    constructor rejects any modulus of ``2**41`` or more.
    """

    def __init__(self, n: int, moduli: Tuple[int, ...]) -> None:
        if not moduli:
            raise ValueError("need at least one modulus")
        log_n = _log2(n)
        self.n = n
        self.moduli = tuple(int(q) for q in moduli)
        for q in self.moduli:
            if q.bit_length() > MAX_MODULUS_BITS:
                raise ValueError(
                    f"modulus {q} is {q.bit_length()} bits; the NTT kernel "
                    f"supports at most {MAX_MODULUS_BITS}"
                )
            if q % (2 * n) != 1:
                raise ValueError(f"q={q} is not ≡ 1 (mod {2 * n})")
        index, _perm = constant_geometry_index(n)
        per_limb = [_tables(n, q) for q in self.moduli]
        q_f = np.array(self.moduli, dtype=np.float64).reshape(-1, 1)
        # (stages, L, n/2) twiddle tables and their biased float quotients
        self.twiddles = freeze_array(np.stack([t[0][index] for t in per_limb], axis=1))
        self.inv_twiddles = freeze_array(np.stack([t[1][index] for t in per_limb], axis=1))
        self._fwd_q = freeze_array(self.twiddles / q_f * _QUOTIENT_BIAS)
        self._inv_q = freeze_array(self.inv_twiddles / q_f * _QUOTIENT_BIAS)
        # the inverse's last stage mirrors forward stage 0, whose twiddle is
        # the same for every butterfly; its sum half is scaled by n^-1 and
        # its difference half by that twiddle's inverse times n^-1
        n_inv = [t[2] for t in per_limb]
        last = [
            int(t[1][1]) * ni % q for t, ni, q in zip(per_limb, n_inv, self.moduli)
        ]
        self._n_inv = freeze_array(np.array(n_inv, dtype=np.uint64).reshape(-1, 1))
        self._n_inv_q = freeze_array(self._n_inv / q_f * _QUOTIENT_BIAS)
        self._last = freeze_array(np.array(last, dtype=np.uint64).reshape(-1, 1))
        self._last_q = freeze_array(self._last / q_f * _QUOTIENT_BIAS)
        self._q = freeze_array(np.array(self.moduli, dtype=np.uint64))
        self._q_col = freeze_array(self._q.reshape(-1, 1))
        self._q2_col = freeze_array(2 * self._q_col)
        self._stages = log_n

    def _check(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint64)
        if a.ndim < 2 or a.shape[0] != len(self.moduli) or a.shape[-1] != self.n:
            raise ValueError(
                f"expected a ({len(self.moduli)}, ..., {self.n}) limb stack, "
                f"got shape {a.shape}"
            )
        return a

    def _layout(self, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``a`` as a ``(B, L, n)`` view, a fresh output stack shaped like
        ``a``, and that output's ``(B, L, n)`` view."""
        a = self._check(a)
        limbs, n = len(self.moduli), self.n
        polys = int(np.prod(a.shape[1:-1], dtype=np.int64))
        out = np.empty(a.shape, dtype=np.uint64)
        return (
            a.reshape(limbs, polys, n).transpose(1, 0, 2),
            out,
            out.reshape(limbs, polys, n).transpose(1, 0, 2),
        )

    @staticmethod
    def _buffers(last: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Ping-pong stage buffers: the output's view, where the last stage
        writes, and one work stack."""
        return last, np.empty(last.shape, dtype=np.uint64)

    def forward(self, a: np.ndarray) -> np.ndarray:
        """Forward NTT of every limb of a ``(L, ..., n)`` stack at once;
        natural order in, bit-reversed slot order out."""
        x, out, last = self._layout(a)
        polys, limbs, n = x.shape
        h = n // 2
        q, q2 = self._q_col, self._q2_col
        buffers = self._buffers(last)
        est_f = np.empty((polys, limbs, h))
        est = np.empty((polys, limbs, h), dtype=np.int64)
        tmp = est.view(np.uint64)
        v = np.empty((polys, limbs, h), dtype=np.uint64)
        s = np.empty_like(v)
        for i in range(self._stages):
            final = i == self._stages - 1
            y = buffers[(self._stages - 1 - i) % 2]
            lo, hi = x[..., :h], x[..., h:]
            _mul_lazy(hi, self.twiddles[i], self._fwd_q[i], q, v, est_f, est)
            bound = q2
            if final:
                bound = q
                _reduce_once(v, q, tmp)
                lo_c = est_f.view(np.uint64)
                np.subtract(lo, q, out=lo_c)
                np.minimum(lo, lo_c, out=lo_c)
                lo = lo_c
            np.add(lo, v, out=s)
            np.subtract(s, bound, out=tmp)
            np.minimum(s, tmp, out=y[..., 0::2])
            np.subtract(lo, v, out=s)
            np.add(s, bound, out=tmp)
            np.minimum(s, tmp, out=y[..., 1::2])
            x = y
        if _METRICS.enabled:
            _METRICS.inc("math.ntt.forward", polys * limbs)
        return out

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse NTT of every limb of a ``(L, ..., n)`` stack at once;
        bit-reversed slot order in, natural order out."""
        x, out, last = self._layout(a)
        polys, limbs, n = x.shape
        h = n // 2
        q, q2 = self._q_col, self._q2_col
        buffers = self._buffers(last)
        est_f = np.empty((polys, limbs, h))
        est = np.empty((polys, limbs, h), dtype=np.int64)
        tmp = est.view(np.uint64)
        d = np.empty((polys, limbs, h), dtype=np.uint64)
        for i in range(self._stages - 1, -1, -1):
            final = i == 0
            y = buffers[i % 2]
            even, odd = x[..., 0::2], x[..., 1::2]
            lo, hi = y[..., :h], y[..., h:]
            np.subtract(even, odd, out=d)
            d += q2
            if final:
                _mul_lazy(d, self._last, self._last_q, q, hi, est_f, est)
                _reduce_once(hi, q, tmp)
                np.add(even, odd, out=d)
                _mul_lazy(d, self._n_inv, self._n_inv_q, q, lo, est_f, est)
                _reduce_once(lo, q, tmp)
            else:
                _mul_lazy(d, self.inv_twiddles[i], self._inv_q[i], q, hi, est_f, est)
                np.add(even, odd, out=d)
                np.subtract(d, q2, out=tmp)
                np.minimum(d, tmp, out=lo)
            x = y
        if _METRICS.enabled:
            _METRICS.inc("math.ntt.inverse", polys * limbs)
        return out

    def inverse_constant(self, a: np.ndarray) -> np.ndarray:
        """Coefficient 0 of the inverse NTT of every polynomial in a
        ``(L, ..., n)`` stack, read straight from the transform slots.

        The slots of a negacyclic transform are the polynomial's values
        at the ``n`` odd powers of ψ, whose ``k``-th powers sum to zero
        for ``0 < k < n``; so coefficient 0 is ``n^-1`` times the sum of
        the slots.  A sum ignores the bit-reversed slot order.  Equal per
        limb to ``inverse(a)[..., 0]``, without the butterflies.  Returns
        the ``(L, ...)`` stack.
        """
        a = self._check(a)
        col = (-1,) + (1,) * (a.ndim - 2)
        q = self._q.reshape(col)
        # every slot is below q < 2**MAX_MODULUS_BITS = 2**41, so the sum
        # of n slots is below n * q < 2**64 for any n below 2**23: the
        # uint64 sum is exact
        total = a.sum(axis=-1, dtype=np.uint64) % q
        return modmul_vec(total, self._n_inv.reshape(col), q)


@lru_cache(maxsize=None)
def fused_limb_ntt(n: int, moduli: Tuple[int, ...]) -> FusedLimbNtt:
    """Cached :class:`FusedLimbNtt` per ``(n, moduli)`` pair."""
    return FusedLimbNtt(n, moduli)


class NegacyclicNtt:
    """Negacyclic NTT for one ``(n, q)`` pair: the one-limb view of
    :class:`FusedLimbNtt`, whose cached tables it shares.

    Transforms the last axis of any ``(..., n)`` array: natural order in,
    bit-reversed slot order out, and back.

    Parameters
    ----------
    n:
        Transform length; must be a power of two.
    q:
        Prime modulus with ``q ≡ 1 (mod 2n)`` and ``q < 2**41``.
    """

    def __init__(self, n: int, q: int) -> None:
        self.n = n
        self.q = q
        self._kernel = fused_limb_ntt(n, (int(q),))

    def forward(self, a: np.ndarray) -> np.ndarray:
        """NTT of ``a`` (last axis), natural order in, bit-reversed out."""
        a = np.asarray(a, dtype=np.uint64)
        return self._kernel.forward(a.reshape((1,) + a.shape)).reshape(a.shape)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse NTT of ``a`` (last axis), bit-reversed in, natural out."""
        a = np.asarray(a, dtype=np.uint64)
        return self._kernel.inverse(a.reshape((1,) + a.shape)).reshape(a.shape)

    def pointwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficient-wise product in the transform domain (MULTPOLY)."""
        if _METRICS.enabled:
            _METRICS.inc("math.ntt.pointwise")
        return modmul_vec(a, b, self.q)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic product ``a * b mod (X^n + 1, q)`` via NTT."""
        return self.inverse(self.pointwise(self.forward(a), self.forward(b)))
