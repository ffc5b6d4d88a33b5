"""Reference negacyclic NTT (the software *gold model*).

This module implements the merged-twiddle negacyclic NTT of Longa-Naehrig:

* forward transform: Cooley-Tukey butterflies, natural-order input,
  bit-reversed output;
* inverse transform: Gentleman-Sande butterflies, bit-reversed input,
  natural-order output, with the final scaling by ``n^{-1}``.

Multiplying in the transform domain computes *negacyclic* convolution, i.e.
multiplication in ``Z_q[X]/(X^N + 1)``, with no zero-padding — the ψ
twisting factors are folded into the twiddle tables.

The hardware datapath model (:mod:`repro.math.cg_ntt` and
:mod:`repro.hw.ntt_datapath`) is validated against this implementation,
and this implementation is itself validated against schoolbook negacyclic
convolution in the test-suite.

All functions accept arrays of shape ``(..., n)`` and transform the last
axis; everything is vectorized NumPy ``uint64``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from ..obs.metrics import REGISTRY as _METRICS
from .modular import modadd_vec, modinv, modmul_vec, modsub_vec
from .primes import negacyclic_psi

__all__ = [
    "bit_reverse",
    "bit_reverse_indices",
    "freeze_array",
    "NegacyclicNtt",
    "FusedLimbNtt",
    "fused_limb_ntt",
    "ntt",
    "intt",
    "negacyclic_convolution_schoolbook",
]


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


@lru_cache(maxsize=None)
def bit_reverse_indices(n: int) -> np.ndarray:
    """Permutation array ``perm`` with ``perm[i] = bit_reverse(i, log2 n)``."""
    bits = n.bit_length() - 1
    if 1 << bits != n:
        raise ValueError(f"n={n} is not a power of two")
    return freeze_array(
        np.array([bit_reverse(i, bits) for i in range(n)], dtype=np.int64)
    )


@lru_cache(maxsize=None)
def _tables(n: int, q: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """Merged twiddle tables.

    Returns ``(psis, inv_psis, n_inv)`` where ``psis[i] = ψ^brv(i)`` and
    ``inv_psis[i] = ψ^{-brv(i)}`` (brv over ``log2 n`` bits), the layout
    the merged CT/GS butterflies index as ``table[m + i]``.
    """
    psi = negacyclic_psi(n, q)
    psi_inv = modinv(psi, q)
    bits = n.bit_length() - 1
    psis = np.empty(n, dtype=np.uint64)
    inv_psis = np.empty(n, dtype=np.uint64)
    for i in range(n):
        r = bit_reverse(i, bits)
        psis[i] = pow(psi, r, q)
        inv_psis[i] = pow(psi_inv, r, q)
    return freeze_array(psis), freeze_array(inv_psis), modinv(n, q)


class NegacyclicNtt:
    """Negacyclic NTT context for a fixed ``(n, q)`` pair.

    Parameters
    ----------
    n:
        Transform length; must be a power of two.
    q:
        Prime modulus with ``q ≡ 1 (mod 2n)``.
    """

    def __init__(self, n: int, q: int) -> None:
        if n & (n - 1) or n < 2:
            raise ValueError(f"n={n} must be a power of two >= 2")
        if q % (2 * n) != 1:
            raise ValueError(f"q={q} is not ≡ 1 (mod {2 * n})")
        self.n = n
        self.q = q
        self._psis, self._inv_psis, self._n_inv = _tables(n, q)
        # per-stage twiddle views, hoisted out of the butterfly loop:
        # contiguous (1, m, 1) slabs so no per-call slice/reshape/copy
        self._fwd_stages = _stage_slabs(self._psis, forward=True)
        self._inv_stages = _stage_slabs(self._inv_psis, forward=False)

    # -- transforms ---------------------------------------------------------

    def forward(self, a: np.ndarray) -> np.ndarray:
        """NTT of ``a`` (last axis), natural order in, bit-reversed out."""
        n, q = self.n, self.q
        a = np.ascontiguousarray(np.asarray(a, dtype=np.uint64))
        if a.shape[-1] != n:
            raise ValueError(f"last axis must have length {n}")
        shape = a.shape
        work = a.reshape(-1, n).copy()
        for m, t, twiddle in self._fwd_stages:
            blocks = work.reshape(work.shape[0], m, 2 * t)
            # views are safe: the mod ops allocate fresh outputs, so both
            # halves are computed before either assignment writes back
            u = blocks[:, :, :t]
            v = modmul_vec(blocks[:, :, t:], twiddle, q)
            s = modadd_vec(u, v, q)
            d = modsub_vec(u, v, q)
            blocks[:, :, :t] = s
            blocks[:, :, t:] = d
        if _METRICS.enabled:
            _METRICS.inc("math.ntt.forward", work.shape[0])
        return work.reshape(shape)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse NTT of ``a`` (last axis), bit-reversed in, natural out."""
        n, q = self.n, self.q
        a = np.ascontiguousarray(np.asarray(a, dtype=np.uint64))
        if a.shape[-1] != n:
            raise ValueError(f"last axis must have length {n}")
        shape = a.shape
        work = a.reshape(-1, n).copy()
        for m, t, twiddle in self._inv_stages:
            blocks = work.reshape(work.shape[0], m, 2 * t)
            u = blocks[:, :, :t]
            v = blocks[:, :, t:]
            s = modadd_vec(u, v, q)
            d = modmul_vec(modsub_vec(u, v, q), twiddle, q)
            blocks[:, :, :t] = s
            blocks[:, :, t:] = d
        work = modmul_vec(work, np.uint64(self._n_inv), q)
        if _METRICS.enabled:
            _METRICS.inc("math.ntt.inverse", work.shape[0])
        return work.reshape(shape)

    def pointwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficient-wise product in the transform domain (MULTPOLY)."""
        if _METRICS.enabled:
            _METRICS.inc("math.ntt.pointwise")
        return modmul_vec(a, b, self.q)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic product ``a * b mod (X^n + 1, q)`` via NTT."""
        return self.inverse(self.pointwise(self.forward(a), self.forward(b)))


class FusedLimbNtt:
    """Negacyclic NTT over a whole RNS limb stack in one butterfly sweep.

    The per-limb :class:`NegacyclicNtt` path issues ``L`` separate
    transforms per stack — ``L * log2(n)`` butterfly stages of small
    NumPy calls whose interpreter overhead dominates at CHAM's ring
    sizes.  This context stacks the merged twiddle tables of all ``L``
    moduli into contiguous ``(L, 1, m, 1)`` per-stage slabs and runs
    *one* butterfly sweep over the full ``(L, ..., n)`` stack, with the
    per-limb modulus broadcast as a ``(L, 1, 1, 1)`` column through the
    Barrett modmul.  Output is bit-identical per limb to the per-limb
    path (same butterflies, same exact arithmetic) — the equivalence
    suite pins it.

    This is the software mirror of CHAM's limb-parallel NTT lanes
    (Section III-B): all residue channels advance through the same
    stage schedule in lock-step, which is also what makes the schedule
    hazard-free in the HF-NTT sense — no cross-limb data dependencies.
    """

    def __init__(self, n: int, moduli: Tuple[int, ...]) -> None:
        if not moduli:
            raise ValueError("need at least one modulus")
        self.n = n
        self.moduli = tuple(int(q) for q in moduli)
        per_limb = [_tables(n, q) for q in self.moduli]
        psis = np.stack([t[0] for t in per_limb])
        inv_psis = np.stack([t[1] for t in per_limb])
        self._n_inv = freeze_array(
            np.array([t[2] for t in per_limb], dtype=np.uint64).reshape(-1, 1, 1)
        )
        # .copy() so the column owns its buffer: the modmul column cache
        # resolves views to their read-only root array, and a root that
        # is itself a view of a mutable temporary is not cacheable
        self._q_col = freeze_array(
            np.array(self.moduli, dtype=np.uint64).reshape(-1, 1, 1, 1).copy()
        )
        self._q_flat = freeze_array(self._q_col.reshape(-1, 1, 1))
        self._fwd_stages = _stage_slabs(psis, forward=True, fused=True)
        self._inv_stages = _stage_slabs(inv_psis, forward=False, fused=True)

    def _check(self, a: np.ndarray) -> None:
        if a.ndim < 2 or a.shape[0] != len(self.moduli) or a.shape[-1] != self.n:
            raise ValueError(
                f"expected a ({len(self.moduli)}, ..., {self.n}) limb stack, "
                f"got shape {a.shape}"
            )

    def _prepare(self, a: np.ndarray) -> Tuple[np.ndarray, Tuple[int, ...]]:
        # one C-ordered copy, whatever the input's strides: the butterflies
        # write into it in place
        work = np.array(a, dtype=np.uint64, order="C")
        self._check(work)
        return work.reshape(len(self.moduli), -1, self.n), work.shape

    def forward(self, a: np.ndarray) -> np.ndarray:
        """Forward NTT of every limb of a ``(L, ..., n)`` stack at once."""
        work, shape = self._prepare(a)
        q = self._q_col
        for m, t, twiddle in self._fwd_stages:
            blocks = work.reshape(work.shape[0], work.shape[1], m, 2 * t)
            u = blocks[:, :, :, :t]
            v = modmul_vec(blocks[:, :, :, t:], twiddle, q)
            s = modadd_vec(u, v, q)
            d = modsub_vec(u, v, q)
            blocks[:, :, :, :t] = s
            blocks[:, :, :, t:] = d
        if _METRICS.enabled:
            _METRICS.inc("math.ntt.forward", work.shape[0] * work.shape[1])
        return work.reshape(shape)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse NTT of every limb of a ``(L, ..., n)`` stack at once."""
        work, shape = self._prepare(a)
        q = self._q_col
        for m, t, twiddle in self._inv_stages:
            blocks = work.reshape(work.shape[0], work.shape[1], m, 2 * t)
            u = blocks[:, :, :, :t]
            v = blocks[:, :, :, t:]
            s = modadd_vec(u, v, q)
            d = modmul_vec(modsub_vec(u, v, q), twiddle, q)
            blocks[:, :, :, :t] = s
            blocks[:, :, :, t:] = d
        work = modmul_vec(work, self._n_inv, self._q_flat)
        if _METRICS.enabled:
            _METRICS.inc("math.ntt.inverse", work.shape[0] * work.shape[1])
        return work.reshape(shape)

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
        a = np.asarray(a, dtype=np.uint64)
        self._check(a)
        col = (-1,) + (1,) * (a.ndim - 2)
        q = self._q_col.reshape(col)
        # every slot is below q < 2**MAX_MODULUS_BITS = 2**41, so the sum
        # of n slots is below n * q < 2**64 for any n below 2**23: the
        # uint64 sum is exact
        total = a.sum(axis=-1, dtype=np.uint64) % q
        return modmul_vec(total, self._n_inv.reshape(col), q)


def _stage_slabs(table: np.ndarray, forward: bool, fused: bool = False):
    """Hoisted per-stage twiddle slabs for the butterfly loops.

    ``table`` is the merged-order twiddle vector ``(n,)`` (per-limb) or
    stack ``(L, n)`` (fused).  Returns ``[(m, t, twiddle), ...]`` in
    stage order with each ``twiddle`` a frozen contiguous array shaped
    to broadcast over ``(batch, m, t)`` butterflies (with a leading limb
    axis in the fused layout).
    """
    n = table.shape[-1]
    stages = []
    if forward:
        m, t = 1, n
        while m < n:
            t //= 2
            stages.append((m, t))
            m *= 2
    else:
        m, t = n // 2, 1
        while m >= 1:
            stages.append((m, t))
            t *= 2
            m //= 2
    out = []
    for m, t in stages:
        slab = table[..., m : 2 * m]
        shape = (-1, 1, m, 1) if fused else (1, m, 1)
        out.append(
            (m, t, freeze_array(np.ascontiguousarray(slab).reshape(shape)))
        )
    return out


@lru_cache(maxsize=None)
def _context(n: int, q: int) -> NegacyclicNtt:
    return NegacyclicNtt(n, q)


@lru_cache(maxsize=None)
def fused_limb_ntt(n: int, moduli: Tuple[int, ...]) -> FusedLimbNtt:
    """Cached :class:`FusedLimbNtt` per ``(n, moduli)`` pair."""
    return FusedLimbNtt(n, moduli)


def ntt(a: np.ndarray, q: int) -> np.ndarray:
    """Functional forward negacyclic NTT (context cached per ``(n, q)``)."""
    a = np.asarray(a, dtype=np.uint64)
    return _context(a.shape[-1], q).forward(a)


def intt(a: np.ndarray, q: int) -> np.ndarray:
    """Functional inverse negacyclic NTT."""
    a = np.asarray(a, dtype=np.uint64)
    return _context(a.shape[-1], q).inverse(a)


def negacyclic_convolution_schoolbook(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """O(n²) negacyclic convolution — the correctness oracle for the NTTs.

    ``c_k = sum_{i+j=k} a_i b_j - sum_{i+j=k+n} a_i b_j (mod q)``.
    """
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    n = a.shape[-1]
    if b.shape[-1] != n:
        raise ValueError("length mismatch")
    c = np.zeros(n, dtype=object)
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            k = i + j
            term = ai * int(b[j])
            if k < n:
                c[k] += term
            else:
                c[k - n] -= term
    return np.asarray(np.mod(c, q), dtype=np.uint64)
