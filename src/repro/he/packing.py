"""PACKTWOLWES / PACKLWES — Algorithms 2 and 3 of the paper.

``pack_lwes`` folds ``m`` LWE ciphertexts (each holding a dot-product
result in its constant coefficient, Eq. 3 form) into a *single* RLWE
ciphertext whose plaintext carries value ``i`` at coefficient
``i * N / 2**ceil(log2 m)``.

The merge at level ``k`` (combining two packs of ``2**(k-1)`` into one of
``2**k``) is Algorithm 2:

1. ``ct_mono = ct_odd * X^(N / 2**k)``             (MULTMONO)
2. ``ct_plus = ct_even + ct_mono``                 (MODADD)
3. ``ct_minus = ct_even - ct_mono``                (MODSUB)
4. ``ct_auto = automorph(ct_minus, g = 2**k + 1)`` (AUTOMORPH)
5. ``return ct_plus + keyswitch(ct_auto)``         (KEYSWITCH)

Correctness: the Galois element ``g = 2**k + 1`` maps slot position
``j * N / 2**k`` to itself with sign ``(-1)^j``, so the sum keeps the even
slots from ``ct_plus`` and the odd slots from ``ct_mono`` — doubling every
slot.  A full pack therefore scales the packed messages by
``2**ceil(log2 m)``; the factor is removed *after decryption*, mod the odd
plaintext modulus ``t`` (see ``CoefficientEncoder.decode_packed``), at the
cost of ``ceil(log2 m)`` bits of noise budget.

Packing 4096 rows issues exactly 4095 PACKTWOLWES reductions — the binary
tree the paper's reduce buffer walks (Section III-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .. import obs
from ..math.modular import modadd_vec, modneg_vec, modsub_vec
from ..math.polynomial import automorph, shiftneg
from ..math.rns import RnsBasis
from .context import CheContext
from .keys import GaloisKeyset
from .keyswitch import key_switch_raw
from .lwe import LweCiphertext
from .rlwe import RlweCiphertext

__all__ = [
    "STACK_COEFFS",
    "PackedResult",
    "pack_lwes",
    "pack_stacked_lwes",
]

#: Coefficients one stacked kernel call is sized to touch.  PACKLWES
#: key-switches ``max(1, STACK_COEFFS // (requests * n))`` pairs per call,
#: and the HMVP engine (:class:`repro.core.batch.BatchedHmvp`) runs a
#: batch in request groups of ``max(1, STACK_COEFFS // (rows * n))``.
#: Small rings stack many requests per pass (interpreter dispatch
#: dominates there); at ``N = 4096`` a group is one request and a slice
#: two pairs, which keeps the key-switch digit stacks cache-sized.
STACK_COEFFS = 8192


@dataclass
class PackedResult:
    """A packed RLWE ciphertext plus its bookkeeping.

    Attributes
    ----------
    ct:
        The packed ciphertext (normal basis).
    count:
        Number of source LWE ciphertexts (before zero-padding).
    scale_pow2:
        The pack multiplied every message by ``2**scale_pow2``.
    reductions:
        Number of PACKTWOLWES invocations performed (paper: ``m - 1`` for
        a power-of-two ``m``).
    """

    ct: RlweCiphertext
    count: int
    scale_pow2: int
    reductions: int


def pack_lwes(
    lwes: Sequence[LweCiphertext],
    galois_keys: GaloisKeyset,
) -> PackedResult:
    """Algorithm 3: pack ``m`` LWE ciphertexts into one RLWE ciphertext.

    The list-of-LWE adapter over :func:`pack_stacked_lwes` (what
    :meth:`repro.he.bfv.BfvScheme.pack` and the CKKS slot pack call).
    Inputs are zero-padded to the next power of two with transparent
    zero ciphertexts, which is exact (zero message, zero noise).
    """
    if not lwes:
        raise ValueError("nothing to pack")
    for lwe in lwes:
        if lwe.basis.moduli != lwes[0].basis.moduli:
            raise ValueError("LWE basis mismatch")
    return pack_stacked_lwes(
        lwes[0].ctx,
        lwes[0].basis,
        np.stack([lwe.b for lwe in lwes], axis=1),
        np.stack([lwe.a for lwe in lwes], axis=1),
        galois_keys,
    )


def pack_stacked_lwes(
    ctx: CheContext,
    basis: RnsBasis,
    b: np.ndarray,
    a: np.ndarray,
    galois_keys: GaloisKeyset,
) -> PackedResult:
    """PACKLWES over pre-stacked LWE components of one request.

    ``b`` has shape ``(L, m)`` and ``a`` has shape ``(L, m, n)`` — the
    layout the vectorized extract produces, so callers never
    materialize per-row :class:`LweCiphertext` objects.
    """
    return _pack_tree(
        ctx, basis, b[:, np.newaxis], a[:, np.newaxis], galois_keys
    )[0]


def _pack_tree(
    ctx: CheContext,
    basis: RnsBasis,
    b: np.ndarray,
    a: np.ndarray,
    galois_keys: GaloisKeyset,
) -> List[PackedResult]:
    """The PACKLWES tree over ``R`` requests stacked in lock-step.

    ``b`` has shape ``(L, R, m)`` and ``a`` shape ``(L, R, m, n)``; one
    pack of ``m`` LWEs comes back per request.  The recursion of
    Algorithm 3 is a perfect binary tree whose merges at level ``k``
    all share the Galois element ``g = 2**k + 1`` and monomial stride
    ``n >> k``, so a level is a run of stacked ``(L, R, pairs, n)``
    SHIFTNEG / AUTOMORPH passes plus batched key-switches.  Iterating
    levels ``1..log2(m)`` with ``next[r] = merge(k, cur[r], cur[r + half])``
    reproduces the recursion's parity splits, so every output is
    byte-for-byte the recursive pack of that request alone.

    A level runs in slices of ``max(1, STACK_COEFFS // (R * n))`` pairs
    per key-switch call, so each slice's digit stack stays cache-sized:
    at ``N = 4096`` a whole-level call runs slower than one call per
    pair.
    """
    if b.ndim != 3:
        raise ValueError(f"expected (L, R, m) stacked b, got shape {b.shape}")
    nlimbs, reqs, count = b.shape
    n = ctx.n
    if a.shape != (nlimbs, reqs, count, n) or nlimbs != len(basis):
        raise ValueError(f"stacked LWE shapes {b.shape} / {a.shape} mismatch")
    if count < 1 or reqs < 1:
        raise ValueError("nothing to pack")
    levels = max(count - 1, 0).bit_length()
    target = 1 << levels
    if target > n:
        raise ValueError(f"cannot pack {count} > ring degree {n}")
    q_col = basis.modulus_column.reshape(-1, 1, 1, 1)
    per_call = max(1, STACK_COEFFS // (reqs * n))

    with obs.span("PACK", count=count, levels=levels, requests=reqs):
        # Eq. 3 embedding for every request at once, zero-padded to the
        # next power of two (transparent zero ciphertexts, exact)
        c0 = np.zeros((nlimbs, reqs, target, n), dtype=np.uint64)
        c1 = np.zeros((nlimbs, reqs, target, n), dtype=np.uint64)
        c0[:, :, :count, 0] = b
        c1[:, :, :count, 0] = a[..., 0]
        c1[:, :, :count, 1:] = modneg_vec(a[..., :0:-1], q_col)
        for k in range(1, levels + 1):
            half = c0.shape[2] // 2
            with obs.span("PACK.level", level=k, pairs=half, requests=reqs):
                stride = n >> k
                g = (1 << k) + 1
                ksk = galois_keys[g]
                obs.inc("he.pack.reductions", half * reqs)
                n0 = np.empty((nlimbs, reqs, half, n), dtype=np.uint64)
                n1 = np.empty((nlimbs, reqs, half, n), dtype=np.uint64)
                for lo in range(0, half, per_call):
                    ev = slice(lo, min(lo + per_call, half))
                    od = slice(half + lo, half + ev.stop)
                    e0, e1 = c0[:, :, ev], c1[:, :, ev]
                    mono0 = shiftneg(c0[:, :, od], stride, q_col)
                    mono1 = shiftneg(c1[:, :, od], stride, q_col)
                    auto0 = automorph(modsub_vec(e0, mono0, q_col), g, q_col)
                    auto1 = automorph(modsub_vec(e1, mono1, q_col), g, q_col)
                    d0, d1 = key_switch_raw(ctx, auto1, ksk)
                    n0[:, :, ev] = modadd_vec(
                        modadd_vec(e0, mono0, q_col),
                        modadd_vec(auto0, d0, q_col),
                        q_col,
                    )
                    n1[:, :, ev] = modadd_vec(
                        modadd_vec(e1, mono1, q_col), d1, q_col
                    )
                c0, c1 = n0, n1
        packs = [
            PackedResult(
                ct=RlweCiphertext(
                    ctx,
                    basis,
                    np.ascontiguousarray(c0[:, r, 0]),
                    np.ascontiguousarray(c1[:, r, 0]),
                ),
                count=count,
                scale_pow2=levels,
                reductions=target - 1,
            )
            for r in range(reqs)
        ]
    obs.inc("he.pack.calls", reqs)
    return packs
