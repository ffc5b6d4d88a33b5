"""The Table I PPU operations on ring polynomials in ``Z_q[X]/(X^N + 1)``.

CHAM's polynomial processing units (PPUs, Section IV-B) operate on the
coefficient vector of a polynomial; LWE ciphertext vectors share the same
storage.  The HE layer holds raw ``(L, ..., n)`` limb stacks, so these are
free functions over coefficient arrays (MODADD and MODMUL are
:func:`~repro.math.modular.modadd_vec` and
:func:`~repro.math.modular.modmul_vec`):

=============  ==========================================================
SHIFTNEG(A,s)  negacyclic circular shift (multiply by ``X^s``)
AUTOMORPH(A,k) the Galois map ``a(X) -> a(X^k)``
=============  ==========================================================
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .modular import ModulusLike, modneg_vec
from .ntt import freeze_array

__all__ = [
    "shiftneg",
    "automorph",
    "automorph_permutation",
]


def shiftneg(coeffs: np.ndarray, s: int, q: ModulusLike) -> np.ndarray:
    """SHIFTNEG of Table I: multiply by the monomial ``X^s`` in
    ``Z_q[X]/(X^N+1)``.

    A shift by ``s`` rotates the coefficients right by ``s`` positions and
    negates the ``s`` coefficients that wrap around (``X^N = -1``).
    Negative ``s`` (multiplication by ``X^{-s} = -X^{N-s}``) is supported,
    as are shifts ``>= 2N`` (period ``2N`` with a sign flip at ``N``).
    """
    a = np.asarray(coeffs, dtype=np.uint64)
    n = a.shape[-1]
    s %= 2 * n
    negate_all = s >= n
    s %= n
    if s:
        rolled = np.concatenate([a[..., n - s :], a[..., : n - s]], axis=-1)
        wrapped = np.zeros(a.shape, dtype=bool)
        wrapped[..., :s] = True
        out = np.where(wrapped, modneg_vec(rolled, q), rolled)
    else:
        out = a.copy()
    if negate_all:
        out = modneg_vec(out, q)
    return out


@lru_cache(maxsize=None)
def automorph_permutation(n: int, k: int) -> "tuple[np.ndarray, np.ndarray]":
    """Index/sign tables for AUTOMORPH (Table I).

    The Galois map ``a(X) -> a(X^k)`` sends coefficient ``i`` to position
    ``ik mod N`` with sign ``(-1)^{floor(ik / N)}`` (because ``X^N = -1``).
    ``k`` must be odd so the map is a ring automorphism.

    Returns ``(src, flip)`` such that ``out[j] = ±a[src[j]]`` with the sign
    negative where ``flip[j]`` is ``True``.
    """
    if k % 2 == 0:
        raise ValueError(f"automorphism index k={k} must be odd")
    k %= 2 * n
    # index arithmetic, not residues: values < 2n * n << 2**63
    idx = (np.arange(n, dtype=np.int64) * k) % (2 * n)  # repro: noqa REPRO101
    dest = idx % n
    neg = idx >= n
    src = np.empty(n, dtype=np.int64)
    flip = np.empty(n, dtype=bool)
    src[dest] = np.arange(n)
    flip[dest] = neg
    return freeze_array(src), freeze_array(flip)


def automorph(coeffs: np.ndarray, k: int, q: ModulusLike) -> np.ndarray:
    """AUTOMORPH of Table I: ``a_i -> (-1)^{floor(ik/N)} a_{ik mod N}``."""
    a = np.asarray(coeffs, dtype=np.uint64)
    src, flip = automorph_permutation(a.shape[-1], k)
    out = a[..., src]
    return np.where(flip, modneg_vec(out, q), out)
