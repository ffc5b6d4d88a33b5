"""Residue number system (RNS) support.

CHAM keeps every polynomial in a *limb-decomposed* form: one residue
vector per prime modulus, so that all arithmetic stays word-sized
(Section II-F: ciphertexts live mod ``Q = q0*q1``; the *augmented* form
adds the 39-bit special modulus ``p``).  This module provides:

* :class:`RnsBasis` — an ordered tuple of NTT-friendly primes with cached
  CRT constants;
* exact CRT composition (bigint, the correctness oracle);
* *fast base extension* (approximate CRT with a float64-computed overflow
  count, the technique hardware uses to avoid bigints) — cross-checked
  against the exact path in the property tests;
* RNS *rescale*: divide-and-round by the last modulus, the stage-4
  operation of the CHAM pipeline (and the core of hybrid key-switching).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence, Tuple

import numpy as np

from .modular import modadd_vec, modinv, modmul_vec, modsub_vec, reduce_signed_vec
from .primes import is_ntt_friendly

__all__ = ["RnsBasis"]


@dataclass(frozen=True)
class RnsBasis:
    """An ordered basis of pairwise-distinct NTT-friendly primes.

    Parameters
    ----------
    moduli:
        The primes ``(q_0, ..., q_{L-1})``.
    n:
        Ring degree each modulus must support (``q_i ≡ 1 mod 2n``).
    """

    moduli: Tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if len(set(self.moduli)) != len(self.moduli):
            raise ValueError("RNS moduli must be distinct")
        for q in self.moduli:
            if not is_ntt_friendly(q, self.n):
                raise ValueError(f"{q} is not an NTT-friendly prime for n={self.n}")

    # -- cached CRT constants ------------------------------------------------

    @cached_property
    def product(self) -> int:
        """``Q = prod(q_i)``."""
        out = 1
        for q in self.moduli:
            out *= q
        return out

    @cached_property
    def punctured(self) -> Tuple[int, ...]:
        """``Q_i = Q / q_i``."""
        return tuple(self.product // q for q in self.moduli)

    @cached_property
    def punctured_inv(self) -> Tuple[int, ...]:
        """``Q_i^{-1} mod q_i`` (the CRT reconstruction weights)."""
        return tuple(
            modinv(qi_hat % qi, qi)
            for qi_hat, qi in zip(self.punctured, self.moduli)
        )

    @cached_property
    def modulus_column(self) -> np.ndarray:
        """The moduli as a frozen ``(L,)`` ``uint64`` array.

        Callers reshape it into a broadcast column (``(L, 1, ..., 1)``)
        for the fused-limb kernels that carry one modulus per slice.
        """
        col = np.array(self.moduli, dtype=np.uint64)
        col.flags.writeable = False
        return col

    @cached_property
    def _rescale_constants(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-limb constants of :meth:`rescale_last`, precomputed once.

        ``(q, p^{-1} mod q, (q - p mod q))`` for each retained modulus
        ``q`` — the values the old per-limb loop recomputed on every
        call (including a Python ``modinv``).
        """
        p = self.moduli[-1]
        qs = np.array(self.moduli[:-1], dtype=np.uint64)
        p_inv = np.array(
            [modinv(p % q, q) for q in self.moduli[:-1]], dtype=np.uint64
        )
        p_neg = np.array(
            [q - p % q for q in self.moduli[:-1]], dtype=np.uint64
        )
        for arr in (qs, p_inv, p_neg):
            arr.flags.writeable = False
        return qs, p_inv, p_neg

    def __len__(self) -> int:
        return len(self.moduli)

    def __iter__(self) -> Iterator[int]:
        return iter(self.moduli)

    def extend(self, extra: Sequence[int]) -> "RnsBasis":
        return RnsBasis(self.moduli + tuple(extra), self.n)

    # -- conversions -----------------------------------------------------------

    def compose(self, residues: np.ndarray) -> np.ndarray:
        """Residue stack ``(L, ...)`` -> exact integers in ``[0, Q)``.

        Bigint path (object dtype); used at API boundaries and as the
        oracle for the fast paths.
        """
        residues = np.asarray(residues)
        if residues.shape[0] != len(self.moduli):
            raise ValueError("leading axis must index the RNS limbs")
        acc = np.zeros(residues.shape[1:], dtype=object)
        for i, q in enumerate(self.moduli):
            # documented bigint oracle path: Python-int / object-dtype
            # arithmetic, exact at any width
            raw = self.punctured_inv[i] * self.punctured[i]
            weight = raw % self.product
            acc = (acc + residues[i].astype(object) * weight) % self.product
        return acc

    def compose_centered(self, residues: np.ndarray) -> np.ndarray:
        """Like :meth:`compose` but lifted to ``(-Q/2, Q/2]`` (object ints)."""
        vals = self.compose(residues)
        half = self.product // 2
        return np.where(vals > half, vals - self.product, vals)

    # -- fast base extension ---------------------------------------------------

    def extend_to(self, residues: np.ndarray, targets: Sequence[int]) -> np.ndarray:
        """Fast base extension of centered values to additional moduli.

        Given residues of ``x mod Q`` (interpreted centered, i.e. as the
        representative in ``(-Q/2, Q/2]``), compute ``x mod t`` for each
        target ``t`` **without bigints**: the float-corrected CRT of
        Halevi-Polyakov-Shoup.  With word-sized limbs the fractional
        accumulator ``sum(y_i / q_i)`` is exact to ~2^-18, far below the
        0.5 decision threshold except for adversarially-close inputs,
        which random ciphertexts avoid; the exact path exists for
        cross-checking.

        Returns shape ``(len(targets), ...)``.
        """
        residues = np.asarray(residues, dtype=np.uint64)
        if residues.shape[0] != len(self.moduli):
            raise ValueError("leading axis must index the RNS limbs")
        # y_i = [x * Q_i^{-1}]_{q_i}
        ys = np.stack(
            [
                modmul_vec(residues[i], np.uint64(self.punctured_inv[i]), q)
                for i, q in enumerate(self.moduli)
            ]
        )
        # v = round(sum y_i / q_i): how many multiples of Q the CRT sum
        # overshoots by (centered convention -> round, not floor).
        frac = sum(
            ys[i].astype(np.float64) / float(q) for i, q in enumerate(self.moduli)
        )
        v = np.rint(frac).astype(np.int64)
        out = []
        for t in targets:
            acc = np.zeros(residues.shape[1:], dtype=np.uint64)
            for i, q in enumerate(self.moduli):
                term = modmul_vec(
                    ys[i] % np.uint64(t), np.uint64(self.punctured[i] % t), t
                )
                acc = (acc + term) % np.uint64(t)
            correction = modmul_vec(
                reduce_signed_vec(v, t), np.uint64(self.product % t), t
            )
            out.append(modsub_vec(acc, correction, t))
        return np.stack(out)

    def extend_to_exact(self, residues: np.ndarray, targets: Sequence[int]) -> np.ndarray:
        """Bigint oracle for :meth:`extend_to` (centered convention)."""
        vals = self.compose_centered(residues)
        return np.stack(
            [np.asarray(np.mod(vals, t), dtype=np.uint64) for t in targets]
        )

    # -- rescale ----------------------------------------------------------------

    def rescale_last(self, residues: np.ndarray) -> np.ndarray:
        """Divide-and-round by the last modulus, entirely in RNS.

        Given ``x mod (q_0...q_{L-2}, p)`` (``p`` the last modulus), return
        residues of ``round(x / p)`` in the basis without ``p``:

        ``round(x/p) ≡ (x - [x]_p) * p^{-1} (mod q_i)``

        with ``[x]_p`` the *centered* remainder so the division rounds to
        nearest.  This is CHAM's stage-4 RESCALE and the final step of
        hybrid key-switching.
        """
        residues = np.asarray(residues, dtype=np.uint64)
        if residues.shape[0] != len(self.moduli):
            raise ValueError("leading axis must index the RNS limbs")
        p = self.moduli[-1]
        xp = residues[-1]
        half = np.uint64(p // 2)
        # one broadcast pass over every retained limb at once — the
        # ``(L-1, *batch, n)`` stack is what the fused key-switch and the
        # batched dot/rescale/extract kernels hand in
        qs, p_inv, p_neg = self._rescale_constants
        col = (len(self.moduli) - 1,) + (1,) * (residues.ndim - 1)
        q_col = qs.reshape(col)
        # centered remainder of x mod p, reduced into [0, q): a value
        # above p/2 means the negative representative xp - p
        xq = xp[np.newaxis] % q_col
        rem = np.where(
            xp[np.newaxis] > half,
            modadd_vec(xq, p_neg.reshape(col), q_col),
            xq,
        )
        diff = modsub_vec(residues[:-1], rem, q_col)
        return modmul_vec(diff, p_inv.reshape(col), q_col)

