"""LWE ciphertexts and RLWE↔LWE conversion (EXTRACTLWES, Eq. 3).

An LWE ciphertext under the RLWE secret's coefficient vector
``s = (s_0, ..., s_{N-1})`` is a pair ``(b, a_vec)`` with

``b + <a_vec, s> = Δ m + e   (mod Q)``.

*SampleExtract* pulls coefficient ``idx`` of an RLWE plaintext out as an
LWE ciphertext for free (a reindexing with signs).  The inverse direction,
:func:`lwe_to_rlwe`, is the Eq. 3 embedding: the LWE vector becomes the
``a`` polynomial of an RLWE ciphertext whose *constant* plaintext
coefficient equals the LWE message (all other coefficients are garbage) —
exactly the form PACKLWES consumes.  For ``idx = 0`` the two maps are
mutually inverse, which the test-suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..math.modular import modadd_vec, modneg_vec
from ..math.rns import RnsBasis
from .context import CheContext
from .keys import SecretKey
from .rlwe import RlweCiphertext

__all__ = ["LweCiphertext", "extract_lwe", "lwe_to_rlwe", "decrypt_lwe"]


@dataclass
class LweCiphertext:
    """An LWE ciphertext in RNS form.

    Attributes
    ----------
    basis:
        RNS basis of the modulus ``Q``.
    b:
        Shape ``(L,)`` — the scalar part, one residue per limb.
    a:
        Shape ``(L, n)`` — the mask vector, per limb.
    """

    ctx: CheContext
    basis: RnsBasis
    b: np.ndarray
    a: np.ndarray

    def __post_init__(self) -> None:
        self.b = np.asarray(self.b, dtype=np.uint64)
        self.a = np.asarray(self.a, dtype=np.uint64)
        if self.b.shape != (len(self.basis),):
            raise ValueError(f"b shape {self.b.shape} != ({len(self.basis)},)")
        if self.a.shape != (len(self.basis), self.ctx.n):
            raise ValueError(
                f"a shape {self.a.shape} != ({len(self.basis)}, {self.ctx.n})"
            )

    def __add__(self, other: "LweCiphertext") -> "LweCiphertext":
        if self.basis.moduli != other.basis.moduli:
            raise ValueError("LWE basis mismatch")
        b = np.concatenate(
            [
                modadd_vec(self.b[i : i + 1], other.b[i : i + 1], q)
                for i, q in enumerate(self.basis)
            ]
        )
        a = np.stack(
            [modadd_vec(self.a[i], other.a[i], q) for i, q in enumerate(self.basis)]
        )
        return LweCiphertext(self.ctx, self.basis, b, a)


def extract_lwe(ct: RlweCiphertext, idx: int = 0) -> LweCiphertext:
    """SampleExtract: LWE encryption of plaintext coefficient ``idx``.

    From ``(c0, c1)`` with negacyclic convolution,

    ``(c1 * s)_idx = sum_{j<=idx} c1_{idx-j} s_j - sum_{j>idx} c1_{N+idx-j} s_j``

    so ``a_vec[j] = c1[idx-j]`` for ``j <= idx`` and ``-c1[N+idx-j]``
    otherwise, and ``b = c0[idx]``.  Purely data movement — the EXTRACTLWES
    unit shares pipeline stage 4 with RESCALE precisely because it is this
    cheap (Section III-A).
    """
    ctx = ct.ctx
    n = ctx.n
    if not 0 <= idx < n:
        raise ValueError(f"coefficient index {idx} out of range")
    b = ct.c0[:, idx].copy()
    a = np.empty_like(ct.c1)
    j = np.arange(n)
    src = np.where(j <= idx, idx - j, n + idx - j)
    neg_mask = j > idx
    for i, q in enumerate(ct.basis):
        row = ct.c1[i][src]
        row = np.where(neg_mask, modneg_vec(row, q), row)
        a[i] = row
    return LweCiphertext(ctx, ct.basis, b, a)


def lwe_to_rlwe(lwe: LweCiphertext) -> RlweCiphertext:
    """Eq. 3: embed an LWE ciphertext as an RLWE ciphertext.

    The output ``(u_0, ã(X))`` has the LWE message in the constant
    coefficient of its plaintext and garbage elsewhere:
    ``ã_0 = a_vec[0]`` and ``ã_k = -a_vec[N-k]`` for ``k >= 1``.
    """
    ctx = lwe.ctx
    n = ctx.n
    c0 = np.zeros((len(lwe.basis), n), dtype=np.uint64)
    c0[:, 0] = lwe.b
    c1 = np.empty((len(lwe.basis), n), dtype=np.uint64)
    for i, q in enumerate(lwe.basis):
        row = np.empty(n, dtype=np.uint64)
        row[0] = lwe.a[i][0]
        row[1:] = modneg_vec(lwe.a[i][:0:-1], q)
        c1[i] = row
    return RlweCiphertext(ctx, lwe.basis, c0, c1)


def decrypt_lwe(ctx: CheContext, sk: SecretKey, lwe: LweCiphertext) -> int:
    """Decrypt a single LWE ciphertext to a centered value mod ``t``."""
    s = sk.limbs(ctx, lwe.basis)
    phase_limbs = []
    for i, q in enumerate(lwe.basis):
        dot = int(
            (lwe.a[i].astype(object) * s[i].astype(object)).sum() % q
        )
        phase_limbs.append((int(lwe.b[i]) + dot) % q)
    # CRT-compose the scalar phase
    modulus = lwe.basis.product
    phase = 0
    for i, q in enumerate(lwe.basis):
        # scalar Python-int CRT weights: exact at any width
        raw = lwe.basis.punctured_inv[i] * lwe.basis.punctured[i]
        weight = raw % modulus
        phase = (phase + phase_limbs[i] * weight) % modulus
    if phase > modulus // 2:
        phase -= modulus
    t = ctx.t
    m = (2 * phase * t + modulus) // (2 * modulus) % t
    return int(m - t) if m > t // 2 else int(m)
