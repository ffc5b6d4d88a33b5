"""CKKS (approximate-arithmetic) scheme over the CHAM rings.

The paper's introduction motivates *multi-scheme* accelerators: "different
HE schemes (i.e., B/FV, CKKS, and TFHE) may compose a hybrid scheme" and
CHAM "supports not only traditional HE operations, but also different
types of ciphertexts and the conversion between them."  This module adds
a CKKS instantiation that runs on exactly the same substrate as the BFV
scheme — same rings, same moduli, same NTT units, same key-switching and
PACKLWES machinery — demonstrating the hardware-sharing argument:

* a CKKS ciphertext is the same ``(c0, c1)`` RNS pair; only the message
  embedding differs (``round(scale * m)`` instead of ``round(M/t * m)``);
* the DOTPRODUCT pipeline (NTT -> MULTPOLY -> INTT -> RESCALE) is reused
  verbatim, with RESCALE dividing the *scale* by ``p``;
* EXTRACTLWES / PACKLWES are message-agnostic RLWE operations, so packed
  CKKS dot products work with the same Galois keys.

Two encoders are provided: the *coefficient* encoder (fixed-point reals
in polynomial coefficients — the HMVP-compatible layout, Eq. 1 style)
and the *canonical-embedding slot* encoder (classic CKKS SIMD over
``n/2`` complex slots, implemented with an explicit Vandermonde of the
odd powers of ``ξ = exp(iπ/n)``; fine for the ring sizes this library
targets — it is a functional model, not a performance kernel).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from ..math.modular import modadd_vec, modmul_vec, modneg_vec
from .context import CheContext
from .keys import (
    GaloisKeyset,
    SecretKey,
    generate_galois_keyset,
    generate_secret_key,
    pack_galois_elements,
)
from .params import CheParams, cham_params
from .rlwe import RlweCiphertext

__all__ = ["CkksCiphertext", "CkksSlotEncoder", "CkksScheme"]


@dataclass
class CkksCiphertext:
    """An RLWE pair plus its tracked scale (and an encoding tag)."""

    ct: RlweCiphertext
    scale: float
    #: "coeff" (fixed point in coefficients) or "slot" (canonical embedding)
    encoding: str = "coeff"

    @property
    def is_augmented(self) -> bool:
        return self.ct.is_augmented

    def __add__(self, other: "CkksCiphertext") -> "CkksCiphertext":
        if abs(self.scale - other.scale) > 1e-6 * self.scale:
            raise ValueError(
                f"scale mismatch: {self.scale} vs {other.scale}"
            )
        if self.encoding != other.encoding:
            raise ValueError("encoding mismatch")
        return CkksCiphertext(self.ct + other.ct, self.scale, self.encoding)

    def __sub__(self, other: "CkksCiphertext") -> "CkksCiphertext":
        if abs(self.scale - other.scale) > 1e-6 * self.scale:
            raise ValueError("scale mismatch")
        return CkksCiphertext(self.ct - other.ct, self.scale, self.encoding)

    def __neg__(self) -> "CkksCiphertext":
        return CkksCiphertext(-self.ct, self.scale, self.encoding)


@lru_cache(maxsize=None)
def _embedding_matrix(n: int) -> np.ndarray:
    """Vandermonde of the canonical embedding: row j evaluates at
    ``ξ^(4j+1)`` (one representative per conjugate pair), ξ = exp(iπ/n)."""
    xi = np.exp(1j * np.pi / n)
    exponents = (4 * np.arange(n // 2) + 1) % (2 * n)
    points = xi ** exponents
    return np.vander(points, n, increasing=True)


class CkksSlotEncoder:
    """Canonical-embedding encoder: ``n/2`` complex slots."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.slots = n // 2

    def encode(self, values: Sequence[complex], scale: float) -> np.ndarray:
        """Complex slot values -> integer polynomial coefficients."""
        vals = np.asarray(values, dtype=np.complex128)
        if vals.shape[0] > self.slots:
            raise ValueError(f"{vals.shape[0]} values exceed {self.slots} slots")
        padded = np.zeros(self.slots, dtype=np.complex128)
        padded[: vals.shape[0]] = vals
        # invert the embedding: coeffs = Re( V^H z ) * 2 / n  (conjugate
        # pairs contribute twice the real part)
        v = _embedding_matrix(self.n)
        coeffs = np.real(v.conj().T @ padded) * (2.0 / self.n)
        return np.rint(coeffs * scale).astype(np.int64)

    def decode(self, coeffs: Sequence[float], scale: float, count: int) -> np.ndarray:
        """Integer (or real) coefficients -> complex slot values."""
        v = _embedding_matrix(self.n)
        z = v @ (np.asarray(coeffs, dtype=np.float64) / scale)
        return z[:count]


class CkksScheme:
    """CKKS over the CHAM substrate, sharing keys with a BFV instance.

    Parameters
    ----------
    params:
        Same parameter family as BFV (the plaintext modulus is unused).
    default_scale:
        Message scale Δ for fresh encryptions (2**30 fits one rescale:
        after a plaintext product at scale Δ² ≈ 2**60 < Qp, RESCALE by the
        39-bit ``p`` returns to ≈ 2**21).
    shared_secret:
        Reuse another scheme's secret key — the multi-scheme deployment
        the paper targets, where conversions need a common key.
    """

    def __init__(
        self,
        params: Optional[CheParams] = None,
        seed: Optional[int] = None,
        default_scale: float = float(2**30),
        shared_secret: Optional[SecretKey] = None,
        max_pack: Optional[int] = None,
    ) -> None:
        self.params = params if params is not None else cham_params()
        self.ctx = CheContext(self.params, seed)
        self.default_scale = default_scale
        self.secret_key = (
            shared_secret if shared_secret is not None else generate_secret_key(self.ctx)
        )
        elements = pack_galois_elements(self.params.n, max_count=max_pack)
        self.galois_keys: GaloisKeyset = generate_galois_keyset(
            self.ctx, self.secret_key, elements
        )
        self.slot_encoder = CkksSlotEncoder(self.params.n)

    # -- encryption of integer-scaled messages --------------------------------------

    def _encrypt_int_coeffs(
        self, scaled: np.ndarray, augmented: bool, scale: float, encoding: str
    ) -> CkksCiphertext:
        ctx = self.ctx
        basis = ctx.aug_basis if augmented else ctx.ct_basis
        a = ctx.sample_uniform(basis)
        e = ctx.signed_to_limbs(ctx.sample_error_signed(), basis)
        s = self.secret_key.limbs(ctx, basis)
        a_s = ctx.negacyclic_multiply(a, s, basis)
        m_limbs = ctx.limbs_for(np.asarray(scaled, dtype=object), basis)
        c0 = np.stack(
            [
                modadd_vec(modadd_vec(modneg_vec(a_s[i], q), e[i], q), m_limbs[i], q)
                for i, q in enumerate(basis)
            ]
        )
        return CkksCiphertext(
            RlweCiphertext(ctx, basis, c0, a), scale, encoding
        )

    def encrypt_coeffs(
        self,
        values: Sequence[float],
        scale: Optional[float] = None,
        augmented: bool = True,
    ) -> CkksCiphertext:
        """Fixed-point reals placed directly in coefficients (HMVP layout)."""
        scale = scale or self.default_scale
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape[0] > self.params.n:
            raise ValueError("too many values for the ring degree")
        scaled = np.zeros(self.params.n, dtype=np.int64)
        scaled[: vals.shape[0]] = np.rint(vals * scale).astype(np.int64)
        return self._encrypt_int_coeffs(scaled, augmented, scale, "coeff")

    def encrypt_slots(
        self,
        values: Sequence[complex],
        scale: Optional[float] = None,
        augmented: bool = False,
    ) -> CkksCiphertext:
        """Classic CKKS SIMD encryption over the canonical embedding."""
        scale = scale or self.default_scale
        scaled = self.slot_encoder.encode(values, scale)
        return self._encrypt_int_coeffs(scaled, augmented, scale, "slot")

    # -- decryption --------------------------------------------------------------------

    def decrypt_raw(self, ct: CkksCiphertext) -> np.ndarray:
        """Centered phase as float64 (the scaled real message)."""
        phase = ct.ct.phase(self.secret_key)
        return np.array([float(int(v)) for v in phase])

    def decrypt_coeffs(self, ct: CkksCiphertext, count: int) -> np.ndarray:
        if ct.encoding != "coeff":
            raise ValueError("ciphertext is slot-encoded")
        return self.decrypt_raw(ct)[:count] / ct.scale

    # -- homomorphic operations ------------------------------------------------------------

    def _multiply_scaled_poly(
        self, ct: CkksCiphertext, scaled: np.ndarray, scale: float
    ) -> CkksCiphertext:
        ctx = self.ctx
        basis = ct.ct.basis
        limbs = ctx.limbs_for(np.asarray(scaled, dtype=object), basis)
        pt_ntt = ctx.ntt_limbs(limbs, basis)
        comps = []
        for comp in (ct.ct.c0, ct.ct.c1):
            comp_ntt = ctx.ntt_limbs(comp, basis)
            prod = np.stack(
                [modmul_vec(comp_ntt[i], pt_ntt[i], q) for i, q in enumerate(basis)]
            )
            comps.append(ctx.intt_limbs(prod, basis))
        out = RlweCiphertext(ctx, basis, comps[0], comps[1])
        return CkksCiphertext(out, ct.scale * scale, ct.encoding)

    def rescale(self, ct: CkksCiphertext) -> CkksCiphertext:
        """Stage-4 RESCALE: divide ciphertext and scale by ``p``."""
        if not ct.is_augmented:
            raise ValueError("rescale applies to augmented ciphertexts")
        res = ct.ct.rescale()
        return CkksCiphertext(
            res, ct.scale / self.params.special_modulus, ct.encoding
        )

    # -- the CHAM pipeline for CKKS ----------------------------------------------------------

    def dot_product(
        self, ct: CkksCiphertext, row: Sequence[float], scale: Optional[float] = None
    ) -> CkksCiphertext:
        """Coefficient-encoded dot product (Eq. 1/2 applied to reals).

        The constant coefficient of the result encodes ``<row, v>`` at
        scale ``ct.scale * scale / p`` after the rescale.
        """
        if ct.encoding != "coeff":
            raise ValueError("dot products use the coefficient encoding")
        scale = scale or self.default_scale
        row = np.asarray(row, dtype=np.float64)
        n = self.params.n
        if row.shape[0] > n:
            raise ValueError("row longer than ring degree")
        coeffs = np.zeros(n, dtype=np.int64)
        coeffs[0] = int(np.rint(row[0] * scale))
        if row.shape[0] > 1:
            rev = np.rint(row[1:] * scale).astype(np.int64)
            coeffs[n - (row.shape[0] - 1):] = -rev[::-1]
        prod = self._multiply_scaled_poly(ct, coeffs, scale)
        return self.rescale(prod) if prod.is_augmented else prod

    def extract_and_pack(
        self, cts: Sequence[CkksCiphertext]
    ) -> "tuple[CkksCiphertext, int]":
        """EXTRACTLWES + PACKLWES on CKKS dot-product results.

        Returns the packed ciphertext and the slot stride; the pack
        doubles the message per level, which for CKKS is plain scale
        bookkeeping (scale *= 2**levels).
        """
        from .lwe import extract_lwe
        from .packing import pack_lwes

        if not cts:
            raise ValueError("nothing to pack")
        scale = cts[0].scale
        for c in cts:
            if abs(c.scale - scale) > 1e-6 * scale:
                raise ValueError("pack inputs must share a scale")
        lwes = [extract_lwe(c.ct, 0) for c in cts]
        packed = pack_lwes(lwes, self.galois_keys)
        out_scale = scale * (1 << packed.scale_pow2)
        return (
            CkksCiphertext(packed.ct, out_scale, "coeff"),
            self.params.n >> packed.scale_pow2,
        )

    def decrypt_packed(
        self, ct: CkksCiphertext, count: int, stride: int
    ) -> np.ndarray:
        raw = self.decrypt_raw(ct)
        return raw[: count * stride : stride] / ct.scale
