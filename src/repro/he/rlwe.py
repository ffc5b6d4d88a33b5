"""RLWE ciphertexts and the basic homomorphic operations.

A ciphertext is the pair ``(b, a) = (c0, c1)`` with decryption invariant

``c0 + c1 * s  =  round(M * m / t) + e   (mod M)``

where ``M`` is the basis product — ``Q = q0*q1`` in the *normal* basis and
``Qp`` in the *augmented* basis.  The message is embedded with the *exact*
scale ``M/t`` (per-coefficient rounding) rather than ``floor(M/t)``; this
is the scale-invariant BFV-RNS encoding and avoids the classical
``m * (M mod t) / M`` invariant-noise term, which for CHAM's production
plaintext modulus (``t ≈ 2**40`` against ``Q ≈ 2**70``) would otherwise
dominate the budget.

The augmented form is the one CHAM's DOTPRODUCT stage consumes (six
polynomials); after the plaintext product, the stage-4 RESCALE divides by
``p``, returning a normal-basis ciphertext (four polynomials) and, in the
same sweep, knocking the multiplication noise down (the paper's
30 bit → 26 bit claim, measured in ``benchmarks/bench_noise.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import obs
from ..math.modular import (
    modadd_vec,
    modmul_vec,
    modneg_vec,
    modsub_vec,
)
from ..math.polynomial import automorph
from ..math.rns import RnsBasis
from .context import CheContext
from .encoder import Plaintext
from .keys import PublicKey, SecretKey

__all__ = [
    "RlweCiphertext",
    "encrypt",
    "encrypt_pk",
    "decrypt",
    "plaintext_limbs",
    "scaled_plaintext_limbs",
]


def plaintext_limbs(ctx: CheContext, pt: Plaintext, basis: RnsBasis) -> np.ndarray:
    """Reduce the *centered* plaintext coefficients into each limb.

    Centering matters: a coefficient ``t - 1`` means ``-1``, and encoding
    it as the huge positive residue would wreck the noise growth of
    plaintext multiplication.
    """
    return ctx.signed_to_limbs(pt.centered(), basis)


def scaled_plaintext_limbs(
    ctx: CheContext, pt: Plaintext, basis: RnsBasis
) -> np.ndarray:
    """Limbs of ``round(M * m_centered / t)`` — the message embedding.

    Computed exactly over bigints, as one object-array expression (each
    element is a Python int, so ``//`` floors as it does per
    coefficient); the rounding error of at most 1/2 per coefficient is
    the only residue the exact scaling leaves behind.
    """
    modulus = basis.product
    t = ctx.t
    centered = pt.centered().astype(object)
    scaled = (2 * modulus * centered + t) // (2 * t)
    return ctx.limbs_for(scaled, basis)


@dataclass
class RlweCiphertext:
    """An RLWE ciphertext ``(c0, c1)`` over an RNS basis.

    Attributes
    ----------
    ctx:
        Owning context.
    basis:
        Either ``ctx.ct_basis`` (normal) or ``ctx.aug_basis`` (augmented).
    c0, c1:
        Limb stacks of shape ``(len(basis), n)``, coefficient domain.
    """

    ctx: CheContext
    basis: RnsBasis
    c0: np.ndarray
    c1: np.ndarray

    def __post_init__(self) -> None:
        expect = (len(self.basis), self.ctx.n)
        for name, comp in (("c0", self.c0), ("c1", self.c1)):
            if comp.shape != expect:
                raise ValueError(f"{name} shape {comp.shape} != {expect}")

    # -- structure ---------------------------------------------------------------

    @property
    def is_augmented(self) -> bool:
        return len(self.basis) == len(self.ctx.aug_basis)

    @property
    def poly_count(self) -> int:
        """Number of single-modulus polynomials (the paper's accounting)."""
        return 2 * len(self.basis)

    def copy(self) -> "RlweCiphertext":
        return RlweCiphertext(self.ctx, self.basis, self.c0.copy(), self.c1.copy())

    def _check(self, other: "RlweCiphertext") -> None:
        if self.basis.moduli != other.basis.moduli:
            raise ValueError("ciphertext basis mismatch")

    # -- linear homomorphisms -------------------------------------------------------

    def __add__(self, other: "RlweCiphertext") -> "RlweCiphertext":
        self._check(other)
        c0 = np.stack(
            [modadd_vec(self.c0[i], other.c0[i], q) for i, q in enumerate(self.basis)]
        )
        c1 = np.stack(
            [modadd_vec(self.c1[i], other.c1[i], q) for i, q in enumerate(self.basis)]
        )
        return RlweCiphertext(self.ctx, self.basis, c0, c1)

    def __sub__(self, other: "RlweCiphertext") -> "RlweCiphertext":
        self._check(other)
        c0 = np.stack(
            [modsub_vec(self.c0[i], other.c0[i], q) for i, q in enumerate(self.basis)]
        )
        c1 = np.stack(
            [modsub_vec(self.c1[i], other.c1[i], q) for i, q in enumerate(self.basis)]
        )
        return RlweCiphertext(self.ctx, self.basis, c0, c1)

    def __neg__(self) -> "RlweCiphertext":
        c0 = np.stack([modneg_vec(self.c0[i], q) for i, q in enumerate(self.basis)])
        c1 = np.stack([modneg_vec(self.c1[i], q) for i, q in enumerate(self.basis)])
        return RlweCiphertext(self.ctx, self.basis, c0, c1)

    def add_plain(self, pt: Plaintext) -> "RlweCiphertext":
        """Add ``pt`` to the message (embedded at the exact ``M/t`` scale)."""
        limbs = scaled_plaintext_limbs(self.ctx, pt, self.basis)
        c0 = np.stack(
            [
                modadd_vec(self.c0[i], limbs[i], q)
                for i, q in enumerate(self.basis)
            ]
        )
        return RlweCiphertext(self.ctx, self.basis, c0, self.c1.copy())

    def multiply_plain(self, pt: Plaintext) -> "RlweCiphertext":
        """Plaintext-ciphertext product (CHAM pipeline stages 1-3).

        Both components go through NTT, a coefficient-wise product with
        the NTT of the plaintext, and INTT — exactly the DOTPRODUCT module
        when ``pt`` is a row encoding (Eq. 2).
        """
        obs.inc("he.rlwe.multiply_plain")
        limbs = plaintext_limbs(self.ctx, pt, self.basis)
        with obs.span("NTT", limbs=len(self.basis), polys=3):
            pt_ntt = self.ctx.ntt_limbs(limbs, self.basis)
            comp_ntts = [
                self.ctx.ntt_limbs(comp, self.basis) for comp in (self.c0, self.c1)
            ]
        with obs.span("MULTPOLY", limbs=len(self.basis)):
            prods = [
                np.stack(
                    [
                        modmul_vec(comp_ntt[i], pt_ntt[i], q)
                        for i, q in enumerate(self.basis)
                    ]
                )
                for comp_ntt in comp_ntts
            ]
        with obs.span("INTT", limbs=len(self.basis), polys=2):
            out = [self.ctx.intt_limbs(prod, self.basis) for prod in prods]
        return RlweCiphertext(self.ctx, self.basis, out[0], out[1])

    # -- PPU operations on ciphertexts (Table I, lifted per-component) ---------------

    def automorph_raw(self, g: int) -> "RlweCiphertext":
        """AUTOMORPH both components; the result decrypts under ``s(X^g)``.

        Callers must key-switch back to ``s`` (see
        :func:`repro.he.automorphism.apply_automorphism`).
        """
        c0 = np.stack([automorph(self.c0[i], g, q) for i, q in enumerate(self.basis)])
        c1 = np.stack([automorph(self.c1[i], g, q) for i, q in enumerate(self.basis)])
        return RlweCiphertext(self.ctx, self.basis, c0, c1)

    # -- rescale (pipeline stage 4) ----------------------------------------------------

    def rescale(self) -> "RlweCiphertext":
        """Divide-and-round by the special modulus: augmented -> normal.

        ``(c0, c1) mod Qp  ->  (round(c0/p), round(c1/p)) mod Q``; the
        message scale drops from ``Δ_aug ≈ Δ * p`` to ``Δ`` and the
        accumulated multiplication noise is divided by ``p``.
        """
        if not self.is_augmented:
            raise ValueError("rescale applies to augmented ciphertexts only")
        obs.inc("he.rlwe.rescale")
        c0 = self.basis.rescale_last(self.c0)
        c1 = self.basis.rescale_last(self.c1)
        return RlweCiphertext(self.ctx, self.ctx.ct_basis, c0, c1)

    # -- decryption helpers --------------------------------------------------------------

    def phase(self, sk: SecretKey) -> np.ndarray:
        """``c0 + c1 * s`` as exact centered bigints (noise analysis)."""
        s = sk.limbs(self.ctx, self.basis)
        c1s = self.ctx.negacyclic_multiply(self.c1, s, self.basis)
        total = np.stack(
            [modadd_vec(self.c0[i], c1s[i], q) for i, q in enumerate(self.basis)]
        )
        return self.basis.compose_centered(total)


def encrypt(
    ctx: CheContext,
    sk: SecretKey,
    pt: Plaintext,
    augmented: bool = True,
    error_std: Optional[float] = None,
) -> RlweCiphertext:
    """Symmetric encryption: ``( -(a s) + Δ m + e , a )``.

    ``augmented=True`` (the default) produces the six-polynomial form the
    CHAM dot-product pipeline ingests; ``augmented=False`` the four-
    polynomial wire format.
    """
    basis = ctx.aug_basis if augmented else ctx.ct_basis
    a = ctx.sample_uniform(basis)
    e = ctx.signed_to_limbs(ctx.sample_error_signed(error_std), basis)
    s = sk.limbs(ctx, basis)
    a_s = ctx.negacyclic_multiply(a, s, basis)
    m_limbs = scaled_plaintext_limbs(ctx, pt, basis)
    c0 = np.stack(
        [
            modadd_vec(
                modadd_vec(modneg_vec(a_s[i], q), e[i], q), m_limbs[i], q
            )
            for i, q in enumerate(basis)
        ]
    )
    return RlweCiphertext(ctx, basis, c0, a)


def encrypt_pk(
    ctx: CheContext, pk: PublicKey, pt: Plaintext, augmented: bool = True
) -> RlweCiphertext:
    """Public-key encryption: ``(pk0 u + e1 + Δ m, pk1 u + e2)``."""
    basis = ctx.aug_basis if augmented else ctx.ct_basis
    limbs = len(basis)
    u = ctx.signed_to_limbs(ctx.sample_ternary_signed(), basis)
    e1 = ctx.signed_to_limbs(ctx.sample_error_signed(), basis)
    e2 = ctx.signed_to_limbs(ctx.sample_error_signed(), basis)
    m_limbs = scaled_plaintext_limbs(ctx, pt, basis)
    pk0 = pk.b[:limbs]
    pk1 = pk.a[:limbs]
    pk0_u = ctx.negacyclic_multiply(pk0, u, basis)
    pk1_u = ctx.negacyclic_multiply(pk1, u, basis)
    c0 = np.stack(
        [
            modadd_vec(
                modadd_vec(pk0_u[i], e1[i], q), m_limbs[i], q
            )
            for i, q in enumerate(basis)
        ]
    )
    c1 = np.stack([modadd_vec(pk1_u[i], e2[i], q) for i, q in enumerate(basis)])
    return RlweCiphertext(ctx, basis, c0, c1)


def decrypt(ctx: CheContext, sk: SecretKey, ct: RlweCiphertext) -> Plaintext:
    """BFV decryption: ``round(t * phase / (basis product)) mod t``."""
    phase = ct.phase(sk)  # exact centered Python ints (object array)
    modulus = ct.basis.product
    t = ctx.t
    # round-to-nearest division; floor division of Python ints is
    # correct for negative numerators
    rounded = (2 * t * phase + modulus) // (2 * modulus)
    return Plaintext((rounded % t).astype(np.uint64), t)
