"""Encryption parameters (Section II-F of the paper).

CHAM fixes one production parameter set:

* ring degree ``N = 4096``;
* ciphertext modulus ``Q = q0 * q1`` with the 35-bit low-Hamming-weight
  primes ``q0 = 2**34 + 2**27 + 1`` and ``q1 = 2**34 + 2**19 + 1``
  (70 bits for "representing plaintext and ciphertext");
* special key-switching modulus ``p = 2**38 + 2**23 + 1`` (39 bits);
* total 109-bit modulus, which at ``N = 4096`` with ternary secrets gives
  ≥ 128-bit classical security per the HE-standard tables.

A ciphertext is two ring elements; in the *normal* basis ``{q0, q1}``
that is four ``N``-degree polynomials, and in the *augmented* basis
``{q0, q1, p}`` six — exactly the counts quoted in the paper.  A plaintext
is one ring element (two / three polynomials).

The plaintext modulus ``t`` is application-chosen; the default is the
smallest prime above ``2**40``, odd so that the packing scale ``2**k`` is
invertible mod ``t`` (see :mod:`repro.he.packing`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Tuple

from ..math.primes import CHAM_P, CHAM_Q0, CHAM_Q1, is_prime
from ..math.rns import RnsBasis

__all__ = [
    "SECURITY_TABLE",
    "estimate_security",
    "default_plain_modulus",
    "CheParams",
    "cham_params",
    "toy_params",
]

#: Maximum ``log2(Q*p)`` giving 128-bit classical security for a ternary
#: secret at each ring dimension — the (abridged) homomorphicencryption.org
#: standard table the paper's Section II-F parameter choice follows.
SECURITY_TABLE = {
    1024: 27,
    2048: 54,
    4096: 109,
    8192: 218,
    16384: 438,
    32768: 881,
}


def estimate_security(n: int, total_modulus_bits: int) -> int:
    """Coarse classical security estimate in bits.

    Linear interpolation of the HE-standard table: 128-bit security at the
    table budget, scaling inversely with the modulus width.  Only used for
    parameter sanity checks and reporting, never for enforcement beyond
    :meth:`CheParams.validate`.
    """
    if n not in SECURITY_TABLE:
        # Toy rings below the table (tests only): report zero security.
        if n < min(SECURITY_TABLE):
            return 0
        raise ValueError(f"no security data for n={n}")
    budget = SECURITY_TABLE[n]
    return int(round(128 * budget / max(total_modulus_bits, 1)))


@lru_cache(maxsize=None)
def default_plain_modulus(bits: int = 40) -> int:
    """Smallest odd prime with at least ``bits`` bits (default ``2**40+?``)."""
    t = (1 << bits) + 1
    while not is_prime(t):
        t += 2
    return t


@dataclass(frozen=True)
class CheParams:
    """Full parameter set for the CHAM HE pipeline.

    Attributes
    ----------
    n:
        Ring degree (power of two).
    ct_moduli:
        Ciphertext RNS primes ``(q0, ..)``; their product is ``Q``.
    special_modulus:
        Key-switching / rescale modulus ``p`` (the last, largest limb of
        the augmented basis).
    plain_modulus:
        ``t``; must be odd (packing needs ``2^{-1} mod t``).
    error_std:
        Standard deviation of the centered-binomial-approximated Gaussian
        error distribution.
    """

    n: int = 4096
    ct_moduli: Tuple[int, ...] = (CHAM_Q0, CHAM_Q1)
    special_modulus: int = CHAM_P
    plain_modulus: int = field(default_factory=default_plain_modulus)
    error_std: float = 3.2

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.n & (self.n - 1) or self.n < 4:
            raise ValueError(f"n={self.n} must be a power of two >= 4")
        if self.plain_modulus % 2 == 0:
            raise ValueError("plain_modulus must be odd (packing inverts 2^k)")
        if self.plain_modulus >= self.q_product:
            raise ValueError("plain_modulus must be far below Q")
        if self.special_modulus in self.ct_moduli:
            raise ValueError("special modulus must differ from ciphertext moduli")
        if self.special_modulus < max(self.ct_moduli):
            raise ValueError(
                "special modulus must dominate the ciphertext limbs "
                "(hybrid key-switching noise bound)"
            )
        # NTT-friendliness is enforced by RnsBasis construction below.
        _ = self.aug_basis

    # -- derived quantities ----------------------------------------------------

    @cached_property
    def ct_basis(self) -> RnsBasis:
        """Normal ciphertext basis ``{q0, q1}``."""
        return RnsBasis(tuple(self.ct_moduli), self.n)

    @cached_property
    def aug_basis(self) -> RnsBasis:
        """Augmented basis ``{q0, q1, p}`` (dot-product / key-switch domain)."""
        return RnsBasis(tuple(self.ct_moduli) + (self.special_modulus,), self.n)

    @property
    def q_product(self) -> int:
        out = 1
        for q in self.ct_moduli:
            out *= q
        return out

    @property
    def qp_product(self) -> int:
        return self.q_product * self.special_modulus

    @property
    def total_modulus_bits(self) -> int:
        return self.qp_product.bit_length()

    @property
    def security_bits(self) -> int:
        return estimate_security(self.n, self.total_modulus_bits)

    # -- polynomial counts (the paper's accounting) ------------------------------

    @property
    def ct_poly_count(self) -> int:
        """Polynomials per normal ciphertext (paper: four at N=4096)."""
        return 2 * len(self.ct_moduli)

    @property
    def ct_poly_count_aug(self) -> int:
        """Polynomials per augmented ciphertext (paper: six)."""
        return 2 * (len(self.ct_moduli) + 1)

    @property
    def pt_poly_count(self) -> int:
        """Polynomials per normal plaintext (paper: two)."""
        return len(self.ct_moduli)

    @property
    def pt_poly_count_aug(self) -> int:
        """Polynomials per augmented plaintext (paper: three)."""
        return len(self.ct_moduli) + 1

    def describe(self) -> str:
        """Human-readable summary used by examples and benches."""
        qbits = [q.bit_length() for q in self.ct_moduli]
        return (
            f"CheParams(n={self.n}, log2 Q={self.q_product.bit_length()} "
            f"({'+'.join(map(str, qbits))} bit limbs), "
            f"log2 p={self.special_modulus.bit_length()}, "
            f"log2 t={self.plain_modulus.bit_length()}, "
            f"~{self.security_bits}-bit security)"
        )


def cham_params(plain_bits: int = 40) -> CheParams:
    """The paper's production parameter set (Section II-F)."""
    return CheParams(plain_modulus=default_plain_modulus(plain_bits))


def toy_params(n: int = 256, plain_bits: int = 30) -> CheParams:
    """Small-ring parameters for fast tests.

    The CHAM moduli are ``≡ 1 (mod 8192)``, so they remain NTT-friendly
    for every power-of-two degree up to 4096 — toy rings reuse the exact
    production moduli and therefore the exact arithmetic paths.
    """
    if n > 4096:
        raise ValueError("toy_params covers n <= 4096")
    return CheParams(n=n, plain_modulus=default_plain_modulus(plain_bits))
