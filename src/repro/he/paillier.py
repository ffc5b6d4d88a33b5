"""Paillier additively-homomorphic encryption — the FATE baseline.

The paper's HeteroLR experiment (Section V-B3) replaces FATE's Paillier
with B/FV to unlock hardware acceleration.  To reproduce that comparison
we need a real Paillier: keygen over an RSA modulus, encryption with the
standard ``g = n + 1`` shortcut, decryption via the Carmichael function,
homomorphic addition (ciphertext product) and plaintext multiplication
(ciphertext exponentiation).

Signed values are supported through centered encoding mod ``n``.  The
default 2048-bit modulus matches FATE's production setting; tests use
smaller moduli for speed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

__all__ = ["PaillierPublicKey", "PaillierSecretKey", "Paillier", "paillier_keygen"]

#: Default RNG seed when the caller passes ``seed=None``.  The
#: reproduction is deterministic end to end ("same checkout, same
#: results" — see the determinism audit); production deployments must
#: pass their own entropy explicitly.
DEFAULT_SEED = 0xFA7E


def _random_prime(bits: int, rng: random.Random) -> int:
    from ..math.primes import is_prime

    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(candidate):
            return candidate


@dataclass(frozen=True)
class PaillierPublicKey:
    """``(n, g)`` with ``g = n + 1``."""

    n: int

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def g(self) -> int:
        return self.n + 1

    @property
    def half(self) -> int:
        return self.n // 2


@dataclass(frozen=True)
class PaillierSecretKey:
    """``λ = lcm(p-1, q-1)`` and the precomputed ``μ = L(g^λ)^(-1)``."""

    public: PaillierPublicKey
    lam: int
    mu: int


def paillier_keygen(
    bits: int = 2048, seed: Optional[int] = None
) -> PaillierSecretKey:
    """Generate a Paillier key pair with an RSA modulus of ``bits`` bits."""
    if seed is None:
        seed = DEFAULT_SEED
    rng = random.Random(seed)
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(half, rng)
        if p != q and math.gcd(p * q, (p - 1) * (q - 1)) == 1:
            break
    n = p * q
    pub = PaillierPublicKey(n)
    lam = (p - 1) * (q - 1) // math.gcd(p - 1, q - 1)
    # L(g^λ mod n²) = (g^λ - 1) / n ; with g = n+1, g^λ = 1 + λn (mod n²)
    x = pow(pub.g, lam, pub.n_squared)
    l_val = (x - 1) // n
    mu = pow(l_val, -1, n)
    return PaillierSecretKey(public=pub, lam=lam, mu=mu)


class Paillier:
    """A Paillier instance with encrypt/decrypt/homomorphic operations."""

    def __init__(self, bits: int = 2048, seed: Optional[int] = None) -> None:
        if seed is None:
            seed = DEFAULT_SEED
        self.sk = paillier_keygen(bits, seed)
        self.pk = self.sk.public
        self._rng = random.Random(seed + 1)

    # -- scalar operations --------------------------------------------------------

    def encrypt(self, m: int) -> int:
        """Encrypt a (signed) integer; encoded centered mod ``n``."""
        n, n2 = self.pk.n, self.pk.n_squared
        m_enc = m % n
        while True:
            r = self._rng.randrange(1, n)
            if math.gcd(r, n) == 1:
                break
        # (n+1)^m = 1 + m*n (mod n^2) — the g = n+1 shortcut.
        # Arbitrary-precision Python ints: exact at any modulus width.
        return (1 + m_enc * n) % n2 * pow(r, n, n2) % n2  # repro: noqa REPRO101

    def decrypt(self, c: int) -> int:
        """Decrypt to a centered signed integer."""
        n, n2 = self.pk.n, self.pk.n_squared
        x = pow(c, self.sk.lam, n2)
        # scalar Python-int arithmetic throughout: exact by construction
        m = (x - 1) // n * self.sk.mu % n  # repro: noqa REPRO101
        return m - n if m > self.pk.half else m

    def add(self, c1: int, c2: int) -> int:
        """Homomorphic addition: ciphertext multiplication mod ``n²``."""
        return c1 * c2 % self.pk.n_squared  # repro: noqa REPRO101 (big ints)

    def add_plain(self, c: int, m: int) -> int:
        n, n2 = self.pk.n, self.pk.n_squared
        return c * (1 + (m % n) * n) % n2  # repro: noqa REPRO101 (big ints)

    def mul_plain(self, c: int, k: int) -> int:
        """Homomorphic plaintext multiplication: exponentiation mod ``n²``."""
        return pow(c, k % self.pk.n, self.pk.n_squared)

    # -- vector convenience (the FATE workload shape) --------------------------------

    def encrypt_vector(self, values: Iterable[int]) -> List[int]:
        return [self.encrypt(int(v)) for v in values]

    def decrypt_vector(self, cts: Iterable[int]) -> List[int]:
        return [self.decrypt(c) for c in cts]

    def matvec(
        self, matrix: Sequence[Sequence[int]], ct_vector: List[int]
    ) -> List[int]:
        """Homomorphic MVP: for each row, ``prod_j ct_j^(A_ij)``.

        This is the operation FATE performs per mini-batch, and the one
        the paper's Fig. 7 calls ``matvec``.
        """
        out = []
        for row in matrix:
            if len(row) != len(ct_vector):
                raise ValueError("row length mismatch")
            acc = self.encrypt(0)
            for a_ij, c_j in zip(row, ct_vector):
                acc = self.add(acc, self.mul_plain(c_j, int(a_ij)))
            out.append(acc)
        return out
