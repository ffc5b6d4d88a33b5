"""Result and operation-count types of the coefficient-encoded HMVP.

Algorithm 1 — encode each row per Eq. 1, multiply ``pt^(A_i) × ct^(v)``
(the constant coefficient is ``<A_i, v>``, Eq. 2), ``EXTRACTLWES``, then
``PACKLWES`` — runs in one engine, :class:`repro.core.batch.BatchedHmvp`,
for every shape the paper deploys (Section V-B3): row tiles become
separate packs, column tiles use separate vector ciphertexts whose
partial dot products are aggregated *as LWE ciphertexts* before packing
— the aggregation cost is exactly why Fig. 6 shows throughput degrading
once ``n >= m``.

Every product returns an :class:`HmvpResult` carrying an
:class:`HmvpOpCount`, so the hardware performance models can price the
exact operation mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..he.bfv import BfvScheme
from ..he.packing import PackedResult

__all__ = ["HmvpOpCount", "HmvpResult"]


@dataclass
class HmvpOpCount:
    """Operation counts of one HMVP invocation (consumed by ``repro.hw``).

    NTT counts are in units of single-limb transforms (what one NTT
    functional unit executes); the dot-product stage transforms the
    augmented ciphertext (``2*(L+1)`` polys) once per row plus the
    augmented plaintext (``L+1`` polys) per row, and inverse-transforms
    the product.

    These are the paper's op mix, which prices the CHAM and CPU models.
    ``intts`` still counts the inverse transforms of the c0 product,
    although the software engine reads its one extracted coefficient
    from the transform slots and skips them
    (:meth:`repro.core.batch.BatchedHmvp._tile_partial`).
    """

    rows: int = 0
    cols: int = 0
    dot_products: int = 0
    ntts: int = 0
    intts: int = 0
    pointwise_mults: int = 0
    rescales: int = 0
    extracts: int = 0
    lwe_additions: int = 0
    pack_reductions: int = 0
    keyswitches: int = 0
    automorphisms: int = 0

    def __add__(self, other: "HmvpOpCount") -> "HmvpOpCount":
        merged = HmvpOpCount()
        for name in vars(merged):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged

    @classmethod
    def for_dot_products(cls, rows: int, cols: int, limbs_aug: int) -> "HmvpOpCount":
        """Stage 1-4 counts for ``rows`` dot products (vector resident)."""
        return cls(
            rows=rows,
            cols=cols,
            dot_products=rows,
            # per row: forward-NTT the plaintext (limbs_aug polys); the
            # ciphertext is transformed once and cached; pointwise-multiply
            # both components; inverse-NTT both components
            ntts=rows * limbs_aug + 2 * limbs_aug,
            intts=rows * 2 * limbs_aug,
            pointwise_mults=rows * 2 * limbs_aug,
            rescales=rows,
            extracts=rows,
        )

    @classmethod
    def for_cached_dot_products(
        cls, rows: int, cols: int, limbs_aug: int
    ) -> "HmvpOpCount":
        """Stage 1-4 counts with matrix rows resident in the NTT domain.

        Relative to :meth:`for_dot_products` the ``rows * limbs_aug``
        per-row plaintext transforms vanish — the engines keep the row
        tile staged (URAM-resident, Section III-C) and only the hoisted
        ciphertext transform and the product inverse transforms remain.
        """
        return cls(
            rows=rows,
            cols=cols,
            dot_products=rows,
            ntts=2 * limbs_aug,
            intts=rows * 2 * limbs_aug,
            pointwise_mults=rows * 2 * limbs_aug,
            rescales=rows,
            extracts=rows,
        )

    @classmethod
    def for_request(
        cls, rows: int, cols: int, ring: int, limbs: int
    ) -> "HmvpOpCount":
        """Op mix of one request against a resident ``rows x cols`` matrix.

        One cached dot-product stage per ring-wide column tile, the LWE
        additions that merge column tiles, and one pack per ring-wide row
        tile.  Sharding a matrix moves where these run, never how many
        there are.
        """
        limbs_aug = limbs + 1
        ops = cls()
        for col_start in range(0, cols, ring):
            width = min(ring, cols - col_start)
            ops = ops + cls.for_cached_dot_products(rows, width, limbs_aug)
        col_tiles = -(-cols // ring)
        if col_tiles > 1:
            ops.lwe_additions += rows * (col_tiles - 1)
        for row_start in range(0, rows, ring):
            count = min(ring, rows - row_start)
            ops = ops + cls.for_pack(count, limbs, limbs_aug)
        return ops

    @classmethod
    def for_pack(cls, count: int, limbs: int, limbs_aug: int) -> "HmvpOpCount":
        """Stage 5-9 counts for packing ``count`` LWE ciphertexts.

        Each PACKTWOLWES performs one automorphism and one key-switch;
        one key-switch runs ``dnum`` digit products over the augmented
        basis: ``dnum * limbs_aug`` forward NTTs plus ``2 * limbs_aug``
        inverse NTTs after accumulation.
        """
        levels = max(count - 1, 0).bit_length()
        reductions = (1 << levels) - 1
        dnum = limbs
        return cls(
            pack_reductions=reductions,
            automorphisms=reductions,
            keyswitches=reductions,
            ntts=reductions * dnum * limbs_aug,
            intts=reductions * 2 * limbs_aug,
            pointwise_mults=reductions * dnum * 2 * limbs_aug,
            rescales=reductions * 2,
        )


@dataclass
class HmvpResult:
    """Result of a (possibly tiled) HMVP.

    ``packs[r]`` holds rows ``r*n .. r*n + packs[r].count - 1`` of ``A·v``.
    """

    packs: List[PackedResult]
    rows: int
    cols: int
    ops: HmvpOpCount = field(default_factory=HmvpOpCount)

    def decrypt(self, scheme: BfvScheme) -> np.ndarray:
        """Decrypt all row tiles into the full result vector (objects)."""
        parts = [scheme.decrypt_packed(pack) for pack in self.packs]
        return np.concatenate(parts)
