"""Constant-geometry (Pease) negacyclic NTT — Algorithm 4 of the paper.

Every stage reads the butterfly pair ``(a[j], a[j + N/2])`` and writes
``(ā[2j], ā[2j+1])``; the fixed geometry lets CHAM wire one datapath
between the BFUs and the RAM banks instead of the stage-variant
multiplexer trees HEAX needs (Section IV-A1).  The software kernel
(:class:`repro.math.ntt.FusedLimbNtt`) runs exactly this network; this
module is its hardware-facing view: the twiddle ROM layout of Fig. 4
(:class:`CgSchedule`, read by :mod:`repro.hw.ntt_datapath`), the
one-limb unit :class:`CgNtt` and the cycle count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .ntt import NegacyclicNtt, _tables, constant_geometry_index, fused_limb_ntt

__all__ = [
    "CgSchedule",
    "constant_geometry_schedule",
    "CgNtt",
    "cg_ntt_cycles",
]


@dataclass(frozen=True)
class CgSchedule:
    """Derived constant-geometry schedule for one ``(n, q)`` pair.

    Attributes
    ----------
    n, q:
        Transform size and modulus.
    twiddles:
        ``(log2 n, n/2)`` array; ``twiddles[i, j]`` is the factor used by
        butterfly ``j`` of stage ``i`` (the ROM contents of Fig. 4).
    inv_twiddles:
        Element-wise inverses, consumed by the mirrored inverse network.
    output_perm:
        Permutation ``σ`` with ``cg_output[k] = gold_output[σ[k]]`` where
        the gold output is the merged-CT bit-reversed-order NTT (the
        derivation yields the identity).
    n_inv:
        ``n^{-1} mod q`` (final inverse-transform scaling).
    """

    n: int
    q: int
    twiddles: np.ndarray
    inv_twiddles: np.ndarray
    output_perm: np.ndarray
    n_inv: int

    @property
    def stages(self) -> int:
        return int(self.n).bit_length() - 1

    def rom_bank_contents(self, n_bfu: int) -> List[np.ndarray]:
        """Per-BFU twiddle ROM contents (Section IV-A2).

        In each clock cycle the ``n_bfu`` BFUs consume one *column* of the
        stage's twiddle sequence, so BFU ``b`` owns every
        ``(k*n_bfu + b)``-th factor of every stage, concatenated in stage
        order.  Each ROM therefore stores exactly
        ``(n/2 * log2 n) / n_bfu`` words — the ``N`` total factors of the
        paper divided across banks.
        """
        if (self.n // 2) % n_bfu:
            raise ValueError(f"n_bfu={n_bfu} does not divide n/2={self.n // 2}")
        return [
            np.concatenate([self.twiddles[i, b::n_bfu] for i in range(self.stages)])
            for b in range(n_bfu)
        ]


def constant_geometry_schedule(n: int, q: int) -> CgSchedule:
    """The CG twiddle schedule and output permutation for ``(n, q)``.

    The twiddle tables are read-only views of the cached one-limb
    kernel's stage tables, not copies.
    """
    kernel = fused_limb_ntt(n, (int(q),))
    _index, perm = constant_geometry_index(n)
    return CgSchedule(
        n=n,
        q=q,
        twiddles=kernel.twiddles[:, 0],
        inv_twiddles=kernel.inv_twiddles[:, 0],
        output_perm=perm,
        n_inv=_tables(n, int(q))[2],
    )


class CgNtt(NegacyclicNtt):
    """Functional model of CHAM's constant-geometry NTT/INTT unit.

    The one-limb view of the kernel (which runs Algorithm 4, with the
    inverse as the exact mirror: reads ``(2j, 2j+1)``, writes
    ``(j, j+n/2)``), plus the derived :attr:`schedule` the hardware
    model reads.  ``inverse(forward(a)) == a`` without any reordering
    pass — matching the hardware, where NTT and INTT units share the
    ping-pong RAM geometry.
    """

    def __init__(self, n: int, q: int) -> None:
        super().__init__(n, q)
        self.schedule = constant_geometry_schedule(n, q)

    def to_gold_order(self, a: np.ndarray) -> np.ndarray:
        """Re-index CG output into the gold model's bit-reversed order."""
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.schedule.output_perm] = np.arange(self.n)
        return np.asarray(a, dtype=np.uint64)[..., inv]


def cg_ntt_cycles(n: int, n_bfu: int) -> int:
    """Clock cycles of one CG NTT with ``n_bfu`` butterfly units.

    Section IV-A1: ``(N/2 * log2 N) / n_bf`` — each stage issues ``N/2``
    butterflies, ``n_bfu`` per cycle, with no inter-stage bubbles thanks to
    the ping-pong RAM banks.  For ``N = 4096, n_bfu = 4`` this is the 6144
    cycles of Table III.
    """
    if n & (n - 1):
        raise ValueError("n must be a power of two")
    log_n = n.bit_length() - 1
    total_butterflies = (n // 2) * log_n
    if total_butterflies % n_bfu:
        raise ValueError(f"n_bfu={n_bfu} does not divide butterfly count")
    return total_butterflies // n_bfu
