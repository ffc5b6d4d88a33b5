"""Constant-geometry (Pease) negacyclic NTT — Algorithm 4 of the paper.

Every stage reads the butterfly pair ``(a[j], a[j + N/2])`` and writes
``(ā[2j], ā[2j+1])``; the fixed geometry lets CHAM wire one datapath
between the BFUs and the RAM banks instead of the stage-variant
multiplexer trees HEAX needs (Section IV-A1).  The software kernel
(:class:`repro.math.ntt.FusedLimbNtt`) runs exactly this network; this
module is its hardware-facing view: the twiddle ROM layout of Fig. 4
(:class:`CgSchedule`, read by :mod:`repro.hw.ntt_datapath`) and the cycle
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ntt import constant_geometry_index, fused_limb_ntt

__all__ = [
    "CgSchedule",
    "constant_geometry_schedule",
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
    """

    n: int
    q: int
    twiddles: np.ndarray
    inv_twiddles: np.ndarray
    output_perm: np.ndarray

    @property
    def stages(self) -> int:
        return int(self.n).bit_length() - 1


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
    )


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
