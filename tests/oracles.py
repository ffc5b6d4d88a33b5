"""Reference oracles for the differential, property and golden tests.

Nothing in ``src/`` calls these.  They are the scalar, obviously-correct
forms of the fast kernels, and the tests check the kernels against them
bit for bit, per RNS limb:

* :func:`hmvp_oracle` — Algorithm 1 one row at a time (``encode_row`` →
  ``multiply_plain`` → rescale → ``extract_lwe``), partial LWEs summed
  across column tiles, then the recursive pack — the reference for
  :class:`repro.core.batch.BatchedHmvp`;
* :func:`pack_lwes_recursive` over :func:`pack_two_lwes` — Algorithms 3
  and 2 as written, one RLWE merge per call — the reference for the
  stacked PACKLWES tree in :mod:`repro.he.packing`;
* :func:`modmul_vec_split` — the split-operand modular product, the
  reference for :func:`repro.math.modular.modmul_vec`;
* :func:`merged_ct_forward` / :func:`merged_gs_inverse` — the merged-ψ
  Cooley-Tukey / Gentleman-Sande NTT pair, one modulus at a time over
  stage-variant butterfly blocks — the gold model for the
  constant-geometry kernel :class:`repro.math.ntt.FusedLimbNtt`;
* :func:`negacyclic_convolution_schoolbook` — the O(n²) ring product,
  the reference for every NTT-based multiplication;
* :func:`rns_decompose` — exact residues of big integers, the inverse of
  :meth:`repro.math.rns.RnsBasis.compose`;
* :func:`key_switch_raw_loop` — the per-digit / per-limb key-switch, the
  reference for :func:`repro.he.keyswitch.key_switch_raw`;
* :func:`plan_exhaustive` — the partition search scoring every candidate
  grid's total, the reference for the bounded
  :meth:`repro.cluster.PartitionPlanner.plan`; :func:`plan_from_cuts`
  builds a plan from explicit cuts for the cluster tests.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.partition import (
    PartitionPlan,
    PartitionPlanner,
    balanced_cuts,
)
from repro.core.hmvp import HmvpResult
from repro.he.automorphism import apply_automorphism
from repro.he.bfv import BfvScheme
from repro.he.context import CheContext
from repro.he.keys import GaloisKeyset, KeySwitchKey
from repro.he.lwe import LweCiphertext, extract_lwe, lwe_to_rlwe
from repro.he.packing import PackedResult
from repro.he.rlwe import RlweCiphertext
from repro.math.modular import modadd_vec, modmul_vec, modsub_vec
from repro.math.ntt import _tables
from repro.math.polynomial import shiftneg
from repro.math.rns import RnsBasis

#: the left operand of a split product is cut at this many low bits
SPLIT_BITS = 20
_LOW_MASK = np.uint64((1 << SPLIT_BITS) - 1)
_SHIFT = np.uint64(SPLIT_BITS)


def modmul_vec_split(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Coefficient-wise ``(a * b) mod q`` via the split-operand path.

    Exactness argument: write ``a = a_hi * 2**20 + a_lo``.  With
    ``a, b < q < 2**41`` every intermediate below is at most
    ``2**21 * 2**41 = 2**62`` (``a_hi * b``), ``(q-1) * 2**20 < 2**61``
    (the shifted reduced high part), ``2**20 * 2**41 = 2**61``
    (``a_lo * b``), or their sum ``< 2**62`` — all inside ``uint64``.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    qq = np.uint64(q)
    hi = (a >> _SHIFT) * b % qq
    lo = (a & _LOW_MASK) * b % qq
    return ((hi << _SHIFT) + lo) % qq


def _stage_slabs(table: np.ndarray, forward: bool):
    """Per-stage twiddle slabs of the merged network.

    ``table`` is the merged-order twiddle vector ``(n,)``.  Returns
    ``[(m, t, twiddle), ...]`` in stage order, each ``twiddle`` a
    contiguous ``(1, m, 1)`` array that broadcasts over the
    ``(batch, m, t)`` butterflies.
    """
    n = table.shape[-1]
    stages = []
    if forward:
        m, t = 1, n
        while m < n:
            t //= 2
            stages.append((m, t))
            m *= 2
    else:
        m, t = n // 2, 1
        while m >= 1:
            stages.append((m, t))
            t *= 2
            m //= 2
    return [
        (m, t, np.ascontiguousarray(table[m : 2 * m]).reshape(1, m, 1))
        for m, t in stages
    ]


def merged_ct_forward(a: np.ndarray, q: int) -> np.ndarray:
    """Merged-ψ Cooley-Tukey NTT of the last axis (Longa-Naehrig):
    natural order in, bit-reversed order out."""
    a = np.asarray(a, dtype=np.uint64)
    n = a.shape[-1]
    psis, _inv_psis, _n_inv = _tables(n, q)
    work = a.reshape(-1, n).copy()
    for m, t, twiddle in _stage_slabs(psis, forward=True):
        blocks = work.reshape(work.shape[0], m, 2 * t)
        u = blocks[:, :, :t]
        v = modmul_vec(blocks[:, :, t:], twiddle, q)
        s = modadd_vec(u, v, q)
        d = modsub_vec(u, v, q)
        blocks[:, :, :t] = s
        blocks[:, :, t:] = d
    return work.reshape(a.shape)


def merged_gs_inverse(a: np.ndarray, q: int) -> np.ndarray:
    """Merged-ψ Gentleman-Sande inverse NTT of the last axis:
    bit-reversed order in, natural order out, scaled by ``n^-1``."""
    a = np.asarray(a, dtype=np.uint64)
    n = a.shape[-1]
    _psis, inv_psis, n_inv = _tables(n, q)
    work = a.reshape(-1, n).copy()
    for m, t, twiddle in _stage_slabs(inv_psis, forward=False):
        blocks = work.reshape(work.shape[0], m, 2 * t)
        u = blocks[:, :, :t]
        v = blocks[:, :, t:]
        s = modadd_vec(u, v, q)
        d = modmul_vec(modsub_vec(u, v, q), twiddle, q)
        blocks[:, :, :t] = s
        blocks[:, :, t:] = d
    return modmul_vec(work, np.uint64(n_inv), q).reshape(a.shape)


def negacyclic_convolution_schoolbook(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """O(n²) negacyclic convolution — the correctness oracle for the NTTs.

    ``c_k = sum_{i+j=k} a_i b_j - sum_{i+j=k+n} a_i b_j (mod q)``.
    """
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    n = a.shape[-1]
    if b.shape[-1] != n:
        raise ValueError("length mismatch")
    c = np.zeros(n, dtype=object)
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            k = i + j
            term = ai * int(b[j])
            if k < n:
                c[k] += term
            else:
                c[k - n] -= term
    return np.asarray(np.mod(c, q), dtype=np.uint64)


def rns_decompose(basis: RnsBasis, values: np.ndarray) -> np.ndarray:
    """Integer array (object dtype or unsigned) -> residue stack.

    Returns shape ``(L, *values.shape)`` ``uint64``.
    """
    arr = np.asarray(values, dtype=object)
    return np.stack(
        [np.asarray(np.mod(arr, q), dtype=np.uint64) for q in basis.moduli]
    )


def key_switch_raw_loop(
    ctx: CheContext, c: np.ndarray, ksk: KeySwitchKey
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-digit / per-limb key-switch of ``c`` (``(L, *batch, n)``)."""
    aug = ctx.aug_basis
    ct_moduli = ctx.params.ct_moduli
    if c.ndim < 2 or c.shape[0] != len(ct_moduli) or c.shape[-1] != ctx.n:
        raise ValueError(f"expected normal-basis stack, got shape {c.shape}")
    acc0 = np.zeros((len(aug),) + c.shape[1:], dtype=np.uint64)
    acc1 = np.zeros((len(aug),) + c.shape[1:], dtype=np.uint64)
    for i, _qi in enumerate(ct_moduli):
        digit = c[i]  # the i-th RNS digit, an integer in [0, q_i)
        digit_limbs = np.stack([digit % np.uint64(qj) for qj in aug])
        digit_ntt = np.stack(
            [merged_ct_forward(digit_limbs[j], qj) for j, qj in enumerate(aug)]
        )
        for j, qj in enumerate(aug):
            acc0[j] = modadd_vec(
                acc0[j], modmul_vec(digit_ntt[j], ksk.b_ntt[i][j], qj), qj
            )
            acc1[j] = modadd_vec(
                acc1[j], modmul_vec(digit_ntt[j], ksk.a_ntt[i][j], qj), qj
            )
    d0 = aug.rescale_last(
        np.stack([merged_gs_inverse(acc0[j], qj) for j, qj in enumerate(aug)])
    )
    d1 = aug.rescale_last(
        np.stack([merged_gs_inverse(acc1[j], qj) for j, qj in enumerate(aug)])
    )
    return d0, d1


def multiply_monomial(ct: RlweCiphertext, exponent: int) -> RlweCiphertext:
    """MULTMONO on both components: multiply by ``X^exponent`` (noise-free)."""
    c0, c1 = (
        np.stack([shiftneg(comp[i], exponent, q) for i, q in enumerate(ct.basis)])
        for comp in (ct.c0, ct.c1)
    )
    return RlweCiphertext(ct.ctx, ct.basis, c0, c1)


def pack_two_lwes(
    level: int,
    ct_even: RlweCiphertext,
    ct_odd: RlweCiphertext,
    galois_keys: GaloisKeyset,
) -> RlweCiphertext:
    """Algorithm 2: merge two level-``(k-1)`` packs into a level-``k`` pack."""
    n = ct_even.ctx.n
    stride = n >> level
    if stride < 1:
        raise ValueError(f"level {level} exceeds log2(n)={n.bit_length() - 1}")
    g = (1 << level) + 1
    ct_mono = multiply_monomial(ct_odd, stride)
    ct_plus = ct_even + ct_mono
    ct_minus = ct_even - ct_mono
    return ct_plus + apply_automorphism(ct_minus, g, galois_keys)


def zero_ciphertext(ctx: CheContext, basis: RnsBasis) -> RlweCiphertext:
    """The transparent encryption of zero (pads the recursive pack)."""
    shape = (len(basis), ctx.n)
    zeros = np.zeros(shape, np.uint64)
    return RlweCiphertext(ctx, basis, zeros, zeros.copy())


def pack_lwes_recursive(
    lwes: Sequence[LweCiphertext], galois_keys: GaloisKeyset
) -> PackedResult:
    """Algorithm 3: recursively pack ``m`` LWE ciphertexts into one RLWE.

    Inputs are zero-padded to the next power of two with transparent
    zero ciphertexts; the recursion splits by index parity so the slot
    order comes out natural.
    """
    if not lwes:
        raise ValueError("nothing to pack")
    ctx = lwes[0].ctx
    rlwes: List[RlweCiphertext] = [lwe_to_rlwe(lwe) for lwe in lwes]
    count = len(rlwes)
    levels = max(count - 1, 0).bit_length()
    target = 1 << levels
    if target > ctx.n:
        raise ValueError(f"cannot pack {count} > ring degree {ctx.n}")
    rlwes += [zero_ciphertext(ctx, rlwes[0].basis)] * (target - count)

    def recurse(items: List[RlweCiphertext]) -> RlweCiphertext:
        if len(items) == 1:
            return items[0]
        level = len(items).bit_length() - 1
        return pack_two_lwes(
            level, recurse(items[0::2]), recurse(items[1::2]), galois_keys
        )

    return PackedResult(
        ct=recurse(rlwes), count=count, scale_pow2=levels, reductions=target - 1
    )


def hmvp_oracle(
    scheme: BfvScheme,
    matrix: np.ndarray,
    ct_tiles: Sequence[RlweCiphertext],
    tile_rows: Optional[int] = None,
) -> HmvpResult:
    """Algorithm 1 row by row for any shape: one pack per row tile.

    ``ct_tiles`` holds one augmented vector ciphertext per ring-wide
    column tile; each row's partial dot products are summed as LWE
    ciphertexts across the column tiles before the pack.
    """
    matrix = np.asarray(matrix)
    m, n_cols = matrix.shape
    ring = scheme.params.n
    if len(ct_tiles) != -(-n_cols // ring):
        raise ValueError(f"need one vector tile per {ring} columns")
    rows_per_pack = tile_rows or ring
    packs = []
    for row_start in range(0, m, rows_per_pack):
        lwes: List[LweCiphertext] = []
        for i in range(row_start, min(row_start + rows_per_pack, m)):
            row_lwe: Optional[LweCiphertext] = None
            for tile, ct_v in enumerate(ct_tiles):
                row = matrix[i, tile * ring : (tile + 1) * ring]
                prod = ct_v.multiply_plain(scheme.encoder.encode_row(row))
                lwe = extract_lwe(prod.rescale(), 0)
                row_lwe = lwe if row_lwe is None else row_lwe + lwe
            assert row_lwe is not None
            lwes.append(row_lwe)
        packs.append(pack_lwes_recursive(lwes, scheme.galois_keys))
    return HmvpResult(packs=packs, rows=m, cols=n_cols)


def plan_total_cycles(
    planner: PartitionPlanner, plan: PartitionPlan, nodes: int
) -> int:
    """A grid's planner score: compute makespan plus network cycles."""
    makespan = planner.estimate_makespan(plan, nodes)
    return makespan + planner.estimate_comm_cycles(plan, nodes)


def plan_from_cuts(
    planner: PartitionPlanner,
    rows: int,
    cols: int,
    row_cuts: Sequence[int],
    col_cuts: Sequence[int],
) -> PartitionPlan:
    """Wrap explicit cuts in a validated plan on ``planner``'s ring."""
    return PartitionPlan(
        rows=rows,
        cols=cols,
        ring_n=planner.ring_n,
        row_cuts=tuple(row_cuts),
        col_cuts=tuple(col_cuts),
    )


def plan_exhaustive(
    planner: PartitionPlanner,
    rows: int,
    cols: int,
    nodes: int = 1,
) -> PartitionPlan:
    """Score every candidate grid's total; least ``(total, shards)`` wins,
    the earliest enumerated grid on exact ties."""
    min_row_bands = -(-rows // planner.ring_n)
    max_row_bands = min(rows, min_row_bands + planner.MAX_EXTRA_ROW_SPLITS)
    col_tiles = -(-cols // planner.ring_n)
    best: Optional[Tuple[int, int, PartitionPlan]] = None
    for row_bands in range(min_row_bands, max_row_bands + 1):
        for col_bands in range(1, col_tiles + 1):
            tile_cuts = balanced_cuts(col_tiles, col_bands)
            col_cuts = tuple(
                min(cut * planner.ring_n, cols) for cut in tile_cuts
            )
            candidate = PartitionPlan(
                rows=rows,
                cols=cols,
                ring_n=planner.ring_n,
                row_cuts=balanced_cuts(rows, row_bands),
                col_cuts=col_cuts,
            )
            key = (
                plan_total_cycles(planner, candidate, nodes),
                len(candidate.shards),
            )
            if best is None or key < (best[0], best[1]):
                best = (key[0], key[1], candidate)
    assert best is not None  # search space is never empty
    return best[2]
