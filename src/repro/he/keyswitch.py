"""RNS-hybrid key-switching (the KEYSWITCH unit of Alg. 2 / stage 5-9).

Given a polynomial ``c`` (mod ``Q``) that multiplies a foreign secret
``s_src`` inside a ciphertext phase, :func:`key_switch_raw` rewrites the
term onto the native secret ``s``:

1. *decompose*: the RNS limbs ``[c]_{q_i}`` of ``c`` themselves act as the
   (word-sized) digits — no explicit base-``w`` decomposition is needed;
2. *inner product* with the switching key in the NTT domain over the
   augmented basis ``Qp``;
3. *divide-and-round by p* (an RNS rescale) back to ``Q``.

The noise added is ``≈ sqrt(dnum * n) * max(q_i) * σ / p`` — a few bits
for CHAM's parameters, which is exactly why the paper budgets the third
39-bit modulus for key-switching (Section II-F).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .. import obs
from ..math.modular import modadd_vec, modmul_vec
from .context import CheContext
from .keys import KeySwitchKey
from .rlwe import RlweCiphertext

__all__ = ["key_switch_raw", "apply_keyswitch"]


def key_switch_raw(
    ctx: CheContext, c: np.ndarray, ksk: KeySwitchKey
) -> Tuple[np.ndarray, np.ndarray]:
    """Key-switch the polynomial ``c`` (normal-basis limb stack ``(L, n)``).

    ``c`` may carry extra batch axes between the limb and coefficient
    axes — shape ``(L, *batch, n)`` switches every polynomial in the
    stack through one pass (the key limbs broadcast), which is what the
    batched PACKLWES kernel relies on.

    Returns ``(d0, d1)``: normal-basis limb stacks such that

    ``d0 + d1 * s  ≈  c * s_src   (mod Q)``

    with word-sized additive noise.

    This is the *fused-limb* implementation: instead of the per-digit /
    per-limb double loop (``2 * L * (L+1)`` small array ops plus
    ``L * (L+1)`` separate NTTs), it

    1. embeds every digit into every augmented limb in one broadcast
       remainder — a ``(L_aug, L, *batch, n)`` stack;
    2. runs **one** fused NTT sweep over that whole stack;
    3. forms *both* inner products with a single broadcast modmul pass
       against the combined key stack (``(L_aug, 2, L, n)``) and a
       modadd reduction over the digit axis;
    4. inverse-transforms and rescales ``acc0``/``acc1`` together as a
       single ``(L_aug, 2, *batch, n)`` stack.

    Output is bit-identical per RNS limb to the reference per-digit /
    per-limb double loop (``key_switch_raw_loop`` in ``tests/oracles.py``),
    which the property suite enforces.
    """
    params = ctx.params
    aug = ctx.aug_basis
    ct_moduli = params.ct_moduli
    if c.ndim < 2 or c.shape[0] != len(ct_moduli) or c.shape[-1] != ctx.n:
        raise ValueError(f"expected normal-basis stack, got shape {c.shape}")
    batch = int(np.prod(c.shape[1:-1], dtype=np.int64)) if c.ndim > 2 else 1
    obs.inc("he.keyswitch.calls", batch)
    n_aug = len(aug)
    n_digits = len(ct_moduli)

    # span lives here (not in apply_keyswitch) so *every* key-switch —
    # including the batched PACKLWES path — is attributed in the profiler
    with obs.span("KEYSWITCH", limbs=n_digits, batch=batch):
        # (1) digit embedding: each RNS digit is word-sized, so plain
        # reduction — not centered — into every augmented limb is the
        # correct embedding.  One vectorized remainder against the
        # modulus column replaces the old per-(i, j) stack of copies and
        # never leaves uint64 (no intermediate upcasts, no double
        # reduction of word-sized digits).
        aug_col = aug.modulus_column.reshape((n_aug,) + (1,) * c.ndim)
        digit_limbs = c[np.newaxis] % aug_col  # (L_aug, L, *batch, n)
        assert digit_limbs.dtype == np.uint64, digit_limbs.dtype
        # (2) one fused butterfly sweep over all L_aug * L polynomials
        digit_ntt = ctx.ntt_limbs(digit_limbs, aug)
        # (3) both inner products in one broadcast pass: the combined
        # (L_aug, 2, L, n) key against the (L_aug, 1, L, *batch, n)
        # digit stack, then a modadd reduction over the digit axis
        key_shape = (n_aug, 2, n_digits) + (1,) * (c.ndim - 2) + (ctx.n,)
        key = ksk.fused_stack().reshape(key_shape)
        prod = modmul_vec(digit_ntt[:, np.newaxis], key, aug_col[:, np.newaxis])
        acc = prod[:, :, 0]  # (L_aug, 2, *batch, n)
        for i in range(1, n_digits):
            acc = modadd_vec(acc, prod[:, :, i], aug_col)
        # (4) both components share one inverse transform + rescale
        d = aug.rescale_last(ctx.intt_limbs(acc, aug))
        d0 = np.ascontiguousarray(d[:, 0])
        d1 = np.ascontiguousarray(d[:, 1])
    return d0, d1


def apply_keyswitch(ct: RlweCiphertext, ksk: KeySwitchKey) -> RlweCiphertext:
    """Switch a ciphertext decryptable under ``s_src`` to the key ``s``.

    ``ct = (c0, c1)`` with ``c0 + c1 s_src = Δm + e`` becomes
    ``(c0 + d0, d1)`` with ``d0 + d1 s ≈ c1 s_src``.
    """
    ctx = ct.ctx
    if ct.is_augmented:
        raise ValueError(
            "key-switching operates on normal-basis ciphertexts "
            "(rescale the augmented ciphertext first)"
        )
    d0, d1 = key_switch_raw(ctx, ct.c1, ksk)
    c0 = np.stack(
        [modadd_vec(ct.c0[i], d0[i], q) for i, q in enumerate(ct.basis)]
    )
    return RlweCiphertext(ctx, ct.basis, c0, d1)
