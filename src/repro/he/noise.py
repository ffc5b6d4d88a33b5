"""Noise measurement and analytical estimates.

Two views of ciphertext noise are exposed:

* :func:`absolute_noise_bits` — ``log2`` of the largest centered residual
  ``|phase - Δ m|``; this is the unit the paper uses when it says rescale
  reduces the multiplication noise "from 30 bit to 26 bit" (Section III-A).
* :func:`invariant_noise_budget` — SEAL-compatible bits of budget left
  before decryption fails: ``-log2(2 * ||t * phase / Q - m||)``.

The :class:`NoiseModel` gives closed-form *a-priori* estimates per
operation so the design-space exploration and the noise benchmark can be
run without decrypting anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .. import obs
from .context import CheContext
from .keys import SecretKey
from .rlwe import RlweCiphertext

__all__ = [
    "absolute_noise_bits",
    "invariant_noise_budget",
    "NoiseModel",
]


def _invariant_residual(
    ctx: CheContext,
    sk: SecretKey,
    ct: RlweCiphertext,
    positions: Optional[Sequence[int]] = None,
) -> Tuple[int, int]:
    """Return ``(max |t*phase - m*M|, M)`` with ``m = round(t*phase/M)``.

    The quantity ``(t*phase - m*M) / M`` is the SEAL-style *invariant
    noise* ν: decryption succeeds iff ``|ν| < 1/2``.  It is scale-agnostic
    — correct regardless of whether the ciphertext carries the exact
    ``M/t`` embedding or a rescaled one.

    ``positions`` restricts the maximum to a coefficient subset.  Packed
    ciphertexts carry meaningful data only in their slot coefficients —
    the rest is the algorithm's garbage, which sits arbitrarily far from
    the message lattice and would drown the measurement.
    """
    phase = ct.phase(sk)
    if positions is not None:
        phase = phase[list(positions)]
    modulus = ct.basis.product
    t = ctx.t
    worst = 0
    for v in phase:
        num = int(v) * t
        m = (2 * num + modulus) // (2 * modulus)
        worst = max(worst, abs(num - m * modulus))
    return worst, modulus


def absolute_noise_bits(
    ctx: CheContext,
    sk: SecretKey,
    ct: RlweCiphertext,
    positions: Optional[Sequence[int]] = None,
) -> float:
    """``log2`` of the equivalent additive error ``|ν| * M / t``.

    This is the unit of the paper's "30 bit → 26 bit" rescale claim: the
    worst-case distance of the phase from the ideal message lattice point,
    expressed on the ciphertext-modulus scale.
    """
    worst, _modulus = _invariant_residual(ctx, sk, ct, positions)
    e_equiv = worst / ctx.t
    bits = math.log2(e_equiv) if e_equiv > 1 else 0.0
    obs.set_gauge("he.noise.abs_bits", bits)
    return bits


def invariant_noise_budget(
    ctx: CheContext,
    sk: SecretKey,
    ct: RlweCiphertext,
    positions: Optional[Sequence[int]] = None,
) -> float:
    """Bits of decryption margin left: ``-log2(2 |ν|)``.

    Positive means decryption succeeds with that many bits to spare;
    zero/negative means failure.
    """
    worst, modulus = _invariant_residual(ctx, sk, ct, positions)
    if worst == 0:
        budget = float(modulus.bit_length())
    else:
        budget = math.log2(modulus) - math.log2(2 * worst)
    obs.set_gauge("he.noise.budget_bits", budget)
    obs.observe("he.noise.budget_bits.hist", budget)
    return budget


def packed_slot_positions(n: int, count: int) -> List[int]:
    """Slot coefficient indices of a PACKLWES result over ``count`` inputs."""
    levels = max(count - 1, 0).bit_length()
    stride = n >> levels
    return [i * stride for i in range(count)]


@dataclass(frozen=True)
class NoiseModel:
    """Closed-form noise estimates (infinity norms, heuristic CLT bounds).

    Every method returns an estimated absolute noise (not bits); callers
    take ``log2``.  ``sigma`` is the error std, ``n`` the ring degree.
    """

    n: int
    sigma: float
    t: int
    q: int
    p: int

    @property
    def secret_l1(self) -> float:
        """Expected l1 norm of a uniform ternary secret (2n/3)."""
        return 2.0 * self.n / 3.0

    def fresh_sym(self) -> float:
        """Fresh symmetric encryption: a single Gaussian sample + rounding."""
        return 6.0 * self.sigma

    def fresh_pk(self) -> float:
        """Public-key encryption: e*u + e1 + e2*s ~ sigma * sqrt(2n)."""
        return 6.0 * self.sigma * math.sqrt(2.0 * self.n)

    def multiply_plain(self, noise_in: float, pt_norm: float) -> float:
        """Plaintext product: noise * ||pt|| aggregated over n coefficients."""
        return noise_in * pt_norm * math.sqrt(self.n)

    def rescale(self, noise_in: float) -> float:
        """Divide by p, add the rounding term (1 + ||s||_1) / 2."""
        return noise_in / self.p + (1.0 + self.secret_l1) / 2.0

    def keyswitch(self, dnum: int, q_max: int) -> float:
        """Additive hybrid key-switch noise: digits * keys error / p."""
        return dnum * q_max * 6.0 * self.sigma * math.sqrt(self.n) / self.p + (
            1.0 + self.secret_l1
        ) / 2.0

    def pack_level(self, noise_in: float, ks_noise: float) -> float:
        """One PACKTWOLWES: doubles the inputs and adds a key-switch."""
        return 2.0 * noise_in + ks_noise

    def pack(self, noise_in: float, levels: int, ks_noise: float) -> float:
        """Full PACKLWES over ``2**levels`` inputs."""
        out = noise_in
        for _ in range(levels):
            out = self.pack_level(out, ks_noise)
        return out

    @classmethod
    def for_context(cls, ctx: CheContext) -> "NoiseModel":
        params = ctx.params
        return cls(
            n=params.n,
            sigma=params.error_std,
            t=params.plain_modulus,
            q=params.q_product,
            p=params.special_modulus,
        )
