"""Shared HE context: randomness, samplers and the NTT kernel helpers.

Every HE object (keys, ciphertexts, the HMVP engine) references one
:class:`CheContext`.  The context owns

* the parameter set,
* a seeded :class:`numpy.random.Generator` (reproducible experiments),
* samplers for the three RLWE distributions (uniform, ternary secret,
  centered discrete Gaussian error),
* helpers that apply the cached fused-limb NTT kernel
  (:class:`~repro.math.ntt.FusedLimbNtt`) to RNS limb stacks.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..math.modular import modmul_vec
from ..math.ntt import FusedLimbNtt, fused_limb_ntt
from ..math.rns import RnsBasis
from .params import CheParams

__all__ = ["CheContext"]


class CheContext:
    """Runtime state shared by all HE operations under one parameter set."""

    def __init__(self, params: CheParams, seed: Optional[int] = None) -> None:
        self.params = params
        self.rng = np.random.default_rng(seed)

    # -- NTT machinery -----------------------------------------------------------

    def fused_ntt(self, basis: RnsBasis) -> FusedLimbNtt:
        """The cached fused-limb NTT context for a whole basis."""
        return fused_limb_ntt(self.params.n, basis.moduli)

    def ntt_limbs(self, limbs: np.ndarray, basis: RnsBasis) -> np.ndarray:
        """Forward NTT of an RNS limb stack ``(L, ..., n)``, per-limb moduli.

        One fused butterfly sweep over the whole stack (bit-identical to
        transforming each limb separately — see
        :class:`repro.math.ntt.FusedLimbNtt`).
        """
        return self.fused_ntt(basis).forward(limbs)

    def intt_limbs(self, limbs: np.ndarray, basis: RnsBasis) -> np.ndarray:
        """Inverse NTT of an RNS limb stack (fused over all limbs)."""
        return self.fused_ntt(basis).inverse(limbs)

    def negacyclic_multiply(
        self, a: np.ndarray, b: np.ndarray, basis: RnsBasis
    ) -> np.ndarray:
        """Per-limb negacyclic product of two ``(L, n)`` limb stacks: one
        fused forward transform of both operands, one fused inverse."""
        kernel = self.fused_ntt(basis)
        both = kernel.forward(np.stack([a, b], axis=1))
        q = basis.modulus_column.reshape(-1, 1)
        return kernel.inverse(modmul_vec(both[:, 0], both[:, 1], q))

    # -- samplers ------------------------------------------------------------------

    def sample_uniform(self, basis: RnsBasis) -> np.ndarray:
        """Uniform ring element as an RNS limb stack ``(L, n)``.

        Each limb is sampled independently and uniformly — this represents
        a uniform element of ``R_Q`` exactly, by CRT.
        """
        n = self.params.n
        return np.stack(
            [self.rng.integers(0, q, n, dtype=np.uint64) for q in basis]
        )

    def sample_ternary_signed(self) -> np.ndarray:
        """Ternary secret coefficients in ``{-1, 0, 1}`` (int64)."""
        return self.rng.integers(-1, 2, self.params.n, dtype=np.int64)

    def sample_error_signed(self, std: Optional[float] = None) -> np.ndarray:
        """Centered discrete Gaussian error (rounded normal, int64)."""
        sigma = self.params.error_std if std is None else std
        return np.rint(
            self.rng.normal(0.0, sigma, self.params.n)
        ).astype(np.int64)

    def signed_to_limbs(self, signed: np.ndarray, basis: RnsBasis) -> np.ndarray:
        """Reduce small signed coefficients into each limb of a basis."""
        signed = np.asarray(signed, dtype=np.int64)
        out = []
        for q in basis:
            out.append(np.mod(signed, q).astype(np.uint64))
        return np.stack(out)

    def limbs_for(self, values: Sequence[int], basis: RnsBasis) -> np.ndarray:
        """Reduce arbitrary (bigint) coefficients into a limb stack."""
        arr = np.asarray(values, dtype=object)
        return np.stack(
            [np.asarray(np.mod(arr, q), dtype=np.uint64) for q in basis]
        )

    # -- convenience -----------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def t(self) -> int:
        return self.params.plain_modulus

    @property
    def ct_basis(self) -> RnsBasis:
        return self.params.ct_basis

    @property
    def aug_basis(self) -> RnsBasis:
        return self.params.aug_basis

    def fork(self, seed: int) -> "CheContext":
        """A context with the same parameters but an independent stream."""
        return CheContext(self.params, seed)
