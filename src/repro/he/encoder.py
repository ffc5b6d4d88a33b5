"""Plaintexts and the coefficient encoders of Section II-C (Eq. 1).

The coefficient-encoded HMVP multiplies the *row polynomial*

``pt^(A_i) = A_{i,0} - sum_{j=1}^{N-1} A_{i,j} X^{N-j}``

by the *vector polynomial* ``pt^(v) = sum_j v_j X^j``; the constant
coefficient of the product is exactly the inner product ``<A_i, v>``
(Eq. 2).  Both encoders live here, together with a signed-integer and a
fixed-point view of the plaintext space ``Z_t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .params import CheParams

__all__ = ["Plaintext", "CoefficientEncoder", "FixedPointCodec"]


@dataclass
class Plaintext:
    """A plaintext polynomial: ``n`` coefficients in ``[0, t)``."""

    coeffs: np.ndarray
    t: int

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=np.uint64)
        if self.coeffs.ndim != 1:
            raise ValueError("plaintext is one-dimensional")

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    def centered(self) -> np.ndarray:
        """Coefficients lifted to ``(-t/2, t/2]`` as int64 (t < 2**62)."""
        half = self.t // 2
        # single-limb plaintext residues: t < 2**62 so the centered lift
        # fits int64 exactly (multi-limb centering uses center_lift_vec)
        c = self.coeffs.astype(np.int64)  # repro: noqa REPRO102
        return np.where(c > half, c - self.t, c)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Plaintext)
            and self.t == other.t
            and np.array_equal(self.coeffs, other.coeffs)
        )


class CoefficientEncoder:
    """Encode cleartext integers as plaintext polynomial coefficients."""

    def __init__(self, params: CheParams) -> None:
        self.params = params
        self.n = params.n
        self.t = params.plain_modulus

    # -- scalars / generic vectors ------------------------------------------------

    def _reduce(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values)
        if arr.dtype == object or np.issubdtype(arr.dtype, np.signedinteger):
            return np.mod(arr.astype(object), self.t).astype(np.uint64)
        return arr.astype(np.uint64) % np.uint64(self.t)

    def encode_coeffs(self, values: Sequence[int]) -> Plaintext:
        """Direct coefficient placement (value ``j`` at ``X^j``)."""
        vals = np.asarray(values)
        if vals.shape[0] > self.n:
            raise ValueError(f"{vals.shape[0]} values exceed ring degree {self.n}")
        coeffs = np.zeros(self.n, dtype=np.uint64)
        coeffs[: vals.shape[0]] = self._reduce(vals)
        return Plaintext(coeffs, self.t)

    # -- Eq. 1 encoders -------------------------------------------------------------

    def encode_vector(self, v: Sequence[int]) -> Plaintext:
        """``pt^(v) = sum_j v_j X^j`` (the encrypted operand of HMVP)."""
        return self.encode_coeffs(v)

    def encode_row(self, row: Sequence[int]) -> Plaintext:
        """``pt^(A_i) = A_{i,0} - sum_{j>=1} A_{i,j} X^{N-j}`` (Eq. 1).

        Rows shorter than ``n`` are implicitly zero-padded (their missing
        reversed coefficients stay zero).
        """
        row = np.asarray(row)
        if row.shape[0] > self.n:
            raise ValueError(f"row length {row.shape[0]} exceeds ring degree")
        reduced = self._reduce(row)
        coeffs = np.zeros(self.n, dtype=np.uint64)
        coeffs[0] = reduced[0]
        if row.shape[0] > 1:
            # -A_{i,j} at X^{N-j} for j = 1..len-1
            neg = (np.uint64(self.t) - reduced[1:]) % np.uint64(self.t)
            coeffs[self.n - (row.shape[0] - 1) :] = neg[::-1]
        return Plaintext(coeffs, self.t)

    # -- packed-result decoding --------------------------------------------------------

    def decode_packed(
        self, pt: Plaintext, count: int, scale_pow2: int
    ) -> np.ndarray:
        """Read ``count`` packed slots out of a PACKLWES result.

        Slot ``i`` lives at coefficient ``i * n / 2**ceil(log2 count)`` and
        carries ``2**scale_pow2`` times the true value (each PACKTWOLWES
        doubles the message); the factor is removed mod ``t`` here, in the
        clear, which is why ``t`` must be odd.
        """
        levels = max(count - 1, 0).bit_length()
        stride = self.n >> levels
        slots = pt.coeffs[: count * stride : stride].astype(object)
        inv = pow(2, -scale_pow2, self.t) if scale_pow2 else 1
        # object-dtype big-int multiply: exact at any modulus width
        vals = (slots * inv) % self.t  # repro: noqa REPRO101
        half = self.t // 2
        return np.where(vals > half, vals - self.t, vals)


@dataclass(frozen=True)
class FixedPointCodec:
    """Signed fixed-point rationals over ``Z_t`` (used by HeteroLR).

    A real ``x`` is stored as ``round(x * 2**frac_bits) mod t``.  Products
    of two encodings carry ``2**(2*frac_bits)``; :meth:`decode` takes the
    scale actually accumulated.
    """

    t: int
    frac_bits: int = 13

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    def encode(self, x: Union[float, np.ndarray]) -> np.ndarray:
        # rint yields float64; go through int64 so the values are exact
        # Python ints before reduction (floats cannot represent residues
        # of a 1024-bit Paillier modulus)
        vals = np.rint(np.asarray(x, dtype=np.float64) * self.scale)
        ints = vals.astype(np.int64).astype(object)
        return np.mod(ints, self.t)

    def decode(
        self, enc: np.ndarray, scale_bits: Optional[int] = None
    ) -> np.ndarray:
        """Centered decode; ``scale_bits`` defaults to one factor."""
        bits = self.frac_bits if scale_bits is None else scale_bits
        arr = np.mod(np.asarray(enc, dtype=object), self.t)
        half = self.t // 2
        signed = np.where(arr > half, arr - self.t, arr)
        return signed.astype(np.float64) / float(1 << bits)
