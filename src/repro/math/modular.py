"""Vectorized modular arithmetic over word-sized NTT moduli.

CHAM's moduli are at most 39 bits wide (``p = 2**38 + 2**23 + 1``), so a
product of two residues can reach 78 bits and does not fit in a NumPy
``uint64``.  :func:`modmul_vec` is exact anyway: a floating-point Barrett
reduction with the per-modulus reciprocal ``mu = RN(1/q)`` precomputed in
:class:`_ReducerCache`.  One float multiply estimates the quotient to
within ±1; wrap-around ``uint64`` arithmetic recovers the exact remainder
with two conditional subtractions (proof in the docstring).  The
property tests in ``tests/test_fastpath_properties.py`` check it bit for
bit against the split-operand reference ``modmul_vec_split`` in
``tests/oracles.py``.

The module also provides the *hardware* reduction path used by CHAM: the
paper chooses low-Hamming-weight primes (three non-zero bits each) so that
multiplication by ``q`` — and hence Barrett-style reduction — collapses to
three shifts and adds (Section IV-A3).  :class:`LowHammingModulus` models
that datapath exactly and is cross-checked against the generic path in the
test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple, Union

import numpy as np

from ..obs.metrics import REGISTRY as _METRICS

__all__ = [
    "MAX_MODULUS_BITS",
    "modadd_vec",
    "modsub_vec",
    "modneg_vec",
    "modmul_vec",
    "modmul_scalar_vec",
    "modinv",
    "center_lift_vec",
    "reduce_signed_vec",
    "LowHammingModulus",
    "BarrettReducer",
    "hamming_weight",
    "decompose_low_hamming",
]

#: Largest modulus width (bits) for which :func:`modmul_vec` is exact:
#: below 2**41 the Barrett quotient estimate is off by at most one
#: (see :func:`modmul_vec`).
MAX_MODULUS_BITS = 41

IntArray = np.ndarray

#: A modulus argument: a plain int, or a ``uint64`` array broadcastable
#: against the operands (one modulus per RNS limb slice — the fused-limb
#: kernels pass a ``(L, 1, ..., 1)`` column).
ModulusLike = Union[int, np.integer, IntArray]


def _as_u64(a: Union[IntArray, int, Iterable[int]]) -> IntArray:
    return np.asarray(a, dtype=np.uint64)


def _q_u64(q: ModulusLike) -> Union[np.uint64, IntArray]:
    """The modulus as a ``uint64`` scalar (int input) or array (column)."""
    if isinstance(q, (int, np.integer)):
        return np.uint64(q)
    return _as_u64(q)


def modadd_vec(a: IntArray, b: IntArray, q: ModulusLike) -> IntArray:
    """Coefficient-wise ``(a + b) mod q`` (the MODADD unit of Table I).

    Selection by unsigned minimum: with ``a, b < q`` the sum is below
    ``2q``, so exactly one of ``s`` and ``s - q`` lies in ``[0, q)`` and
    the other is either ``>= q`` or wraps around to an enormous value —
    ``min`` picks the reduced one in one pass fewer than a masked
    ``where``.
    """
    a = _as_u64(a)
    b = _as_u64(b)
    qq = _q_u64(q)
    s = a + b
    return np.minimum(s, s - qq)


def modsub_vec(a: IntArray, b: IntArray, q: ModulusLike) -> IntArray:
    """Coefficient-wise ``(a - b) mod q`` (unsigned-min selection)."""
    a = _as_u64(a)
    b = _as_u64(b)
    qq = _q_u64(q)
    d = a - b  # wraps around when a < b
    return np.minimum(d, d + qq)


def modneg_vec(a: IntArray, q: ModulusLike) -> IntArray:
    """Coefficient-wise ``(-a) mod q``."""
    a = _as_u64(a)
    qq = _q_u64(q)
    return np.where(a == 0, a, qq - a)


class _Reducer:
    """Precomputed Barrett constants for one modulus.

    ``mu`` is the round-to-nearest ``float64`` reciprocal ``RN(1/q)`` —
    the 53-bit analogue of the classical integer ``mu = floor(2^2k/q)``.
    """

    __slots__ = ("qq", "mu")

    def __init__(self, q: int) -> None:
        self.qq = np.uint64(q)
        self.mu = np.float64(1.0) / np.float64(q)


class _ReducerCache:
    """Tiny per-modulus cache of :class:`_Reducer` constants.

    The working set is the handful of RNS moduli of the active parameter
    set, so an unbounded dict is fine; lookups are one hash of an int.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, _Reducer] = {}

    def get(self, q: int) -> _Reducer:
        entry = self._entries.get(q)
        if entry is None:
            entry = self._entries[q] = _Reducer(q)
        return entry

    def __len__(self) -> int:
        return len(self._entries)


_REDUCERS = _ReducerCache()

#: Reciprocal cache for *frozen* modulus columns, keyed by ``id`` of the
#: read-only root array.  Entries hold a strong reference to the root, so
#: an id can never be recycled while its entry lives — the ``is`` check
#: on lookup is belt-and-braces.  The working set is one column per RNS
#: basis in the process.
_COLUMN_CACHE: Dict[int, Tuple[IntArray, np.ndarray]] = {}


def _column_mu(qq: IntArray) -> Union[np.ndarray, None]:
    """Cached ``RN(1/q)`` for a frozen modulus column, else ``None``.

    The fused-limb kernels pass reshaped *views* of a per-basis frozen
    ``modulus_column`` on every call; resolving the view to its read-only
    root array lets us validate the bit width and compute the Barrett
    reciprocal once per basis instead of once per modmul.  Returns the
    reciprocal shaped like ``qq``, or ``None`` when ``qq`` is not a
    cacheable view (mutable, sliced, or non-contiguous — the caller then
    computes ``mu`` directly).
    """
    root = qq.base if qq.base is not None else qq
    if (
        not isinstance(root, np.ndarray)
        or root.flags.writeable
        or root.dtype != np.uint64
        or root.size != qq.size
        or not qq.flags.c_contiguous
    ):
        return None
    entry = _COLUMN_CACHE.get(id(root))
    if entry is None or entry[0] is not root:
        flat = np.ascontiguousarray(root).reshape(-1)
        bits = int(flat.max()).bit_length()
        if bits > MAX_MODULUS_BITS:
            raise ValueError(
                f"modulus column max is {bits} bits; "
                f"modmul_vec supports at most {MAX_MODULUS_BITS}"
            )
        entry = (root, 1.0 / flat.astype(np.float64))
        _COLUMN_CACHE[id(root)] = entry
    return entry[1].reshape(qq.shape)


def _check_modulus_bits(q: ModulusLike) -> None:
    if isinstance(q, (int, np.integer)):
        bits = int(q).bit_length()
    else:
        qq = _as_u64(q)
        if _column_mu(qq) is not None:
            return  # validated when the column entered the cache
        bits = int(qq.max()).bit_length()
    if bits > MAX_MODULUS_BITS:
        raise ValueError(
            f"modulus {q} is {bits} bits; "
            f"modmul_vec supports at most {MAX_MODULUS_BITS}"
        )


def _barrett_core(
    a: IntArray,
    b: IntArray,
    qq: Union[np.uint64, IntArray],
    mu: Union[np.float64, np.ndarray],
) -> IntArray:
    # every step in place, so at most two result-sized arrays are live
    # at once: concurrent HMVPs (HeteroLR's two parties, the serving
    # pool) each hold a dot or key-switch product's worth of them
    shape = np.broadcast(a, b, qq).shape  # a modulus column may broadcast too
    est = np.empty(shape, dtype=np.float64)
    np.multiply(a, b, out=est, dtype=np.float64)
    np.multiply(est, mu, out=est)
    scratch = np.empty(shape, dtype=np.uint64)
    np.copyto(scratch, est, casting="unsafe")  # truncates, as astype does
    del est
    np.multiply(scratch, qq, out=scratch)
    r = np.empty(shape, dtype=np.uint64)
    np.multiply(a, b, out=r)
    np.subtract(r, scratch, out=r)
    # the quotient estimate is off by at most one, so the raw residue is
    # in (-q, 2q): exactly one of {r, r+q, r-q} lands in [0, q) and
    # uint64 wrap-around makes the other two enormous — unsigned min
    # selects the exact remainder (see the modmul_vec docstring)
    np.minimum(r, np.add(r, qq, out=scratch), out=scratch)
    np.minimum(scratch, np.subtract(r, qq, out=r), out=r)
    return r if r.ndim else r[()]  # 0-d operands give a scalar, as ufuncs do


def modmul_vec(a: IntArray, b: IntArray, q: ModulusLike) -> IntArray:
    """Coefficient-wise ``(a * b) mod q`` via floating-point Barrett.

    Exactness: with ``a, b < q < 2**41`` the true product ``p = a*b`` is
    below ``2**82`` and the true quotient ``p/q`` below ``2**41``.  The
    estimate ``est = fl(fl(a) * fl(b) * mu)`` accumulates at most three
    roundings of relative size ``2**-53`` on top of ``mu``'s own, so
    ``|est - p/q| < 2**41 * 2**-51 < 1``, hence
    ``floor(est) in {Q-1, Q, Q+1}`` for ``Q = floor(p/q)``.  The raw
    residue ``r = p - floor(est)*q`` then lies in ``(-q, 2q)``; computed
    in wrap-around ``uint64`` arithmetic exactly one of
    ``{r, r+q, r-q}`` equals the true remainder in ``[0, q)`` while the
    other two either exceed ``q`` or wrap around to values near
    ``2**64`` — an unsigned minimum selects it exactly.

    ``q`` may be an array column (one modulus per leading slice), which
    is what the fused-limb NTT and key-switch kernels rely on.  Calls and
    result coefficients are counted on the metrics registry.
    """
    a = _as_u64(a)
    b = _as_u64(b)
    if _METRICS.enabled:
        _METRICS.inc("math.modmul.calls")
        # count the *broadcast* result size, not the larger operand: a
        # (L, 1, n) x (L, rows, n) product touches L*rows*n coefficients
        _METRICS.inc(
            "math.modmul.coefficients",
            int(np.prod(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)),
        )
    if isinstance(q, (int, np.integer)):
        _check_modulus_bits(q)
        red = _REDUCERS.get(int(q))
        return _barrett_core(a, b, red.qq, red.mu)
    qq = _as_u64(q)
    mu = _column_mu(qq)
    if mu is None:
        _check_modulus_bits(qq)
        mu = 1.0 / qq.astype(np.float64)
    return _barrett_core(a, b, qq, mu)


def modmul_scalar_vec(a: IntArray, s: Union[int, np.integer], q: int) -> IntArray:
    """``(a * s) mod q`` with a scalar right operand.

    The scalar is normalized exactly once (Python-int arithmetic, so
    negative and ``np.integer`` scalars reduce correctly into ``[0, q)``)
    and the product then goes through the already-reduced fast path.
    """
    if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
        raise TypeError(
            f"modmul_scalar_vec needs an integer scalar, got {type(s).__name__}"
        )
    return modmul_vec(a, np.uint64(int(s) % q), q)


def modinv(a: int, q: int) -> int:
    """Multiplicative inverse of ``a`` modulo prime or coprime ``q``."""
    a %= q
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    g, x = _ext_gcd(a, q)
    if g != 1:
        raise ValueError(f"{a} is not invertible modulo {q}")
    return x % q


def _ext_gcd(a: int, b: int) -> Tuple[int, int]:
    """Return ``(gcd(a, b), x)`` with ``a*x ≡ gcd (mod b)``."""
    old_r, r = a, b
    old_x, x = 1, 0
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_x, x = x, old_x - k * x
    return old_r, old_x


def center_lift_vec(a: IntArray, q: int) -> np.ndarray:
    """Vectorized centered lift, returned as Python-int object array.

    An object array is used because centered values for a 39-bit modulus fit
    in int64, but callers combine limbs into >64-bit integers.
    """
    a = _as_u64(a)
    out = a.astype(object)
    half = q // 2
    return np.where(out > half, out - q, out)


def reduce_signed_vec(a: np.ndarray, q: int) -> IntArray:
    """Reduce a signed integer array (any dtype, incl. object) into [0, q)."""
    arr = np.asarray(a, dtype=object)
    return np.asarray(np.mod(arr, q), dtype=np.uint64)


class BarrettReducer:
    """Generic Barrett reduction — the ablation counterpart of
    :class:`LowHammingModulus` (Section IV-A3).

    Precomputes ``mu = floor(2**(2k) / q)`` for ``k = bitlen(q)``; a
    double-width product then reduces with two extra wide multiplies —
    exactly the DSP cost the paper's low-Hamming moduli avoid.
    """

    def __init__(self, q: int) -> None:
        if q < 3 or q % 2 == 0:
            raise ValueError("modulus must be odd and > 2")
        self.q = q
        self.k = q.bit_length()
        self.mu = (1 << (2 * self.k)) // q

    def reduce(self, x: int) -> int:
        """Reduce ``0 <= x < q**2`` mod ``q`` (two multiplies, one cond sub)."""
        if x < 0 or x >= self.q * self.q:
            raise ValueError("Barrett input must lie in [0, q^2)")
        approx_quotient = (x * self.mu) >> (2 * self.k)
        r = x - approx_quotient * self.q
        while r >= self.q:  # at most two corrections by construction
            r -= self.q
        return r

    def mulmod(self, a: int, b: int) -> int:
        return self.reduce((a % self.q) * (b % self.q))

    #: wide multiplies a hardware Barrett unit spends per reduction
    MULTIPLIES_PER_REDUCTION = 2


def hamming_weight(n: int) -> int:
    """Number of set bits of ``n``."""
    return bin(n).count("1")


def decompose_low_hamming(q: int) -> List[int]:
    """Return the exponents of the set bits of ``q`` (descending).

    For CHAM's ``q0 = 2**34 + 2**27 + 1`` this is ``[34, 27, 0]``: the three
    shift amounts of the hardware reduction datapath.
    """
    return [i for i in range(q.bit_length() - 1, -1, -1) if (q >> i) & 1]


@dataclass(frozen=True)
class LowHammingModulus:
    """Model of CHAM's shift-add modular reduction (Section IV-A3).

    A modulus ``q = 2**e2 + 2**e1 + 1`` with exactly three set bits lets the
    hardware reduce a double-width product without DSP multipliers: since
    ``2**e2 ≡ -(2**e1 + 1) (mod q)``, high bits fold back with two shifted
    additions per iteration.

    Attributes
    ----------
    q:
        The modulus.
    exponents:
        Set-bit positions of ``q``, descending (``[e2, e1, 0]``).
    """

    q: int

    def __post_init__(self) -> None:
        if hamming_weight(self.q) != 3:
            raise ValueError(
                f"modulus {self.q} has Hamming weight {hamming_weight(self.q)}; "
                "the CHAM reduction datapath requires exactly 3 set bits"
            )
        if self.q & 1 == 0:
            raise ValueError("modulus must be odd")

    @property
    def exponents(self) -> List[int]:
        return decompose_low_hamming(self.q)

    @property
    def top_exponent(self) -> int:
        """Position of the leading bit (``e2``), the fold boundary."""
        return self.exponents[0]

    def fold_once(self, x: int) -> int:
        """One shift-add folding iteration: replace ``hi*2**e2`` by
        ``-hi*(2**e1 + 1)`` which may go negative; callers iterate to a
        fixed narrow range and then take one conditional correction."""
        e2, e1, _ = self.exponents
        hi, lo = x >> e2, x & ((1 << e2) - 1)
        return lo - (hi << e1) - hi

    def reduce(self, x: int) -> int:
        """Reduce any (possibly double-width) non-negative ``x`` mod ``q``
        using only shifts/adds, mirroring the FPGA datapath."""
        e2 = self.top_exponent
        # Each fold shrinks |x| by roughly e2 - e1 bits; iterate until the
        # value fits in e2 + 1 bits, then correct into [0, q).
        while x >= (1 << (e2 + 1)) or x < -(1 << (e2 + 1)):
            x = self.fold_once(x) if x >= 0 else -self.fold_once(-x)
        x %= self.q
        return x

    def shift_add_count(self, x_bits: int) -> int:
        """Number of shift/add operations to reduce an ``x_bits``-wide value.

        Used by the resource model: a generic Barrett reduction would need
        two extra wide multipliers (DSP slices); the low-Hamming path needs
        only this many adders.
        """
        e2, e1, _ = self.exponents
        step = e2 - e1
        excess = max(0, x_bits - e2)
        iterations = -(-excess // step) if excess else 0
        return 2 * iterations + 1  # two adds per fold + final correction

    def mulmod(self, a: int, b: int) -> int:
        """Scalar modular multiplication via the shift-add reduction."""
        return self.reduce((a % self.q) * (b % self.q))
