"""Wire formats for every object the two-party protocols exchange.

HE's bandwidth blow-up (×10² to ×10⁵, per the paper's introduction) is
what the two-party protocols pay on the network, so the library ships a
compact binary wire format for every exchanged object:

* little-endian framed records with a 4-byte magic and type tag;
* polynomial limbs packed at their *modulus width* (ceil(log2 q) bits
  per coefficient, bit-packed) — a normal-basis N=4096 ciphertext is
  ~71.7 KiB on the wire instead of the 128 KiB naive uint64 dump;
* versioned headers so persisted keys survive library upgrades.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Tuple

import numpy as np

from ..math.rns import RnsBasis
from .context import CheContext
from .encoder import Plaintext
from .lwe import LweCiphertext
from .rlwe import RlweCiphertext

if TYPE_CHECKING:  # typing-only: key deserializers import lazily below
    from .keys import GaloisKeyset, KeySwitchKey, SecretKey

__all__ = [
    "MAGIC",
    "pack_limbs",
    "unpack_limbs",
    "serialize_plaintext",
    "deserialize_plaintext",
    "serialize_rlwe",
    "deserialize_rlwe",
    "serialize_lwe",
    "deserialize_lwe",
    "rlwe_wire_bytes",
    "serialize_secret_key",
    "deserialize_secret_key",
    "serialize_keyswitch_key",
    "deserialize_keyswitch_key",
    "serialize_galois_keyset",
    "deserialize_galois_keyset",
]

MAGIC = b"CHAM"
_VERSION = 1
_TYPE_PLAINTEXT = 1
_TYPE_RLWE = 2
_TYPE_LWE = 3


def _bits_for(q: int) -> int:
    return (q - 1).bit_length()


def pack_limbs(limbs: np.ndarray, moduli: Tuple[int, ...]) -> bytes:
    """Bit-pack each limb at its modulus width.

    Wire layout per limb: a little-endian bitstream where coefficient
    ``j`` occupies bits ``[j*bits, (j+1)*bits)``, zero-padded up to a
    byte boundary.  Vectorized with :func:`numpy.packbits` — the previous
    per-coefficient Python big-int loop was O(n²) bit work on the path
    every serialized ciphertext takes.
    """
    limbs = np.asarray(limbs, dtype=np.uint64)
    out = []
    for i, q in enumerate(moduli):
        bits = _bits_for(q)
        vals = np.ascontiguousarray(limbs[i])
        # (n, bits) matrix of LSB-first bits, then one little-endian packbits
        shifts = np.arange(bits, dtype=np.uint64)
        bitmat = ((vals[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
        out.append(np.packbits(bitmat.reshape(-1), bitorder="little").tobytes())
    return b"".join(out)


def unpack_limbs(
    data: bytes, moduli: Tuple[int, ...], n: int
) -> "tuple[np.ndarray, int]":
    """Inverse of :func:`pack_limbs`; returns ``(limbs, bytes_consumed)``.

    Raises ``ValueError`` on truncated data or a coefficient outside
    ``[0, q)`` for its limb's modulus ``q``.
    """
    limbs = np.empty((len(moduli), n), dtype=np.uint64)
    offset = 0
    for i, q in enumerate(moduli):
        bits = _bits_for(q)
        total_bytes = (bits * n + 7) // 8
        chunk = data[offset : offset + total_bytes]
        if len(chunk) != total_bytes:
            raise ValueError("truncated limb data")
        raw = np.frombuffer(chunk, dtype=np.uint8)
        bitmat = np.unpackbits(raw, bitorder="little")[: bits * n]
        weights = np.uint64(1) << np.arange(bits, dtype=np.uint64)
        # each row sums to the original value exactly (bits <= 63)
        limbs[i] = (bitmat.reshape(n, bits).astype(np.uint64) * weights).sum(
            axis=1
        )
        offset += total_bytes
    q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
    if np.any(limbs >= q_col):
        raise ValueError("coefficient out of range for its modulus")
    return limbs, offset


def _header(type_tag: int, n: int, limb_count: int) -> bytes:
    return MAGIC + struct.pack("<BBHI", _VERSION, type_tag, limb_count, n)


def _unpack(fmt: str, data: bytes, off: int) -> tuple:
    """``struct.unpack_from`` that reports short data as ``ValueError``."""
    if len(data) < off + struct.calcsize(fmt):
        raise ValueError("truncated wire object")
    return struct.unpack_from(fmt, data, off)


def _check_length(data: bytes, used: int) -> None:
    """A wire object must end exactly where its last field does."""
    if len(data) < used:
        raise ValueError("truncated wire object")
    if len(data) > used:
        raise ValueError(f"{len(data) - used} trailing bytes after wire object")


def _parse_header(data: bytes, expect_tag: int) -> "tuple[int, int, int]":
    if data[:4] != MAGIC:
        raise ValueError("bad magic; not a CHAM wire object")
    version, tag, limb_count, n = _unpack("<BBHI", data, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported wire version {version}")
    if tag != expect_tag:
        raise ValueError(f"wire type {tag}, expected {expect_tag}")
    return n, limb_count, 12


def serialize_plaintext(pt: Plaintext) -> bytes:
    body = pack_limbs(pt.coeffs[None, :], (pt.t,))
    return _header(_TYPE_PLAINTEXT, pt.n, 1) + struct.pack("<Q", pt.t & ((1 << 64) - 1)) + body


def deserialize_plaintext(data: bytes, t: int) -> Plaintext:
    n, limb_count, off = _parse_header(data, _TYPE_PLAINTEXT)
    if limb_count != 1:
        raise ValueError(f"plaintext with {limb_count} limbs, expected 1")
    (stored_t,) = _unpack("<Q", data, off)
    if stored_t != t & ((1 << 64) - 1):
        raise ValueError("plaintext modulus mismatch")
    limbs, used = unpack_limbs(data[off + 8 :], (t,), n)
    _check_length(data, off + 8 + used)
    return Plaintext(limbs[0], t)


def serialize_rlwe(ct: RlweCiphertext) -> bytes:
    moduli = ct.basis.moduli
    body = pack_limbs(ct.c0, moduli) + pack_limbs(ct.c1, moduli)
    return _header(_TYPE_RLWE, ct.ctx.n, len(moduli)) + body


def _basis_for(ctx: CheContext, limb_count: int) -> RnsBasis:
    """The ciphertext or augmented basis, by the header's limb count."""
    if limb_count == len(ctx.ct_basis):
        return ctx.ct_basis
    if limb_count == len(ctx.aug_basis):
        return ctx.aug_basis
    raise ValueError(f"unexpected limb count {limb_count}")


def deserialize_rlwe(data: bytes, ctx: CheContext) -> RlweCiphertext:
    n, limb_count, off = _parse_header(data, _TYPE_RLWE)
    if n != ctx.n:
        raise ValueError(f"ring degree {n} != context degree {ctx.n}")
    basis = _basis_for(ctx, limb_count)
    c0, used0 = unpack_limbs(data[off:], basis.moduli, n)
    c1, used1 = unpack_limbs(data[off + used0 :], basis.moduli, n)
    _check_length(data, off + used0 + used1)
    return RlweCiphertext(ctx, basis, c0, c1)


def serialize_lwe(lwe: LweCiphertext) -> bytes:
    moduli = lwe.basis.moduli
    body = pack_limbs(lwe.b[:, None], moduli) + pack_limbs(lwe.a, moduli)
    return _header(_TYPE_LWE, lwe.ctx.n, len(moduli)) + body


def deserialize_lwe(data: bytes, ctx: CheContext) -> LweCiphertext:
    n, limb_count, off = _parse_header(data, _TYPE_LWE)
    if n != ctx.n:
        raise ValueError("ring degree mismatch")
    basis = _basis_for(ctx, limb_count)
    b, used_b = unpack_limbs(data[off:], basis.moduli, 1)
    a, used_a = unpack_limbs(data[off + used_b :], basis.moduli, n)
    _check_length(data, off + used_b + used_a)
    return LweCiphertext(ctx, basis, b[:, 0], a)


def rlwe_wire_bytes(n: int, moduli: Tuple[int, ...]) -> int:
    """Exact wire size of an RLWE ciphertext (header + packed limbs)."""
    body = sum(2 * ((_bits_for(q) * n + 7) // 8) for q in moduli)
    return 12 + body


# -- key material -------------------------------------------------------------

_TYPE_SECRET = 4
_TYPE_KSK = 5
_TYPE_GALOIS = 6


def serialize_secret_key(sk: "SecretKey") -> bytes:
    """Secret keys serialize as 2-bit-packed ternary coefficients."""
    signed = np.asarray(sk.signed, dtype=np.int64)
    n = signed.shape[0]
    # map {-1,0,1} -> {2,0,1}
    mapped = np.where(signed < 0, 2, signed).astype(np.uint64)
    acc = 0
    for i, v in enumerate(mapped):
        acc |= int(v) << (2 * i)
    body = acc.to_bytes((2 * n + 7) // 8, "little")
    return _header(_TYPE_SECRET, n, 0) + body


def deserialize_secret_key(data: bytes) -> "SecretKey":
    from .keys import SecretKey

    n, limb_count, off = _parse_header(data, _TYPE_SECRET)
    if limb_count != 0:
        raise ValueError(f"secret key with {limb_count} limbs, expected 0")
    _check_length(data, off + (2 * n + 7) // 8)
    acc = int.from_bytes(data[off:], "little")
    signed = np.empty(n, dtype=np.int64)
    for i in range(n):
        v = (acc >> (2 * i)) & 0b11
        if v == 3:
            raise ValueError("secret-key coefficient code 3 is not ternary")
        signed[i] = -1 if v == 2 else v
    return SecretKey(signed)


def serialize_keyswitch_key(ksk: "KeySwitchKey", moduli: Tuple[int, ...]) -> bytes:
    """Hybrid switching keys: NTT-domain limb stacks, bit-packed."""
    parts = []
    n = ksk.b_ntt[0].shape[1]
    for i in range(ksk.decomp_count):
        parts.append(pack_limbs(ksk.b_ntt[i], moduli))
        parts.append(pack_limbs(ksk.a_ntt[i], moduli))
    head = _header(_TYPE_KSK, n, len(moduli)) + struct.pack(
        "<H", ksk.decomp_count
    )
    return head + b"".join(parts)


def deserialize_keyswitch_key(data: bytes, ctx: CheContext) -> "KeySwitchKey":
    from .keys import KeySwitchKey

    n, limb_count, off = _parse_header(data, _TYPE_KSK)
    if n != ctx.n or limb_count != len(ctx.aug_basis):
        raise ValueError("key-switch key header mismatch")
    (decomp,) = _unpack("<H", data, off)
    off += 2
    moduli = ctx.aug_basis.moduli
    b_parts, a_parts = [], []
    for _i in range(decomp):
        b, used = unpack_limbs(data[off:], moduli, n)
        off += used
        a, used = unpack_limbs(data[off:], moduli, n)
        off += used
        b_parts.append(b)
        a_parts.append(a)
    _check_length(data, off)
    return KeySwitchKey(b_ntt=b_parts, a_ntt=a_parts)


def serialize_galois_keyset(
    keyset: "GaloisKeyset", moduli: Tuple[int, ...]
) -> bytes:
    """Galois keysets: count-prefixed (element, ksk) records."""
    records = []
    for g in sorted(keyset.keys):
        blob = serialize_keyswitch_key(keyset.keys[g], moduli)
        records.append(struct.pack("<II", g, len(blob)) + blob)
    head = MAGIC + struct.pack(
        "<BBHI", _VERSION, _TYPE_GALOIS, len(records), 0
    )
    return head + b"".join(records)


def deserialize_galois_keyset(data: bytes, ctx: CheContext) -> "GaloisKeyset":
    from .keys import GaloisKeyset

    if data[:4] != MAGIC:
        raise ValueError("bad magic; not a CHAM wire object")
    version, tag, count, _zero = _unpack("<BBHI", data, 4)
    if version != _VERSION or tag != _TYPE_GALOIS:
        raise ValueError("not a Galois keyset blob")
    off = 12
    keyset = GaloisKeyset()
    for _ in range(count):
        g, length = _unpack("<II", data, off)
        off += 8
        keyset.keys[g] = deserialize_keyswitch_key(data[off : off + length], ctx)
        off += length
    _check_length(data, off)
    return keyset
