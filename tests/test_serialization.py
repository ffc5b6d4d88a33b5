"""Tests for the wire format and communication accounting."""

import numpy as np
import pytest

from repro.he.encoder import CoefficientEncoder
from repro.he.lwe import extract_lwe
from repro.he.rlwe import decrypt, encrypt
from repro.he.serialization import (
    deserialize_lwe,
    deserialize_plaintext,
    deserialize_rlwe,
    pack_limbs,
    rlwe_wire_bytes,
    serialize_lwe,
    serialize_plaintext,
    serialize_rlwe,
    unpack_limbs,
)


@pytest.fixture(scope="module")
def enc(params128):
    return CoefficientEncoder(params128)


def test_pack_unpack_roundtrip(ctx128, rng):
    basis = ctx128.aug_basis
    limbs = np.stack(
        [rng.integers(0, q, 128, dtype=np.uint64) for q in basis]
    )
    data = pack_limbs(limbs, basis.moduli)
    back, used = unpack_limbs(data, basis.moduli, 128)
    assert used == len(data)
    assert np.array_equal(back, limbs)


def test_packing_is_compact(ctx128, rng):
    """35-bit limbs pack at ~35/64 of the naive uint64 dump."""
    q = ctx128.ct_basis.moduli[0]
    limbs = rng.integers(0, q, 128, dtype=np.uint64)[None, :]
    data = pack_limbs(limbs, (q,))
    naive = 128 * 8
    assert len(data) == (35 * 128 + 7) // 8
    assert len(data) < 0.6 * naive


def test_plaintext_roundtrip(enc, rng):
    pt = enc.encode_coeffs(rng.integers(-1000, 1000, 128))
    data = serialize_plaintext(pt)
    back = deserialize_plaintext(data, enc.t)
    assert back == pt


def test_plaintext_modulus_check(enc, rng):
    pt = enc.encode_coeffs(rng.integers(-10, 10, 128))
    data = serialize_plaintext(pt)
    with pytest.raises(ValueError, match="modulus mismatch"):
        deserialize_plaintext(data, enc.t + 2)


@pytest.mark.parametrize("augmented", [True, False])
def test_rlwe_roundtrip(ctx128, sk128, enc, rng, augmented):
    pt = enc.encode_coeffs(rng.integers(-1000, 1000, 128))
    ct = encrypt(ctx128, sk128, pt, augmented=augmented)
    data = serialize_rlwe(ct)
    back = deserialize_rlwe(data, ctx128)
    assert back.is_augmented == augmented
    assert np.array_equal(back.c0, ct.c0)
    assert np.array_equal(back.c1, ct.c1)
    assert decrypt(ctx128, sk128, back) == pt


def test_rlwe_wire_size_matches_helper(ctx128, sk128, enc, rng):
    pt = enc.encode_coeffs(rng.integers(-10, 10, 128))
    for augmented in (True, False):
        ct = encrypt(ctx128, sk128, pt, augmented=augmented)
        data = serialize_rlwe(ct)
        assert len(data) == rlwe_wire_bytes(128, ct.basis.moduli)


def test_production_ciphertext_wire_size():
    """Paper accounting: a normal-basis N=4096 ciphertext is 4 polys of
    35-bit coefficients: ~71.7 KiB (vs 128 KiB naive)."""
    from repro.math.primes import CHAM_Q0, CHAM_Q1

    size = rlwe_wire_bytes(4096, (CHAM_Q0, CHAM_Q1))
    assert size == 12 + 4 * ((35 * 4096 + 7) // 8)
    assert 70_000 < size < 74_000


def test_lwe_roundtrip(ctx128, sk128, enc, rng):
    vals = rng.integers(-500, 500, 128)
    ct = encrypt(ctx128, sk128, enc.encode_coeffs(vals), augmented=False)
    lwe = extract_lwe(ct, 3)
    back = deserialize_lwe(serialize_lwe(lwe), ctx128)
    assert np.array_equal(back.a, lwe.a)
    assert np.array_equal(back.b, lwe.b)
    from repro.he.lwe import decrypt_lwe

    assert decrypt_lwe(ctx128, sk128, back) == vals[3]


def test_bad_magic(ctx128):
    with pytest.raises(ValueError, match="magic"):
        deserialize_rlwe(b"NOPE" + b"\0" * 20, ctx128)


def test_wrong_type_tag(enc, ctx128, rng):
    pt = enc.encode_coeffs(rng.integers(-10, 10, 128))
    data = serialize_plaintext(pt)
    with pytest.raises(ValueError, match="wire type"):
        deserialize_rlwe(data, ctx128)


def test_truncated_payload(ctx128, sk128, enc, rng):
    ct = encrypt(ctx128, sk128, enc.encode_coeffs([1]), augmented=False)
    data = serialize_rlwe(ct)
    with pytest.raises(ValueError, match="truncated"):
        deserialize_rlwe(data[:40], ctx128)


def test_wrong_ring_degree(ctx128, sk128, enc, rng):
    from repro.he.context import CheContext
    from repro.he.params import toy_params

    ct = encrypt(ctx128, sk128, enc.encode_coeffs([1]), augmented=False)
    other = CheContext(toy_params(n=64, plain_bits=40), seed=0)
    with pytest.raises(ValueError, match="degree"):
        deserialize_rlwe(serialize_rlwe(ct), other)


def test_secret_key_roundtrip(sk128):
    from repro.he.serialization import (
        deserialize_secret_key,
        serialize_secret_key,
    )

    blob = serialize_secret_key(sk128)
    back = deserialize_secret_key(blob)
    assert np.array_equal(back.signed, sk128.signed)
    # ternary packing: 2 bits per coefficient + 12-byte header
    assert len(blob) == 12 + (2 * 128 + 7) // 8


def test_keyswitch_key_roundtrip(ctx128, sk128):
    from repro.he.keys import generate_keyswitch_key, generate_secret_key
    from repro.he.serialization import (
        deserialize_keyswitch_key,
        serialize_keyswitch_key,
    )

    other = generate_secret_key(ctx128)
    ksk = generate_keyswitch_key(ctx128, other, sk128)
    blob = serialize_keyswitch_key(ksk, ctx128.aug_basis.moduli)
    back = deserialize_keyswitch_key(blob, ctx128)
    assert back.decomp_count == ksk.decomp_count
    for i in range(ksk.decomp_count):
        assert np.array_equal(back.b_ntt[i], ksk.b_ntt[i])
        assert np.array_equal(back.a_ntt[i], ksk.a_ntt[i])
    # and it still switches keys correctly
    from repro.he.encoder import CoefficientEncoder
    from repro.he.keyswitch import apply_keyswitch
    from repro.he.rlwe import decrypt, encrypt

    enc = CoefficientEncoder(ctx128.params)
    pt = enc.encode_coeffs([42, -7])
    ct = encrypt(ctx128, other, pt, augmented=False)
    assert decrypt(ctx128, sk128, apply_keyswitch(ct, back)) == pt


def test_galois_keyset_roundtrip(ctx128, sk128, galois128):
    from repro.he.serialization import (
        deserialize_galois_keyset,
        serialize_galois_keyset,
    )

    blob = serialize_galois_keyset(galois128, ctx128.aug_basis.moduli)
    back = deserialize_galois_keyset(blob, ctx128)
    assert set(back.keys) == set(galois128.keys)
    g = next(iter(galois128.keys))
    assert np.array_equal(back.keys[g].b_ntt[0], galois128.keys[g].b_ntt[0])


def test_galois_keyset_bad_blob(ctx128):
    from repro.he.serialization import deserialize_galois_keyset

    with pytest.raises(ValueError):
        deserialize_galois_keyset(b"XXXX" + b"\0" * 12, ctx128)


def _reference_pack_limbs(limbs, moduli):
    """Pre-vectorization pack_limbs (per-coefficient big-int loop).

    Kept as the wire-format oracle: the NumPy implementation must produce
    byte-identical output for every modulus width.
    """
    limbs = np.asarray(limbs, dtype=np.uint64)
    out = bytearray()
    for i, q in enumerate(moduli):
        bits = (q - 1).bit_length()
        acc = 0
        acc_bits = 0
        chunk = bytearray()
        for v in limbs[i]:
            acc |= int(v) << acc_bits
            acc_bits += bits
            while acc_bits >= 8:
                chunk.append(acc & 0xFF)
                acc >>= 8
                acc_bits -= 8
        if acc_bits:
            chunk.append(acc & 0xFF)
        out += chunk
    return bytes(out)


def _reference_unpack_limbs(data, moduli, n):
    """Pre-vectorization unpack_limbs (per-coefficient big-int loop)."""
    limbs = np.empty((len(moduli), n), dtype=np.uint64)
    offset = 0
    for i, q in enumerate(moduli):
        bits = (q - 1).bit_length()
        total_bytes = (bits * n + 7) // 8
        acc = int.from_bytes(data[offset : offset + total_bytes], "little")
        mask = (1 << bits) - 1
        for j in range(n):
            limbs[i, j] = (acc >> (j * bits)) & mask
        offset += total_bytes
    return limbs, offset


def test_pack_limbs_matches_reference_bytes(rng):
    """Vectorized packing is byte-identical to the original loop, including
    the odd-width 35-bit (q0/q1) and 39-bit (p) CHAM moduli."""
    from repro.math.primes import CHAM_P, CHAM_Q0, CHAM_Q1, find_ntt_prime

    widths = [
        (CHAM_Q0, CHAM_Q1, CHAM_P),  # 35/35/39-bit production moduli
        (find_ntt_prime(17, 8),),  # small odd width
        (find_ntt_prime(20, 8), find_ntt_prime(33, 8)),
        ((1 << 24) + 1,),  # byte-aligned width for contrast
    ]
    for moduli in widths:
        for n in (1, 7, 8, 64):
            limbs = np.stack(
                [rng.integers(0, q, n, dtype=np.uint64) for q in moduli]
            )
            data = pack_limbs(limbs, moduli)
            assert data == _reference_pack_limbs(limbs, moduli), moduli
            back, used = unpack_limbs(data, moduli, n)
            ref_back, ref_used = _reference_unpack_limbs(data, moduli, n)
            assert used == ref_used == len(data)
            assert np.array_equal(back, limbs)
            assert np.array_equal(back, ref_back)


def test_pack_limbs_extreme_values():
    """All-zero and all-max coefficients hit every bit lane."""
    q = 2**34 + 2**27 + 1  # CHAM_Q0, 35 bits
    n = 16
    for fill in (0, q - 1):
        limbs = np.full((1, n), fill, dtype=np.uint64)
        data = pack_limbs(limbs, (q,))
        assert data == _reference_pack_limbs(limbs, (q,))
        back, _ = unpack_limbs(data, (q,), n)
        assert np.array_equal(back, limbs)


def test_pack_roundtrip_property():
    """Hypothesis: arbitrary limb contents survive bit-packing at any
    modulus width in the supported range."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        bits=st.integers(min_value=17, max_value=41),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def inner(bits, seed):
        from repro.math.primes import find_ntt_prime

        q = find_ntt_prime(bits, 8)
        r = np.random.default_rng(seed)
        limbs = r.integers(0, q, 16, dtype=np.uint64)[None, :]
        data = pack_limbs(limbs, (q,))
        back, used = unpack_limbs(data, (q,), 16)
        assert used == len(data)
        assert np.array_equal(back, limbs)

    inner()


@pytest.fixture(scope="module")
def wire_blobs(ctx128, sk128, enc):
    """One well-formed blob per deserializer, with how to read it back,
    where its body starts, and the moduli of its first and last limb."""
    from repro.he.keys import generate_keyswitch_key, generate_secret_key
    from repro.he.serialization import (
        deserialize_keyswitch_key,
        deserialize_secret_key,
        serialize_keyswitch_key,
        serialize_secret_key,
    )

    r = np.random.default_rng(7)
    pt = enc.encode_coeffs(r.integers(-1000, 1000, 128))
    ct = encrypt(ctx128, sk128, pt, augmented=True)
    lwe = extract_lwe(encrypt(ctx128, sk128, pt, augmented=False), 3)
    ksk = generate_keyswitch_key(ctx128, generate_secret_key(ctx128), sk128)
    ct_moduli = ctx128.ct_basis.moduli
    aug_moduli = ctx128.aug_basis.moduli
    return {
        # ternary codes are 2 bits each and must be below 3
        "secret_key": (
            serialize_secret_key(sk128),
            deserialize_secret_key,
            12,
            (3, 3),
        ),
        "plaintext": (
            serialize_plaintext(pt),
            lambda data: deserialize_plaintext(data, enc.t),
            20,
            (enc.t, enc.t),
        ),
        "rlwe": (
            serialize_rlwe(ct),
            lambda data: deserialize_rlwe(data, ctx128),
            12,
            (aug_moduli[0], aug_moduli[-1]),
        ),
        "lwe": (
            serialize_lwe(lwe),
            lambda data: deserialize_lwe(data, ctx128),
            12,
            (ct_moduli[0], ct_moduli[-1]),
        ),
        "keyswitch_key": (
            serialize_keyswitch_key(ksk, aug_moduli),
            lambda data: deserialize_keyswitch_key(data, ctx128),
            14,
            (aug_moduli[0], aug_moduli[-1]),
        ),
    }


def _all_ones(data, start, count):
    return data[:start] + b"\xff" * count + data[start + count :]


def _coeff_bytes(q):
    """Bytes that cover one coefficient of modulus ``q`` wherever it starts."""
    return (q - 1).bit_length() // 8 + 2


#: name -> (blob, body offset, (first q, last q)) -> malformed blob
_MALFORMED = {
    "truncated-empty": lambda d, off, qs: d[:0],
    "truncated-in-magic": lambda d, off, qs: d[:3],
    "truncated-in-header": lambda d, off, qs: d[:11],
    "truncated-after-header": lambda d, off, qs: d[:12],
    "truncated-mid-body": lambda d, off, qs: d[: len(d) // 2],
    "truncated-last-byte": lambda d, off, qs: d[:-1],
    "bad-magic": lambda d, off, qs: b"XHAM" + d[4:],
    "bad-version": lambda d, off, qs: d[:4] + bytes([2]) + d[5:],
    "bad-type-tag": lambda d, off, qs: d[:5] + bytes([99]) + d[6:],
    "bad-limb-count": lambda d, off, qs: d[:6] + bytes([7, 0]) + d[8:],
    # every bit of a coefficient set gives 2**bits - 1 >= q: the first
    # coefficient of the first limb, and the last of the last limb (the
    # blob's last bits, before < 8 bits of zero padding)
    "first-coeff-ge-q": lambda d, off, qs: _all_ones(
        d, off, _coeff_bytes(qs[0])
    ),
    "last-coeff-ge-q": lambda d, off, qs: _all_ones(
        d, len(d) - _coeff_bytes(qs[1]), _coeff_bytes(qs[1])
    ),
    "trailing-byte": lambda d, off, qs: d + b"\0",
    "trailing-blob": lambda d, off, qs: d + d,
}


@pytest.mark.parametrize("mutation", sorted(_MALFORMED))
@pytest.mark.parametrize(
    "kind", ["secret_key", "plaintext", "rlwe", "lwe", "keyswitch_key"]
)
def test_malformed_wire_bytes_raise_value_error(wire_blobs, kind, mutation):
    """Malformed bytes raise ``ValueError`` — never ``struct.error``, never
    a silently wrong object.  (A flip that keeps a coefficient below its
    modulus is indistinguishable from valid data without a checksum.)"""
    blob, read, body_off, moduli = wire_blobs[kind]
    read(blob)  # the unmodified blob parses
    bad = _MALFORMED[mutation](blob, body_off, moduli)
    assert bad != blob
    with pytest.raises(ValueError):
        read(bad)
