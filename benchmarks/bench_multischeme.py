"""Extension bench — the multi-scheme / conversion pitch of Section I.

The paper positions CHAM as the first accelerator designed for the
"fast-evolving algorithms" that (a) convert between ciphertext types and
(b) compose B/FV with CKKS.  This bench quantifies the hardware-sharing
claim: a CKKS HMVP issues the *same* operation mix as a BFV HMVP, so one
pipeline serves both — plus the cost of each conversion primitive and
the wire sizes of everything a hybrid protocol exchanges.
"""

import numpy as np
import pytest
from conftest import print_table

from repro.he.bfv import BfvScheme
from repro.he.ckks import CkksScheme
from repro.he.conversion import bfv_to_ckks, ckks_to_bfv
from repro.he.params import toy_params
from repro.he.serialization import rlwe_wire_bytes, serialize_rlwe
from repro.hw.perf import ChamPerfModel
from repro.math.primes import CHAM_P, CHAM_Q0, CHAM_Q1


@pytest.fixture(scope="module")
def schemes():
    params = toy_params(n=128, plain_bits=40)
    bfv = BfvScheme(params, seed=61, max_pack=8)
    ckks = CkksScheme(params, seed=62, shared_secret=bfv.secret_key, max_pack=8)
    return bfv, ckks


def test_same_pipeline_serves_both_schemes(schemes, rng):
    """Cycle-level claim: a CKKS HMVP job costs the same cycles as a BFV
    job of the same shape — the cycle model sees only the shape, and the
    scheme lives in the host-side encode/decode."""
    cycles = ChamPerfModel().hmvp_cycles(4096, 4096)
    rows = [
        ("BFV HMVP 4096x4096", f"{cycles:,}"),
        ("CKKS HMVP 4096x4096", f"{cycles:,}"),
    ]
    print_table("One pipeline, two schemes", ["job", "cycles"], rows)


def test_functional_equivalence_of_op_mix(schemes, rng):
    """The CKKS dot product performs the same transforms per row."""
    bfv, ckks = schemes
    v = rng.integers(-50, 50, 128)
    ct_b = bfv.encrypt_vector(v)
    out_b = bfv.dot_product(ct_b, v)
    ct_c = ckks.encrypt_coeffs(v.astype(float) / 50.0)
    out_c = ckks.dot_product(ct_c, v.astype(float) / 50.0)
    # both land in the normal basis after the same rescale
    assert out_b.poly_count == out_c.ct.poly_count == 4


def test_conversion_cost_table(schemes, rng):
    """Conversions are cheap relative to one dot product."""
    bfv, ckks = schemes
    ints = rng.integers(-100, 100, 128)
    ct = bfv.encrypt_vector(ints, augmented=False)
    # bfv->ckks: zero arithmetic; ckks->bfv: 2*limbs scalar passes
    rows = [
        ("BFV -> CKKS", "0 (reinterpretation)"),
        ("CKKS -> BFV", "4 coefficient-wise scalar multiplies"),
        ("RLWE -> LWE (extract)", "0 (data movement)"),
        ("LWE -> RLWE (Eq. 3)", "0 (data movement)"),
        ("pack m LWEs", "m-1 PACKTWOLWES (1 automorph + 1 KS each)"),
    ]
    print_table("Conversion primitive costs", ["conversion", "arithmetic"], rows)
    conv = bfv_to_ckks(bfv, ct)
    out = ckks.decrypt_coeffs(conv, 128)
    assert np.max(np.abs(out - ints)) < 1e-3
    back = ckks_to_bfv(bfv, conv)
    dec = bfv.decrypt_coeffs(back, 128)
    assert np.array_equal(np.array([int(x) for x in dec]), ints)


def test_wire_sizes_table(schemes):
    """What a hybrid two-party protocol actually ships (N=4096)."""
    normal = rlwe_wire_bytes(4096, (CHAM_Q0, CHAM_Q1))
    augmented = rlwe_wire_bytes(4096, (CHAM_Q0, CHAM_Q1, CHAM_P))
    rows = [
        ("RLWE ct (normal, 4 polys)", f"{normal / 1024:.1f} KiB"),
        ("RLWE ct (augmented, 6 polys)", f"{augmented / 1024:.1f} KiB"),
        ("cleartext vector (4096 x 40b)", f"{4096 * 5 / 1024:.1f} KiB"),
        ("expansion factor (normal)", f"{normal / (4096 * 5):.1f}x"),
    ]
    print_table("Wire sizes at production parameters", ["object", "size"], rows)
    assert 3 < normal / (4096 * 5) < 5  # the HE bandwidth expansion


@pytest.mark.benchmark(group="multischeme")
def test_perf_bfv_to_ckks(benchmark, schemes, rng):
    bfv, _ = schemes
    ct = bfv.encrypt_vector(rng.integers(-10, 10, 128), augmented=False)
    benchmark(bfv_to_ckks, bfv, ct)


@pytest.mark.benchmark(group="multischeme")
def test_perf_ckks_dot_product(benchmark, schemes, rng):
    _, ckks = schemes
    ct = ckks.encrypt_coeffs(rng.normal(0, 1, 128))
    row = rng.normal(0, 1, 128)
    benchmark(ckks.dot_product, ct, row)


@pytest.mark.benchmark(group="multischeme")
def test_perf_serialize_rlwe(benchmark, schemes, rng):
    bfv, _ = schemes
    ct = bfv.encrypt_vector(rng.integers(-10, 10, 128), augmented=False)
    benchmark(serialize_rlwe, ct)


def test_bgv_joins_the_trio(schemes, rng):
    """The third scheme of the §I trio on the same substrate, with exact
    embedding switches in both directions."""
    from repro.he.bgv import BgvScheme, bgv_to_bfv, conversion_factor

    bfv, _ckks = schemes
    bgv = BgvScheme(bfv.params, seed=63, shared_secret=bfv.secret_key)
    v = rng.integers(-50, 50, 128)
    row = rng.integers(-50, 50, 128)
    dp = bgv.dot_product(bgv.encrypt_vector(v), row)
    got = int(bgv.decrypt_coeffs(dp, 1)[0])
    want = int(np.dot(row.astype(object), v.astype(object)))
    assert got == want
    # cross into BFV with the public message factor
    t = bfv.params.plain_modulus
    f = conversion_factor(bfv.params, "bgv->bfv")
    converted = bgv_to_bfv(bgv, bgv.encrypt_vector(v))
    dec = bfv.decrypt_coeffs(converted, 128)
    expect = (v.astype(object) * f) % t
    half = t // 2
    expect = np.where(expect > half, expect - t, expect)
    assert np.array_equal(
        np.array([int(x) for x in dec], dtype=object), expect
    )
    rows = [
        ("BFV", "exact integers", "native"),
        ("BGV", "exact integers (LSB)", "1 scalar mult each way"),
        ("CKKS", "approximate reals", "exact reinterpretation in"),
    ]
    print_table(
        "Scheme trio on one substrate/key",
        ["scheme", "message domain", "conversion"],
        rows,
    )
