"""Tests for the abstract HE-state interpreter (REPRO201..206).

Three layers, mirroring how the analysis is built:

* lattice unit tests — joins, widening, container mixing;
* interpreter behavior — loops reach a fixed point (a loop that
  rescales N times widens the level to unknown instead of diverging or
  firing), branches join (diverging domains become unknown, which must
  *suppress* downstream checks), summaries flow across same-module
  calls;
* per-rule fixtures — each rule fires on its hazard, stays quiet on the
  disciplined version, and honors ``# repro: noqa``;

plus the self-check: ``src/repro`` is clean under all six rules, and
the full-tree analysis fits the CI timing budget.
"""

import time
from pathlib import Path

import pytest

from repro.analysis import get_rules, lint_paths, lint_source
from repro.analysis.dataflow import (
    DEFAULT_LEVEL,
    MAX_LOOP_ITERATIONS,
    TRANSFERS,
    ContainerState,
    HEState,
    analyze_source,
)
from repro.analysis.core import SourceFile

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

DATAFLOW_IDS = [f"REPRO20{i}" for i in range(1, 7)]


def run_rule(rule_id, text):
    return lint_source(text, rules=get_rules([rule_id]))


def fired(rule_id, text):
    return [d.line for d in run_rule(rule_id, text)]


# ---------------------------------------------------------------------------
# lattice


class TestLattice:
    def test_join_keeps_agreement_and_tops_disagreement(self):
        a = HEState(basis="base", domain="ntt", level=1)
        b = HEState(basis="base", domain="coeff", level=1)
        j = a.join(b)
        assert j.basis == "base"
        assert j.domain is None  # disagreement widens to unknown
        assert j.level == 1

    def test_join_is_commutative_and_idempotent(self):
        a = HEState(basis="aug", domain="ntt", level=2, needs_rescale=True)
        b = HEState(basis="base", domain="ntt", level=1)
        assert a.join(b) == b.join(a)
        assert a.join(a) == a

    def test_unknown_state_is_never_definite(self):
        assert not HEState().is_definite
        assert HEState(level=0).is_definite

    def test_container_store_tracks_mixing(self):
        c = ContainerState()
        c = c.store(HEState(domain="ntt", level=1))
        assert not c.mixed_domain
        c = c.store(HEState(domain="coeff", level=1))
        assert c.mixed_domain
        assert not c.mixed_level
        loaded = c.load()
        assert loaded.from_mixed
        assert loaded.domain is None

    def test_container_same_state_does_not_mix(self):
        c = ContainerState()
        c = c.store(HEState(domain="ntt", level=1))
        c = c.store(HEState(domain="ntt", level=1))
        assert not c.mixed_domain and not c.mixed_level
        assert not c.load().from_mixed

    def test_transfer_table_covers_the_api_surface(self):
        # the rules are only as good as the table: pin the load-bearing
        # entries so a refactor that drops one fails loudly
        for name in (
            "encrypt",
            "encrypt_vector",
            "ntt_limbs",
            "intt_limbs",
            "multiply_plain",
            "modadd_vec",
            "modsub_vec",
            "rescale_last",
            "extend_to",
            "apply_keyswitch",
            "pack_lwes",
            "pack_stacked_lwes",
            "decrypt",
        ):
            assert name in TRANSFERS, name


# ---------------------------------------------------------------------------
# interpreter behavior


class TestInterpreter:
    def test_summaries_flow_across_same_module_calls(self):
        src = SourceFile(
            "def make(scheme, v):\n"
            "    return scheme.encrypt(v)\n"
            "def use(scheme, v):\n"
            "    ct = make(scheme, v)\n"
            "    return rescale_last(rescale_last(ct))\n",
            "m.py",
        )
        analysis = analyze_source(src)
        assert analysis.summaries["make"].level == DEFAULT_LEVEL
        # encrypt -> level 1; second rescale underflows via the summary
        assert any(f.rule_id == "REPRO205" for f in analysis.findings)

    def test_loop_that_rescales_reaches_fixed_point_by_widening(self):
        # the level strictly decreases each iteration: no finite join
        # converges, so the widening must kick in and the level must
        # end the loop unknown — in particular REPRO205 must NOT fire
        # (the loop bound is runtime data the analysis cannot see)
        src = SourceFile(
            "def f(scheme, v, n):\n"
            "    ct = scheme.encrypt(v)\n"
            "    for _ in range(n):\n"
            "        ct = rescale_last(ct)\n"
            "    return ct\n",
            "m.py",
        )
        analysis = analyze_source(src)
        assert analysis.converged
        assert analysis.loop_iterations["f"] <= MAX_LOOP_ITERATIONS + 2
        assert not [
            f for f in analysis.findings if f.rule_id == "REPRO205"
        ]
        assert analysis.summaries["f"].level is None  # widened

    def test_state_stable_loop_converges_without_widening(self):
        src = SourceFile(
            "def f(ctx, xs, q):\n"
            "    acc = ctx.ntt_limbs(xs)\n"
            "    for x in [acc]:\n"
            "        acc = modadd_vec(acc, x, q)\n"
            "    return acc\n",
            "m.py",
        )
        analysis = analyze_source(src)
        assert analysis.converged
        assert analysis.loop_iterations["f"] <= MAX_LOOP_ITERATIONS

    def test_branch_join_suppresses_definite_checks(self):
        # the two arms disagree on the domain, so after the join the
        # value is unknown — pairing it must NOT fire REPRO201
        clean = (
            "def f(ctx, a, b, cond, q):\n"
            "    if cond:\n"
            "        x = ctx.ntt_limbs(a)\n"
            "    else:\n"
            "        x = ctx.plaintext_limbs(a)\n"
            "    y = ctx.plaintext_limbs(b)\n"
            "    return modadd_vec(x, y, q)\n"
        )
        assert fired("REPRO201", clean) == []

    def test_branch_join_keeps_agreeing_state(self):
        # both arms produce NTT-domain values: the join stays definite
        # and pairing with a coeff value must still fire
        text = (
            "def f(ctx, a, b, cond, q):\n"
            "    if cond:\n"
            "        x = ctx.ntt_limbs(a)\n"
            "    else:\n"
            "        x = ctx.ntt_limbs(b)\n"
            "    y = ctx.plaintext_limbs(b)\n"
            "    return modadd_vec(x, y, q)\n"
        )
        assert fired("REPRO201", text) == [7]

    def test_tuple_unpacking_and_subscript_preserve_state(self):
        text = (
            "def f(ctx, a, q):\n"
            "    x = ctx.ntt_limbs(a)\n"
            "    pair = (x, x)\n"
            "    y = pair[0]\n"
            "    z = ctx.plaintext_limbs(a)\n"
            "    return modadd_vec(y, z, q)\n"
        )
        assert fired("REPRO201", text) == [6]

    def test_unknown_values_never_fire(self):
        # parameters and unlisted calls carry no definite state: the
        # analysis must stay silent however they are combined
        clean = (
            "def f(a, b, q):\n"
            "    x = mystery(a)\n"
            "    return modadd_vec(x, b, q)\n"
        )
        for rid in DATAFLOW_IDS:
            assert fired(rid, clean) == []

    def test_analysis_is_cached_per_content(self):
        src = SourceFile("def f():\n    return 1\n", "cache_probe.py")
        assert analyze_source(src) is analyze_source(src)


# ---------------------------------------------------------------------------
# per-rule fixtures


class TestDomainMismatch:
    def test_fires_on_ntt_coeff_pairing(self):
        assert fired(
            "REPRO201",
            "def f(ctx, a, b, q):\n"
            "    x = ctx.ntt_limbs(a)\n"
            "    y = ctx.plaintext_limbs(b)\n"
            "    return modadd_vec(x, y, q)\n",
        ) == [4]

    def test_fires_on_double_forward_ntt(self):
        assert fired(
            "REPRO201",
            "def f(ctx, a):\n"
            "    x = ctx.ntt_limbs(a)\n"
            "    return ctx.ntt_limbs(x)\n",
        ) == [3]

    def test_fires_on_intt_of_coeff_value(self):
        assert fired(
            "REPRO201",
            "def f(ctx, a):\n"
            "    x = ctx.plaintext_limbs(a)\n"
            "    return ctx.intt_limbs(x)\n",
        ) == [3]

    def test_clean_on_matched_domains(self):
        assert fired(
            "REPRO201",
            "def f(ctx, a, b, q):\n"
            "    x = ctx.ntt_limbs(a)\n"
            "    y = ctx.ntt_limbs(b)\n"
            "    return modmul_vec(x, y, q)\n",
        ) == []

    def test_roundtrip_is_clean(self):
        assert fired(
            "REPRO201",
            "def f(ctx, a):\n"
            "    x = ctx.ntt_limbs(a)\n"
            "    back = ctx.intt_limbs(x)\n"
            "    return ctx.ntt_limbs(back)\n",
        ) == []

    def test_noqa_suppresses(self):
        text = (
            "def f(ctx, a, b, q):\n"
            "    x = ctx.ntt_limbs(a)\n"
            "    y = ctx.plaintext_limbs(b)\n"
            "    return modadd_vec(x, y, q)  # repro: noqa REPRO201\n"
        )
        assert fired("REPRO201", text) == []


class TestLevelMismatch:
    def test_fires_on_cross_level_add(self):
        assert fired(
            "REPRO202",
            "def f(scheme, v, w, q):\n"
            "    a = scheme.encrypt_vector(v)\n"
            "    b = rescale_last(scheme.encrypt_vector(w))\n"
            "    return modadd_vec(a, b, q)\n",
        ) == [4]

    def test_fires_on_operator_add(self):
        assert fired(
            "REPRO202",
            "def f(scheme, v, w):\n"
            "    a = scheme.encrypt_vector(v)\n"
            "    b = rescale_last(scheme.encrypt_vector(w))\n"
            "    return a + b\n",
        ) == [4]

    def test_clean_on_matched_levels(self):
        assert fired(
            "REPRO202",
            "def f(scheme, v, w, q):\n"
            "    a = rescale_last(scheme.encrypt_vector(v))\n"
            "    b = rescale_last(scheme.encrypt_vector(w))\n"
            "    return modadd_vec(a, b, q)\n",
        ) == []

    def test_noqa_suppresses(self):
        text = (
            "def f(scheme, v, w, q):\n"
            "    a = scheme.encrypt_vector(v)\n"
            "    b = rescale_last(scheme.encrypt_vector(w))\n"
            "    return modadd_vec(a, b, q)  # repro: noqa REPRO202\n"
        )
        assert fired("REPRO202", text) == []


class TestMultiplyWithoutRescale:
    def test_fires_on_pack_of_unrescaled_product(self):
        assert fired(
            "REPRO203",
            "def f(ct, pt, ctx):\n"
            "    prod = ct.multiply_plain(pt)\n"
            "    return pack_lwes(prod, ctx)\n",
        ) == [3]

    def test_fires_on_keyswitch_of_unrescaled_product(self):
        assert fired(
            "REPRO203",
            "def f(ct, pt, ksk):\n"
            "    prod = ct.multiply_plain(pt)\n"
            "    return apply_keyswitch(prod, ksk)\n",
        ) == [3]

    def test_clean_when_rescaled_first(self):
        assert fired(
            "REPRO203",
            "def f(ct, pt, ctx):\n"
            "    prod = ct.multiply_plain(pt)\n"
            "    prod = rescale_last(prod)\n"
            "    return pack_lwes(prod, ctx)\n",
        ) == []

    def test_noqa_suppresses(self):
        text = (
            "def f(ct, pt, ctx):\n"
            "    prod = ct.multiply_plain(pt)\n"
            "    return pack_lwes(prod, ctx)  # repro: noqa REPRO203\n"
        )
        assert fired("REPRO203", text) == []


class TestAugmentedBasisEscape:
    def test_fires_on_return_of_extended_value(self):
        assert fired(
            "REPRO204",
            "def f(basis, scheme, v):\n"
            "    ct = scheme.encrypt(v)\n"
            "    up = basis.extend_to(ct)\n"
            "    return up\n",
        ) == [4]

    def test_fires_on_attribute_store(self):
        assert fired(
            "REPRO204",
            "class H:\n"
            "    def f(self, basis, scheme, v):\n"
            "        ct = scheme.encrypt(v)\n"
            "        self.saved = basis.extend_to(ct)\n",
        ) == [4]

    def test_fires_on_decrypt_of_aug_value(self):
        assert fired(
            "REPRO204",
            "def f(basis, scheme, v, sk):\n"
            "    ct = scheme.encrypt(v)\n"
            "    up = basis.extend_to(ct)\n"
            "    return decrypt(up, sk)\n",
        ) == [4]

    def test_clean_when_consumed_by_rescale(self):
        assert fired(
            "REPRO204",
            "def f(basis, scheme, v):\n"
            "    ct = scheme.encrypt(v)\n"
            "    up = basis.extend_to(ct)\n"
            "    return rescale_last(up)\n",
        ) == []

    def test_clean_when_consumed_by_keyswitch(self):
        assert fired(
            "REPRO204",
            "def f(basis, scheme, v, ksk):\n"
            "    ct = scheme.encrypt(v)\n"
            "    up = basis.extend_to(ct)\n"
            "    return apply_keyswitch(up, ksk)\n",
        ) == []

    def test_noqa_suppresses(self):
        text = (
            "def f(basis, scheme, v):\n"
            "    ct = scheme.encrypt(v)\n"
            "    up = basis.extend_to(ct)\n"
            "    return up  # repro: noqa REPRO204\n"
        )
        assert fired("REPRO204", text) == []


class TestChainUnderflow:
    def test_fires_past_the_chain_floor(self):
        assert fired(
            "REPRO205",
            "def f(scheme, v):\n"
            "    ct = scheme.encrypt(v)\n"
            "    ct = rescale_last(ct)\n"
            "    ct = rescale_last(ct)\n"
            "    return ct\n",
        ) == [4]

    def test_single_rescale_is_clean(self):
        assert fired(
            "REPRO205",
            "def f(scheme, v):\n"
            "    ct = scheme.encrypt(v)\n"
            "    return rescale_last(ct)\n",
        ) == []

    def test_unknown_level_is_clean(self):
        assert fired(
            "REPRO205",
            "def f(ct):\n"
            "    return rescale_last(rescale_last(ct))\n",
        ) == []

    def test_noqa_suppresses(self):
        text = (
            "def f(scheme, v):\n"
            "    ct = scheme.encrypt(v)\n"
            "    ct = rescale_last(ct)\n"
            "    ct = rescale_last(ct)  # repro: noqa REPRO205\n"
            "    return ct\n"
        )
        assert fired("REPRO205", text) == []


class TestStateLostInContainer:
    def test_fires_on_mixed_container_consumer(self):
        assert fired(
            "REPRO206",
            "def f(ctx, a, b, c):\n"
            "    xs = []\n"
            "    xs.append(ctx.ntt_limbs(a))\n"
            "    xs.append(ctx.plaintext_limbs(b))\n"
            "    return pack_lwes(xs[0], c)\n",
        ) == [5]

    def test_homogeneous_container_is_clean(self):
        assert fired(
            "REPRO206",
            "def f(ctx, a, b, c):\n"
            "    xs = []\n"
            "    xs.append(ctx.ntt_limbs(a))\n"
            "    xs.append(ctx.ntt_limbs(b))\n"
            "    return pack_lwes(xs[0], c)\n",
        ) == []

    def test_severity_is_warning(self):
        diags = run_rule(
            "REPRO206",
            "def f(ctx, a, b, c):\n"
            "    xs = [ctx.ntt_limbs(a), ctx.plaintext_limbs(b)]\n"
            "    return pack_lwes(xs[0], c)\n",
        )
        assert diags and all(d.severity == "warning" for d in diags)

    def test_noqa_suppresses(self):
        text = (
            "def f(ctx, a, b, c):\n"
            "    xs = [ctx.ntt_limbs(a), ctx.plaintext_limbs(b)]\n"
            "    return pack_lwes(xs[0], c)  # repro: noqa REPRO206\n"
        )
        assert fired("REPRO206", text) == []


# ---------------------------------------------------------------------------
# self-check + budget


class TestSelfCheck:
    def test_src_repro_is_clean_under_dataflow_rules(self):
        diags = lint_paths(
            [SRC], rules=get_rules(DATAFLOW_IDS), root=SRC.parents[1]
        )
        assert diags == [], "\n".join(d.format() for d in diags)

    def test_every_function_reaches_a_fixed_point(self):
        for path in sorted(SRC.rglob("*.py")):
            src = SourceFile.from_path(path, root=SRC.parents[1])
            analysis = analyze_source(src)
            assert analysis.converged, src.rel
            for qual, iters in analysis.loop_iterations.items():
                assert iters <= MAX_LOOP_ITERATIONS + 2, (src.rel, qual)

    def test_full_tree_fits_the_timing_budget(self):
        # the ISSUE-9 bar: the whole-tree dataflow + lock pass in <30 s
        start = time.monotonic()
        lint_paths(
            [SRC],
            rules=get_rules(DATAFLOW_IDS + ["REPRO210", "REPRO211"]),
            root=SRC.parents[1],
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"analysis took {elapsed:.1f}s"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
