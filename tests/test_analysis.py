"""Tests for the HE-aware static-analysis subsystem (repro.analysis).

Each REPRO1xx rule gets three fixtures: a positive snippet that must
fire, a clean snippet that must not, and a noqa-suppressed snippet.
The suite ends with the self-check the CI gate depends on: the
repository's own ``src/repro`` tree is clean under every rule.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import analysis
from repro.analysis import (
    Diagnostic,
    SourceFile,
    all_rules,
    diagnostics_to_json,
    get_rules,
    lint_paths,
    lint_source,
    render_text,
)
from repro.analysis.core import SYNTAX_RULE_ID
from repro.analysis.rules import MAX_MODULUS_BITS
from repro.analysis.toolchain import ToolResult, repo_root, run_ci, tool_available

REPO_ROOT = Path(__file__).resolve().parents[1]


def ids_of(diags):
    return [d.rule_id for d in diags]


def run_rule(rule_id: str, text: str, filename: str = "snippet.py"):
    return lint_source(text, filename, rules=get_rules([rule_id]))


# ---------------------------------------------------------------------------
# framework


class TestFramework:
    def test_registry_is_complete_and_sorted(self):
        rules = all_rules()
        ids = [r.id for r in rules]
        assert ids == sorted(ids)
        pattern = [f"REPRO10{i}" for i in range(1, 9)]
        dataflow = [f"REPRO20{i}" for i in range(1, 7)]
        locks = ["REPRO210", "REPRO211"]
        assert ids == pattern + dataflow + locks
        for rule in rules:
            assert rule.name and rule.rationale and rule.severity

    def test_get_rules_unknown_id_raises(self):
        with pytest.raises(KeyError, match="REPRO999"):
            get_rules(["REPRO999"])

    def test_get_rules_case_insensitive(self):
        (rule,) = get_rules(["repro101"])
        assert rule.id == "REPRO101"

    def test_syntax_error_becomes_diagnostic(self):
        diags = lint_source("def broken(:\n", "bad.py")
        assert ids_of(diags) == [SYNTAX_RULE_ID]
        assert "does not parse" in diags[0].message

    def test_noqa_bare_blankets_all_rules(self):
        src = SourceFile("x = 1  # repro: noqa\n", "f.py")
        assert src.suppressed(1, "REPRO101")
        assert src.suppressed(1, "REPRO999")

    def test_noqa_specific_ids_and_commas(self):
        src = SourceFile(
            "x = 1  # repro: noqa REPRO101, REPRO103\n", "f.py"
        )
        assert src.suppressed(1, "REPRO101")
        assert src.suppressed(1, "REPRO103")
        assert not src.suppressed(1, "REPRO102")
        assert not src.suppressed(2, "REPRO101")

    def test_noqa_trailing_prose_does_not_widen(self):
        src = SourceFile(
            "y = a * b % q  # repro: noqa REPRO101 (big ints)\n", "f.py"
        )
        assert src.suppressed(1, "REPRO101")
        assert not src.suppressed(1, "REPRO102")

    def test_render_text_and_json_roundtrip(self):
        diags = [
            Diagnostic("a.py", 3, 1, "REPRO101", "error", "boom"),
            Diagnostic("b.py", 1, 1, "REPRO106", "warning", "shared"),
        ]
        text = render_text(diags)
        assert "a.py:3:1: REPRO101 [error] boom" in text
        assert "1 error(s), 1 warning(s) in 2 file(s)" in text
        payload = diagnostics_to_json(diags)
        assert payload["summary"] == {"errors": 1, "warnings": 1, "files": 2}
        assert payload["diagnostics"][0]["rule"] == "REPRO101"
        json.dumps(payload)  # must be serializable as-is

    def test_render_text_clean(self):
        assert "no findings" in render_text([])


# ---------------------------------------------------------------------------
# REPRO101 — overflow-unsafe modmul


class TestOverflowUnsafeModmul:
    def test_flags_raw_multiply_then_mod(self):
        diags = run_rule("REPRO101", "c = (a * b) % q\n")
        assert ids_of(diags) == ["REPRO101"]
        assert "modmul_vec" in diags[0].message

    def test_flags_np_mod_form(self):
        diags = run_rule("REPRO101", "c = np.mod(a * b, q)\n")
        assert ids_of(diags) == ["REPRO101"]

    def test_clean_when_routed_through_helper(self):
        assert run_rule("REPRO101", "c = modmul_vec(a, b, q)\n") == []

    def test_const_operand_is_index_arithmetic(self):
        # (2 * k) % banks — the NTT datapath's bank-interleave math
        assert run_rule("REPRO101", "idx = (2 * k) % banks\n") == []

    def test_int_coerced_operand_is_exact(self):
        assert run_rule("REPRO101", "c = (int(a) * b) % q\n") == []

    def test_int_wrapped_mod_is_exact(self):
        assert run_rule("REPRO101", "c = int(a * b % q)\n") == []

    def test_noqa_suppresses(self):
        text = "c = (a * b) % q  # repro: noqa REPRO101\n"
        assert run_rule("REPRO101", text) == []

    def test_scope_excludes_modular_and_tests(self):
        (rule,) = get_rules(["REPRO101"])
        assert not rule.applies_to("src/repro/math/modular.py")
        assert not rule.applies_to("tests/test_modular.py")
        assert rule.applies_to("src/repro/he/rlwe.py")


# ---------------------------------------------------------------------------
# REPRO102 — dtype discipline


class TestDtypeDiscipline:
    def test_flags_lossy_astype_on_residue_array(self):
        diags = run_rule("REPRO102", "x = coeffs.astype(np.int64)\n")
        assert ids_of(diags) == ["REPRO102"]
        assert "object dtype" in diags[0].message

    def test_flags_np_mod_on_float(self):
        diags = run_rule(
            "REPRO102", "x = np.mod(vals.astype(np.float64), q)\n"
        )
        assert ids_of(diags) == ["REPRO102"]

    def test_clean_object_dtype(self):
        assert run_rule("REPRO102", "x = coeffs.astype(object)\n") == []

    def test_rounded_cast_is_ckks_idiom(self):
        text = "x = np.rint(coeffs * scale).astype(np.int64)\n"
        assert run_rule("REPRO102", text) == []

    def test_non_residue_receiver_is_fine(self):
        assert run_rule("REPRO102", "x = table.astype(np.int64)\n") == []

    def test_noqa_suppresses(self):
        text = "x = coeffs.astype(np.int64)  # repro: noqa REPRO102\n"
        assert run_rule("REPRO102", text) == []

    def test_scope_is_math_and_he_only(self):
        (rule,) = get_rules(["REPRO102"])
        assert rule.applies_to("src/repro/he/encoder.py")
        assert rule.applies_to("src/repro/math/rns.py")
        assert not rule.applies_to("src/repro/hw/ntt_datapath.py")
        assert not rule.applies_to("tests/test_encoder.py")


# ---------------------------------------------------------------------------
# REPRO103 — unseeded randomness


class TestUnseededRandomness:
    def test_flags_unseeded_default_rng(self):
        diags = run_rule("REPRO103", "rng = np.random.default_rng()\n")
        assert ids_of(diags) == ["REPRO103"]

    def test_flags_none_seed(self):
        diags = run_rule("REPRO103", "rng = random.Random(None)\n")
        assert ids_of(diags) == ["REPRO103"]
        assert "None" in diags[0].message

    def test_flags_conditional_none_seed(self):
        # the exact paillier.py shape this rule caught in this PR
        text = "rng = random.Random(None if seed is None else seed + 1)\n"
        assert ids_of(run_rule("REPRO103", text)) == ["REPRO103"]

    def test_flags_entropy_seed(self):
        diags = run_rule(
            "REPRO103", "rng = np.random.default_rng(int(time.time()))\n"
        )
        assert ids_of(diags) == ["REPRO103"]

    def test_flags_legacy_global_np_random(self):
        diags = run_rule("REPRO103", "x = np.random.randint(0, 10)\n")
        assert ids_of(diags) == ["REPRO103"]

    def test_flags_module_level_stdlib_random(self):
        diags = run_rule("REPRO103", "x = random.randrange(2, n)\n")
        assert ids_of(diags) == ["REPRO103"]

    def test_flags_system_random(self):
        diags = run_rule("REPRO103", "rng = random.SystemRandom()\n")
        assert ids_of(diags) == ["REPRO103"]

    def test_clean_seeded_generators(self):
        clean = (
            "a = np.random.default_rng(0)\n"
            "b = np.random.default_rng(seed)\n"
            "c = random.Random(0xC4A)\n"
        )
        assert run_rule("REPRO103", clean) == []

    def test_noqa_suppresses(self):
        text = "rng = np.random.default_rng()  # repro: noqa REPRO103\n"
        assert run_rule("REPRO103", text) == []

    def test_scope_excludes_tests(self):
        (rule,) = get_rules(["REPRO103"])
        assert not rule.applies_to("tests/test_rlwe.py")
        assert not rule.applies_to("tests/conftest.py")
        assert rule.applies_to("src/repro/he/context.py")


# ---------------------------------------------------------------------------
# REPRO104 — blocking calls in async def


ASYNC_TEMPLATE = """\
async def handler(req):
    {body}
    return req
"""


class TestBlockingCallInAsync:
    def test_flags_time_sleep(self):
        text = ASYNC_TEMPLATE.format(body="time.sleep(0.1)")
        diags = run_rule("REPRO104", text)
        assert ids_of(diags) == ["REPRO104"]
        assert "asyncio.sleep" in diags[0].message

    def test_flags_sync_open_and_path_io(self):
        text = ASYNC_TEMPLATE.format(
            body="data = open('f').read(); cfg = p.read_text()"
        )
        assert ids_of(run_rule("REPRO104", text)) == ["REPRO104", "REPRO104"]

    def test_flags_sync_poll(self):
        text = ASYNC_TEMPLATE.format(body="status = runtime.poll(job)")
        diags = run_rule("REPRO104", text)
        assert ids_of(diags) == ["REPRO104"]
        assert "executor" in diags[0].message

    def test_clean_awaited_equivalents(self):
        text = (
            "async def handler(req):\n"
            "    await asyncio.sleep(0.1)\n"
            "    out = await loop.run_in_executor(None, work)\n"
            "    status = await loop.run_in_executor(None, runtime.poll_once, job)\n"
            "    return out\n"
        )
        assert run_rule("REPRO104", text) == []

    def test_sync_function_is_out_of_scope(self):
        assert run_rule("REPRO104", "def f():\n    time.sleep(1)\n") == []

    def test_nested_sync_def_resets_context(self):
        text = (
            "async def handler(req):\n"
            "    def worker():\n"
            "        time.sleep(1)\n"
            "    return worker\n"
        )
        assert run_rule("REPRO104", text) == []

    def test_noqa_suppresses(self):
        text = ASYNC_TEMPLATE.format(
            body="time.sleep(0.1)  # repro: noqa REPRO104"
        )
        assert run_rule("REPRO104", text) == []


# ---------------------------------------------------------------------------
# REPRO105 — bare modulus vs MAX_MODULUS_BITS


class TestUnvalidatedModulus:
    def test_flags_oversized_literal_modulus(self):
        text = "y = modmul_vec(a, b, 2**61 - 1)\n"
        diags = run_rule("REPRO105", text)
        assert ids_of(diags) == ["REPRO105"]
        assert "61-bit" in diags[0].message

    def test_flags_keyword_modulus(self):
        text = "y = modmul_vec(a, b, q=1 << 50)\n"
        assert ids_of(run_rule("REPRO105", text)) == ["REPRO105"]

    def test_flags_reducer_constructor(self):
        text = "r = LowHammingModulus(2**62 + 2**23 + 1)\n"
        assert ids_of(run_rule("REPRO105", text)) == ["REPRO105"]

    def test_clean_paper_moduli(self):
        clean = (
            "a = modmul_vec(x, y, 2**34 + 2**27 + 1)\n"
            "b = modmul_vec(x, y, 2**38 + 2**23 + 1)\n"
        )
        assert run_rule("REPRO105", clean) == []

    def test_non_literal_modulus_left_to_runtime_guard(self):
        assert run_rule("REPRO105", "a = modmul_vec(x, y, q)\n") == []

    def test_noqa_suppresses(self):
        text = "y = modmul_vec(a, b, 1 << 50)  # repro: noqa REPRO105\n"
        assert run_rule("REPRO105", text) == []

    def test_limit_matches_runtime_constant(self):
        from repro.math import modular

        assert MAX_MODULUS_BITS == modular.MAX_MODULUS_BITS


# ---------------------------------------------------------------------------
# REPRO106 — mutable defaults


class TestMutableDefault:
    def test_flags_list_default(self):
        diags = run_rule("REPRO106", "def f(x, acc=[]):\n    return acc\n")
        assert ids_of(diags) == ["REPRO106"]

    def test_flags_dict_and_call_factories(self):
        text = "def f(cfg={}, tags=list()):\n    return cfg\n"
        assert ids_of(run_rule("REPRO106", text)) == ["REPRO106", "REPRO106"]

    def test_flags_dataclass_field_literal(self):
        text = (
            "@dataclass\n"
            "class C:\n"
            "    entries: list = []\n"
        )
        assert ids_of(run_rule("REPRO106", text)) == ["REPRO106"]

    def test_flags_field_default_mutable(self):
        text = (
            "@dataclass\n"
            "class C:\n"
            "    entries: list = field(default=[])\n"
        )
        assert ids_of(run_rule("REPRO106", text)) == ["REPRO106"]

    def test_clean_none_and_default_factory(self):
        clean = (
            "def f(x, acc=None):\n    return acc\n"
            "@dataclass\n"
            "class C:\n"
            "    entries: list = field(default_factory=list)\n"
            "    count: int = 0\n"
        )
        assert run_rule("REPRO106", clean) == []

    def test_plain_class_attribute_not_flagged(self):
        # only dataclass fields are per-instance-looking shared state
        text = "class C:\n    registry = {}\n"
        assert run_rule("REPRO106", text) == []

    def test_noqa_suppresses(self):
        text = "def f(acc=[]):  # repro: noqa REPRO106\n    return acc\n"
        assert run_rule("REPRO106", text) == []


# ---------------------------------------------------------------------------
# REPRO107 — silent broad except


class TestSilentBroadExcept:
    def test_flags_except_exception_pass(self):
        text = "try:\n    step()\nexcept Exception:\n    pass\n"
        diags = run_rule("REPRO107", text)
        assert ids_of(diags) == ["REPRO107"]

    def test_flags_bare_except_and_tuple(self):
        text = (
            "try:\n    a()\nexcept:\n    pass\n"
            "try:\n    b()\nexcept (ValueError, Exception):\n    continue\n"
        )
        # wrap the continue in a loop so the snippet parses
        text = "for _ in r:\n    " + text.replace("\n", "\n    ").rstrip() + "\n"
        assert ids_of(run_rule("REPRO107", text)) == ["REPRO107", "REPRO107"]

    def test_clean_when_handled_or_specific(self):
        clean = (
            "try:\n    step()\nexcept Exception as exc:\n"
            "    obs.inc('serve.errors')\n    raise\n"
            "try:\n    step()\nexcept ValueError:\n    pass\n"
        )
        assert run_rule("REPRO107", clean) == []

    def test_noqa_suppresses(self):
        text = (
            "try:\n    step()\n"
            "except Exception:  # repro: noqa REPRO107\n    pass\n"
        )
        assert run_rule("REPRO107", text) == []


# ---------------------------------------------------------------------------
# REPRO108 — print instead of obs


class TestPrintInsteadOfObs:
    def test_flags_print_in_library(self):
        diags = run_rule("REPRO108", "print('done', flush=True)\n")
        assert ids_of(diags) == ["REPRO108"]
        assert "repro.obs" in diags[0].message

    def test_attribute_named_print_not_flagged(self):
        # only the builtin; `console.print(...)` is someone else's API
        assert run_rule("REPRO108", "console.print('x')\n") == []

    def test_scope_exempts_presentation_layer(self):
        (rule,) = get_rules(["REPRO108"])
        assert not rule.applies_to("src/repro/cli.py")
        assert not rule.applies_to("src/repro/report.py")
        assert not rule.applies_to("src/repro/__main__.py")
        assert rule.applies_to("src/repro/he/bfv.py")

    def test_noqa_suppresses(self):
        assert run_rule("REPRO108", "print(x)  # repro: noqa REPRO108\n") == []


# ---------------------------------------------------------------------------
# toolchain gating


class TestToolchain:
    def test_repo_root_finds_pyproject(self):
        root = repo_root()
        assert (root / "pyproject.toml").is_file()
        assert root == REPO_ROOT

    def test_tool_available_on_known_modules(self):
        assert tool_available("json")
        assert not tool_available("definitely_not_a_module_xyz")

    def test_skipped_tool_counts_as_ok(self):
        assert ToolResult("mypy", "skipped", "not installed").ok
        assert ToolResult("ruff", "ok").ok
        assert not ToolResult("mypy", "failed", "boom").ok

    def test_run_ci_is_clean_on_this_checkout(self):
        code, report, text = run_ci(REPO_ROOT)
        assert code == 0, text
        assert report["ok"] is True
        assert report["summary"]["errors"] == 0
        names = {t["name"] for t in report["tools"]}
        assert names == {"ruff", "mypy"}
        for tool in report["tools"]:
            assert tool["status"] in ("ok", "skipped"), tool
        assert "PASS" in text


# ---------------------------------------------------------------------------
# self-check: the repository's own tree is clean


class TestSelfCheck:
    def test_src_repro_is_clean_under_all_rules(self):
        diags = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        assert diags == [], render_text(diags)

    def test_cli_lint_exits_zero_on_src(self, capsys):
        from repro.cli import main

        assert main(["lint"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_cli_lint_json_reports_findings(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("c = (a * b) % q\n")
        report_file = tmp_path / "report.json"
        code = main(
            ["lint", str(bad), "--json", "--json-out", str(report_file)]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        assert payload["diagnostics"][0]["rule"] == "REPRO101"
        on_disk = json.loads(report_file.read_text())
        assert on_disk == payload

    def test_cli_rule_filter(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("c = (a * b) % q\n")
        # filtering to an unrelated rule must turn the finding off
        assert main(["lint", str(bad), "--rule", "REPRO108"]) == 0
        assert main(["lint", str(bad), "--rule", "repro101"]) == 1

    def test_cli_list_rules(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 9):
            assert f"REPRO10{i}" in out
