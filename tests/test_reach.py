"""Reach audit: every public name in ``src/`` has a caller outside ``tests/``.

The design rule is one implementation per operation, with reference
oracles in ``tests/``: a public function, class, method or property in
``src/repro`` stays only if the program itself reaches it.  This test
parses the tree and keeps that true after the audit that deleted what
only tests called.

A definition counts as reached when its name appears as an
``ast.Name``, an ``ast.Attribute`` or an imported name

* anywhere in ``src/repro`` outside its own body, not counting the
  packages' ``__init__`` re-exports;
* anywhere in ``benchmarks/``, ``examples/`` or ``perfbench/``;
* in a string constant of ``perfbench/tracing.py``, split at dots (the
  traced run patches its entry points by name).

The match is by name, not by type, so it errs towards "reached".  What
stays unreached must be in :data:`ALLOWED`, with one of four reasons;
an entry that is reached again, or no longer defined, fails too.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src"
OUTSIDE_ROOTS = ("benchmarks", "examples", "perfbench")
TRACING = REPO_ROOT / "perfbench" / "tracing.py"

#: the only reasons an unreached public name may stay
REASONS = {
    "analysis": "a repro.analysis rule or table names it",
    "wire": "it parses or produces the wire format",
    "claim": "it backs an EXPERIMENTS.md or DESIGN.md claim a test pins",
    "seam": "tests inject or reset state through it, or read an invariant",
}

_REPRO105 = "REPRO105's helper table names it (DESIGN.md §5 ablation)"
_WIRE = "a serializer of the versioned binary wire format"

#: unreached public name -> "<reason>: why"
ALLOWED: Dict[str, str] = {
    # (1) analysis
    "repro.analysis.dataflow.HEState.is_definite":
        "analysis: the REPRO201-206 interpreter's own state lattice",
    "repro.he.context.CheContext.fork":
        "analysis: the dataflow TRANSFERS table's seededness entry",
    "repro.math.modular.center_lift_vec":
        "analysis: REPRO102's diagnostic names it as the fix",
    "repro.math.modular.BarrettReducer": f"analysis: {_REPRO105}",
    "repro.math.modular.BarrettReducer.mulmod": f"analysis: {_REPRO105}",
    "repro.math.modular.LowHammingModulus": f"analysis: {_REPRO105}",
    "repro.math.modular.LowHammingModulus.mulmod": f"analysis: {_REPRO105}",
    "repro.math.modular.LowHammingModulus.shift_add_count":
        f"analysis: {_REPRO105}",
    "repro.math.rns.RnsBasis.extend_to":
        "analysis: REPRO204's transfer table starts the augmented region here",
    "repro.math.rns.RnsBasis.extend_to_exact":
        "analysis: REPRO204's transfer table starts the augmented region here",
    # (2) wire format
    "repro.he.serialization.serialize_plaintext": f"wire: {_WIRE}",
    "repro.he.serialization.deserialize_plaintext": f"wire: {_WIRE}",
    "repro.he.serialization.deserialize_rlwe": f"wire: {_WIRE}",
    "repro.he.serialization.serialize_lwe": f"wire: {_WIRE}",
    "repro.he.serialization.deserialize_lwe": f"wire: {_WIRE}",
    "repro.he.serialization.serialize_secret_key": f"wire: {_WIRE}",
    "repro.he.serialization.deserialize_secret_key": f"wire: {_WIRE}",
    "repro.he.serialization.serialize_galois_keyset": f"wire: {_WIRE}",
    "repro.he.serialization.deserialize_galois_keyset": f"wire: {_WIRE}",
    # (3) claims
    "repro.hw.floorplan.auto_floorplan":
        "claim: E14's forced-placement check (tests/test_floorplan.py)",
    "repro.he.bgv.bfv_to_bgv":
        "claim: E15's BFV<->BGV conversion (tests/test_bgv.py)",
    # (4) seams
    "repro.analysis.core.lint_source":
        "seam: rule fixtures lint source text without files",
    "repro.obs.metrics.disable_metrics":
        "seam: tests return the default registry to no-op mode",
    "repro.obs.tracing.use_context":
        "seam: tests make a trace context ambient for a block",
    "repro.obs.tracing.Tracer.add_span":
        "seam: synthetic timestamps for the ledger and exporter tests",
    "repro.hw.netsim.NetworkSimulator.flits_injected":
        "seam: the flit-conservation property reads it",
    "repro.hw.netsim.NetworkSimulator.flits_delivered":
        "seam: the flit-conservation property reads it",
}

Definition = Tuple[str, str, ast.AST]  # (qualified name, name, node)


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC_ROOT).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _registered(node: ast.ClassDef) -> bool:
    """Lint rules enter the registry through their ``@register`` decorator."""
    return any(
        isinstance(d, ast.Name) and d.id == "register" for d in node.decorator_list
    )


def _public_definitions(tree: ast.Module, module: str) -> Iterator[Definition]:
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.ClassDef) and _registered(node):
            continue
        yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs[:2]) and not sub.name.startswith("_"):
                    yield f"{module}.{node.name}.{sub.name}", sub.name, sub


def _names(node: ast.AST) -> Counter:
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found.update(sub.name.split("."))
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreached() -> List[str]:
    """Public names in ``src/repro`` that nothing outside ``tests/`` reaches."""
    definitions: List[Definition] = []
    in_src: Counter = Counter()
    for path in sorted((SRC_ROOT / "repro").rglob("*.py")):
        tree = _parse(path)
        definitions.extend(_public_definitions(tree, _module_name(path)))
        if path.name == "__init__.py":
            # a re-export is not a caller
            tree.body = [s for s in tree.body if not isinstance(s, ast.ImportFrom)]
        in_src += _names(tree)

    outside: Counter = Counter()
    for root in OUTSIDE_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            outside += _names(_parse(path))
    for node in ast.walk(_parse(TRACING)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            outside.update(node.value.split("."))

    return [
        qualified
        for qualified, name, node in definitions
        if not outside[name] and in_src[name] <= _names(node)[name]
    ]


def test_every_public_name_is_reached_or_allowed():
    found = set(unreached())
    missing = sorted(found - set(ALLOWED))
    stale = sorted(set(ALLOWED) - found)
    assert not missing, (
        f"{len(missing)} public names only tests reach; delete them, move "
        "them into tests/, or allow them with a reason:\n  "
        + "\n  ".join(missing)
    )
    assert not stale, (
        "allow-list entries that are reached again or gone:\n  "
        + "\n  ".join(stale)
    )


def test_every_allowed_name_has_one_of_the_four_reasons():
    for name, why in ALLOWED.items():
        reason, _, detail = why.partition(": ")
        assert reason in REASONS and detail, (name, why)


def test_the_audit_sees_the_tree():
    """Sanity: a name only a test calls is reported, a reached one is not."""
    tree = ast.parse(
        "class Engine:\n"
        "    def run(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        return self.helper\n"
    )
    defs = {q: (n, node) for q, n, node in _public_definitions(tree, "m")}
    assert set(defs) == {"m.Engine", "m.Engine.run", "m.Engine.helper"}
    total = _names(tree)
    # helper is called from run; its own body's reference does not count
    _, helper = defs["m.Engine.helper"]
    assert total["helper"] > _names(helper)["helper"]
    _, run = defs["m.Engine.run"]
    assert total["run"] == _names(run)["run"] == 0
