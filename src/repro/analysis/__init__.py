"""HE-aware static analysis for the CHAM reproduction.

A rule-based AST lint framework plus codebase-specific rules that
machine-check the paper's arithmetic contracts (CHAM, Ren et al.,
DAC 2023) on every PR.  Two generations of rules coexist:

**Pattern rules** (:mod:`repro.analysis.rules`) check single
expressions:

========  ========================  =====================================
ID        name                      invariant
========  ========================  =====================================
REPRO101  overflow-unsafe-modmul    residue products go through
                                    ``modular.modmul_vec`` (35-bit moduli
                                    overflow uint64 under ``(a*b) % q``)
REPRO102  dtype-discipline          no lossy int64/float casts on residue
                                    arrays; no ``np.mod`` on floats
REPRO103  unseeded-randomness       every RNG in ``src/repro`` takes an
                                    explicit deterministic seed
REPRO104  blocking-call-in-async    the serving layer never blocks the
                                    event loop
REPRO105  bare-modulus-guard        literal moduli respect
                                    ``MAX_MODULUS_BITS``
REPRO106  mutable-default           no shared mutable defaults in
                                    functions or config dataclasses
REPRO107  silent-broad-except       fault-path errors are never silently
                                    swallowed
REPRO108  print-instead-of-obs      library layers report via
                                    ``repro.obs``, not stdout
========  ========================  =====================================

**Dataflow rules** (:mod:`repro.analysis.dataflow`) run an abstract
interpreter tracking each value's HE state — RNS basis, NTT-vs-coeff
domain, chain level, rescaled-ness — through assignments, calls,
branches and loops (fixed point with widening):

========  ========================  =====================================
REPRO201  domain-mismatch           NTT/coeff operands are never paired
                                    (and never double-transformed)
REPRO202  level-mismatch            modadd/modsub operands share a
                                    modulus-chain level
REPRO203  multiply-without-rescale  products pass through rescale_last
                                    before pack/key-switch
REPRO204  augmented-basis-escape    {q0,q1,p}-basis values never leave
                                    the key-switch region
REPRO205  chain-underflow           rescale_last never drops past the
                                    chain floor
REPRO206  state-lost-in-container   ciphertext state survives untyped
                                    containers (warning)
========  ========================  =====================================

**Concurrency rules** (:mod:`repro.analysis.locks`) build the project
lock-acquisition graph and the worker-thread call graph:

========  ========================  =====================================
REPRO210  lock-order-cycle          locks are acquired in one global
                                    order (incl. self-deadlock on
                                    re-acquiring a held Lock)
REPRO211  unguarded-shared-write    attributes of lock-owning classes
                                    are only written with the lock held
                                    on worker-thread-reachable paths
========  ========================  =====================================

Suppress a finding in place with ``# repro: noqa RULE-ID`` plus a
justification comment.  CLI: ``python -m repro lint [--json] [--ci]
[--rule ID] [--diff BASE] [--sarif FILE] [paths]``.  See
``docs/ARCHITECTURE.md`` sections 8 and 12 for the full catalog and
policy.
"""

from .core import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Diagnostic,
    Rule,
    SourceFile,
    all_rules,
    diagnostics_to_json,
    get_rules,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    register,
    render_text,
)
from .dataflow import HEState, TRANSFERS, analyze_source
from .locks import analyze_project
from .rules import MAX_MODULUS_BITS
from .sarif import SARIF_VERSION, diagnostics_to_sarif
from .toolchain import (
    ToolResult,
    changed_python_files,
    repo_root,
    run_ci,
    run_mypy,
    run_ruff,
    tool_available,
)

__all__ = [
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "Diagnostic",
    "Rule",
    "SourceFile",
    "all_rules",
    "diagnostics_to_json",
    "get_rules",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
    "render_text",
    "HEState",
    "TRANSFERS",
    "analyze_source",
    "analyze_project",
    "MAX_MODULUS_BITS",
    "SARIF_VERSION",
    "diagnostics_to_sarif",
    "ToolResult",
    "changed_python_files",
    "repo_root",
    "run_ci",
    "run_mypy",
    "run_ruff",
    "tool_available",
]
