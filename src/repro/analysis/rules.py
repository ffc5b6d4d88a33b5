"""The codebase-specific lint rules (REPRO101..REPRO108).

Each rule encodes one invariant the CHAM reproduction depends on but the
Python type system cannot enforce.  The catalog (IDs, rationale tied to
the paper's arithmetic contracts, suppression policy) is documented in
``docs/ARCHITECTURE.md`` section 8.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence

from .core import (
    Diagnostic,
    Rule,
    SourceFile,
    register,
)

__all__ = ["MAX_MODULUS_BITS"]

#: Mirror of :data:`repro.math.modular.MAX_MODULUS_BITS`.  Redeclared so
#: the analysis package imports no NumPy-backed module; a test pins the
#: two values together.
MAX_MODULUS_BITS = 41


# ---------------------------------------------------------------------------
# shared AST helpers


def _qualname(node: ast.AST) -> str:
    """Dotted name for ``Name``/``Attribute`` chains (else '')."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_test_path(rel_path: str) -> bool:
    parts = rel_path.split("/")
    name = parts[-1]
    return (
        "tests" in parts
        or name.startswith("test_")
        or name == "conftest.py"
    )


def _const_int(node: ast.AST) -> Optional[int]:
    """Fold a constant integer expression (+, -, *, **, <<) or None."""
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, int) else None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_int(node.operand)
        return -inner if inner is not None else None
    if isinstance(node, ast.BinOp):
        left = _const_int(node.left)
        right = _const_int(node.right)
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Pow) and right >= 0:
            return left**right
        if isinstance(node.op, ast.LShift) and right >= 0:
            return left << right
    return None


def _contains_none(nodes: Sequence[ast.AST]) -> bool:
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and node.value is None:
                return True
    return False


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure is cosmetic
        return "<expr>"


# ---------------------------------------------------------------------------
# REPRO101 — overflow-unsafe modular multiplication


@register
class OverflowUnsafeModmul(Rule):
    """Flag ``(a * b) % q``-shaped reductions outside the blessed helpers.

    The exact hazard :mod:`repro.math.modular` documents around
    ``MAX_MODULUS_BITS``: two 35-bit residues multiply to 70 bits,
    silently wrapping a NumPy ``uint64``.  Every residue product must route
    through ``modmul_vec`` (or stay in arbitrary-precision Python ints /
    object dtype, in which case the site carries a justified noqa).
    """

    id = "REPRO101"
    name = "overflow-unsafe-modmul"
    rationale = (
        "products of two mod-q residues can exceed 64 bits for CHAM's "
        "35/39-bit moduli; only modular.modmul_vec's exact Barrett path "
        "(or exact big-int arithmetic) is overflow-safe"
    )

    _BLESSED_SUFFIX = "math/modular.py"

    def applies_to(self, rel_path: str) -> bool:
        return not rel_path.endswith(self._BLESSED_SUFFIX) and not _is_test_path(
            rel_path
        )

    @staticmethod
    def _is_int_coercion(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "int"
        )

    def _flag_mult(self, mult: ast.BinOp) -> bool:
        # const * var is index/scale arithmetic, not a residue product;
        # residue products multiply two data operands.  An operand
        # coerced through int(...) is an arbitrary-precision Python int,
        # so the product cannot wrap.
        for operand in (mult.left, mult.right):
            if _const_int(operand) is not None:
                return False
            if self._is_int_coercion(operand):
                return False
        return True

    def check(self, src: SourceFile) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        # a `(a * b) % q` that is itself the sole argument of int(...)
        # is scalar Python-int arithmetic (exact at any width)
        int_wrapped = {
            id(node.args[0])
            for node in ast.walk(src.tree)
            if self._is_int_coercion(node) and len(node.args) == 1
        }
        for node in ast.walk(src.tree):
            mult: Optional[ast.BinOp] = None
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                if id(node) not in int_wrapped and isinstance(
                    node.left, ast.BinOp
                ) and isinstance(node.left.op, ast.Mult):
                    mult = node.left
            elif isinstance(node, ast.Call) and _qualname(node.func) in (
                "np.mod",
                "numpy.mod",
            ):
                if (
                    node.args
                    and isinstance(node.args[0], ast.BinOp)
                    and isinstance(node.args[0].op, ast.Mult)
                ):
                    mult = node.args[0]
            if mult is not None and self._flag_mult(mult):
                out.append(
                    self.diag(
                        src,
                        node,
                        f"raw multiply-then-reduce `{_unparse(node)}`: "
                        "route residue products through "
                        "repro.math.modular.modmul_vec (35-bit moduli "
                        "overflow uint64 under naive (a*b) % q)",
                    )
                )
        return out


# ---------------------------------------------------------------------------
# REPRO102 — dtype discipline on residue arrays


@register
class DtypeDiscipline(Rule):
    """Residue/centered-lift arrays must not pass through lossy dtypes.

    Signed centering combines limbs into >64-bit integers, so it must
    use object dtype (``center_lift_vec``); ``float64`` has 53 mantissa
    bits and silently rounds 39-bit-modulus products.
    """

    id = "REPRO102"
    name = "dtype-discipline"
    rationale = (
        "astype(int64/float) on residue arrays truncates multi-limb "
        "values; np.mod on float operands rounds 35+ bit residues "
        "(float64 has a 53-bit mantissa)"
    )

    _LOSSY_DTYPES = {
        "np.int64",
        "numpy.int64",
        "np.int32",
        "numpy.int32",
        "int",
        "np.float64",
        "numpy.float64",
        "np.float32",
        "numpy.float32",
        "float",
    }
    _FLOAT_MARKERS = (
        "astype(np.float",
        "astype(numpy.float",
        "astype(float",
        "dtype=np.float",
        "dtype=numpy.float",
        "dtype=float",
    )
    _RESIDUE_MARKERS = ("coeffs", "residue", "limb")

    def applies_to(self, rel_path: str) -> bool:
        return (
            "repro/math/" in rel_path or "repro/he/" in rel_path
        ) and not _is_test_path(rel_path)

    def _dtype_arg(self, call: ast.Call) -> Optional[str]:
        if call.args:
            name = _qualname(call.args[0])
            if name:
                return name
            if isinstance(call.args[0], ast.Constant) and isinstance(
                call.args[0].value, str
            ):
                return call.args[0].value
        return None

    def check(self, src: SourceFile) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # (a) lossy astype on something that reads like residue data
            if isinstance(func, ast.Attribute) and func.attr == "astype":
                dtype = self._dtype_arg(node)
                if dtype in self._LOSSY_DTYPES:
                    receiver = _unparse(func.value).lower()
                    # rounding floats into integers (np.rint/np.round) is
                    # the CKKS scale-and-round idiom, not a residue cast
                    rounded = "rint(" in receiver or "round(" in receiver
                    if not rounded and any(
                        m in receiver for m in self._RESIDUE_MARKERS
                    ):
                        out.append(
                            self.diag(
                                src,
                                node,
                                f"residue array cast through lossy dtype "
                                f"`{dtype}` (`{_unparse(node)}`): signed "
                                "centering must use object dtype "
                                "(center_lift_vec) so multi-limb values "
                                "stay exact",
                            )
                        )
            # (b) np.mod on a float operand
            if _qualname(func) in ("np.mod", "numpy.mod") and node.args:
                first = _unparse(node.args[0])
                is_float_literal = isinstance(
                    node.args[0], ast.Constant
                ) and isinstance(node.args[0].value, float)
                if is_float_literal or any(
                    m in first for m in self._FLOAT_MARKERS
                ):
                    out.append(
                        self.diag(
                            src,
                            node,
                            f"np.mod on a float operand (`{_unparse(node)}`):"
                            " reduce exact integers (uint64 or object "
                            "dtype), floats round residues above 53 bits",
                        )
                    )
        return out


# ---------------------------------------------------------------------------
# REPRO103 — unseeded randomness in library code


@register
class UnseededRandomness(Rule):
    """All randomness in ``src/repro`` must be explicitly seeded.

    The reproduction's contract is "same checkout, same results"
    (golden vectors, determinism audit); a single unseeded generator
    breaks it weeks later on an unrelated PR.
    """

    id = "REPRO103"
    name = "unseeded-randomness"
    rationale = (
        "reproducibility contract: every Generator/Random must take an "
        "explicit deterministic seed (tests pin golden vectors against it)"
    )

    _NP_LEGACY = {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "bytes",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "integers",
        "standard_normal",
    }
    _PY_RANDOM_FNS = {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
        "getrandbits",
        "seed",
    }
    _ENTROPY_SOURCES = ("time.time", "time.time_ns", "os.urandom", "os.getpid")

    def applies_to(self, rel_path: str) -> bool:
        return not _is_test_path(rel_path)

    def _check_seed_args(
        self, src: SourceFile, node: ast.Call, ctor: str
    ) -> Optional[Diagnostic]:
        args: List[ast.AST] = list(node.args) + [
            kw.value for kw in node.keywords if kw.arg in (None, "seed")
        ]
        if not args:
            return self.diag(
                src, node, f"{ctor} constructed without a seed"
            )
        if _contains_none(args):
            return self.diag(
                src,
                node,
                f"{ctor} may receive None (unseeded): resolve the "
                "optional seed to a deterministic value first",
            )
        for arg in args:
            for sub in ast.walk(arg):
                if _qualname(sub) in self._ENTROPY_SOURCES:
                    return self.diag(
                        src,
                        node,
                        f"{ctor} seeded from a non-deterministic source "
                        f"(`{_unparse(arg)}`)",
                    )
        return None

    def check(self, src: SourceFile) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = _qualname(node.func)
            if qual in (
                "np.random.default_rng",
                "numpy.random.default_rng",
                "default_rng",
            ):
                diag = self._check_seed_args(src, node, "default_rng")
                if diag:
                    out.append(diag)
            elif qual in ("random.Random", "random.SystemRandom"):
                if qual.endswith("SystemRandom"):
                    out.append(
                        self.diag(
                            src, node, "SystemRandom is never deterministic"
                        )
                    )
                else:
                    diag = self._check_seed_args(src, node, "random.Random")
                    if diag:
                        out.append(diag)
            elif qual.startswith(("np.random.", "numpy.random.")):
                attr = qual.rsplit(".", 1)[1]
                if attr in self._NP_LEGACY:
                    out.append(
                        self.diag(
                            src,
                            node,
                            f"legacy global-state RNG `{qual}`: use a "
                            "seeded np.random.default_rng(seed) Generator",
                        )
                    )
            elif qual.startswith("random."):
                attr = qual.split(".", 1)[1]
                if attr in self._PY_RANDOM_FNS:
                    out.append(
                        self.diag(
                            src,
                            node,
                            f"module-level stdlib RNG `{qual}` shares "
                            "unseeded global state: use a seeded "
                            "random.Random(seed) instance",
                        )
                    )
        return out


# ---------------------------------------------------------------------------
# REPRO104 — blocking calls inside async def


@register
class BlockingCallInAsync(Rule):
    """The serving layer must never block the event loop.

    ``HmvpServer`` overlaps engine workers on one loop; a single
    ``time.sleep`` or sync file read stalls every in-flight request.
    Blocking work, device polling included, belongs in
    ``loop.run_in_executor``.
    """

    id = "REPRO104"
    name = "blocking-call-in-async"
    rationale = (
        "one blocking call inside async def stalls every request on the "
        "event loop; use asyncio.sleep or run it in an executor"
    )

    _BLOCKING_QUALNAMES = {
        "time.sleep": "use `await asyncio.sleep(...)`",
        "open": "file I/O blocks the loop; use run_in_executor",
        "input": "blocking stdin read",
    }
    _BLOCKING_PREFIXES = ("subprocess.", "socket.", "requests.", "urllib.request.")
    _BLOCKING_ATTRS = {
        "read_text": "file I/O blocks the loop; use run_in_executor",
        "write_text": "file I/O blocks the loop; use run_in_executor",
        "read_bytes": "file I/O blocks the loop; use run_in_executor",
        "write_bytes": "file I/O blocks the loop; use run_in_executor",
        "poll": "sync poll loop; run it in an executor",
    }

    def applies_to(self, rel_path: str) -> bool:
        return not _is_test_path(rel_path)

    def check(self, src: SourceFile) -> List[Diagnostic]:
        rule = self
        out: List[Diagnostic] = []

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.async_depth = 0

            def visit_AsyncFunctionDef(
                self, node: ast.AsyncFunctionDef
            ) -> None:
                self.async_depth += 1
                self.generic_visit(node)
                self.async_depth -= 1

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                # a nested sync def runs outside the coroutine frame
                saved, self.async_depth = self.async_depth, 0
                self.generic_visit(node)
                self.async_depth = saved

            def visit_Lambda(self, node: ast.Lambda) -> None:
                saved, self.async_depth = self.async_depth, 0
                self.generic_visit(node)
                self.async_depth = saved

            def visit_Call(self, node: ast.Call) -> None:
                if self.async_depth:
                    qual = _qualname(node.func)
                    hint = rule._BLOCKING_QUALNAMES.get(qual)
                    if hint is None and qual.startswith(
                        rule._BLOCKING_PREFIXES
                    ):
                        hint = "blocking network/process call"
                    if (
                        hint is None
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in rule._BLOCKING_ATTRS
                    ):
                        hint = rule._BLOCKING_ATTRS[node.func.attr]
                    if hint is not None:
                        out.append(
                            rule.diag(
                                src,
                                node,
                                f"blocking call `{_unparse(node.func)}` "
                                f"inside async def: {hint}",
                            )
                        )
                self.generic_visit(node)

        Visitor().visit(src.tree)
        return out


# ---------------------------------------------------------------------------
# REPRO105 — modulus not validated against MAX_MODULUS_BITS


@register
class UnvalidatedModulus(Rule):
    """Literal moduli passed to modular helpers must fit the datapath.

    ``modmul_vec``'s split-multiply proof only holds for moduli up to
    ``MAX_MODULUS_BITS`` (41) bits; a wider literal is a silent-wrap
    bug at every call site the runtime guard does not reach.
    """

    id = "REPRO105"
    name = "bare-modulus-guard"
    rationale = (
        "the split-multiply exactness argument caps moduli at "
        "MAX_MODULUS_BITS bits; wider literals overflow uint64 even "
        "through the blessed helpers"
    )

    #: helper -> index of the modulus positional argument
    _HELPERS = {
        "modmul_vec": 2,
        "modmul_scalar_vec": 2,
        "modadd_vec": 2,
        "modsub_vec": 2,
        "modneg_vec": 1,
        "LowHammingModulus": 0,
        "BarrettReducer": 0,
    }

    def check(self, src: SourceFile) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _qualname(node.func).rsplit(".", 1)[-1]
            if name not in self._HELPERS:
                continue
            idx = self._HELPERS[name]
            modulus: Optional[ast.AST] = None
            if len(node.args) > idx:
                modulus = node.args[idx]
            for kw in node.keywords:
                if kw.arg == "q":
                    modulus = kw.value
            if modulus is None:
                continue
            value = _const_int(modulus)
            if value is not None and value.bit_length() > MAX_MODULUS_BITS:
                out.append(
                    self.diag(
                        src,
                        node,
                        f"{name} called with a {value.bit_length()}-bit "
                        f"modulus `{_unparse(modulus)}`: the split-multiply "
                        f"path is only exact up to {MAX_MODULUS_BITS} bits "
                        "(repro.math.modular.MAX_MODULUS_BITS)",
                    )
                )
        return out


# ---------------------------------------------------------------------------
# REPRO106 — mutable default arguments / shared-state fields


@register
class MutableDefault(Rule):
    """Mutable literals as defaults become process-wide shared state.

    Engine/serve configs are constructed per request path; one shared
    dict default silently couples independent engines.
    """

    id = "REPRO106"
    name = "mutable-default"
    rationale = (
        "a mutable default is evaluated once and shared by every call / "
        "instance; use None + local construction or field(default_factory)"
    )

    _FACTORY_CALLS = {"list", "dict", "set", "bytearray"}

    def _is_mutable_literal(self, node: Optional[ast.AST]) -> bool:
        if node is None:
            return False
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(
            node, (ast.ListComp, ast.DictComp, ast.SetComp)
        ):
            return True
        if isinstance(node, ast.Call):
            qual = _qualname(node.func)
            if qual in self._FACTORY_CALLS:
                return True
            # field(default=[...]) — default_factory is the fix
            if qual.rsplit(".", 1)[-1] == "field":
                for kw in node.keywords:
                    if kw.arg == "default" and self._is_mutable_literal(
                        kw.value
                    ):
                        return True
        return False

    def _is_dataclass(self, node: ast.ClassDef) -> bool:
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if _qualname(target).rsplit(".", 1)[-1] == "dataclass":
                return True
        return False

    def check(self, src: SourceFile) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for node in ast.walk(src.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                args = node.args
                for default in list(args.defaults) + [
                    d for d in args.kw_defaults if d is not None
                ]:
                    if self._is_mutable_literal(default):
                        out.append(
                            self.diag(
                                src,
                                default,
                                f"mutable default `{_unparse(default)}` is "
                                "shared across calls: default to None and "
                                "construct inside the function",
                            )
                        )
            elif isinstance(node, ast.ClassDef) and self._is_dataclass(node):
                for stmt in node.body:
                    value = None
                    if isinstance(stmt, ast.AnnAssign):
                        value = stmt.value
                    elif isinstance(stmt, ast.Assign):
                        value = stmt.value
                    if self._is_mutable_literal(value):
                        out.append(
                            self.diag(
                                src,
                                value,
                                f"mutable dataclass field default "
                                f"`{_unparse(value)}`: use "
                                "field(default_factory=...)",
                            )
                        )
        return out


# ---------------------------------------------------------------------------
# REPRO107 — silent broad except


@register
class SilentBroadExcept(Rule):
    """Broad excepts must not swallow the RAS fault path silently.

    The runtime/serving fault machinery (hang, register corruption,
    retry budget) relies on errors propagating or being recorded; a
    ``except Exception: pass`` converts a fault-injection signal into a
    silent wrong answer.
    """

    id = "REPRO107"
    name = "silent-broad-except"
    rationale = (
        "fault-path errors (DeviceHangError, RegisterLoadError) must "
        "reach the retry/degrade policy or the obs layer, never vanish"
    )

    _BROAD = {"Exception", "BaseException"}

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        return any(
            _qualname(t).rsplit(".", 1)[-1] in self._BROAD for t in types
        )

    def _is_silent(self, body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring or `...`
            return False
        return True

    def check(self, src: SourceFile) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ExceptHandler):
                if self._is_broad(node) and self._is_silent(node.body):
                    shown = (
                        _unparse(node.type) if node.type else "<bare>"
                    )
                    out.append(
                        self.diag(
                            src,
                            node,
                            f"broad `except {shown}` silently swallows "
                            "errors: catch the specific fault types, "
                            "re-raise, or record through repro.obs",
                        )
                    )
        return out


# ---------------------------------------------------------------------------
# REPRO108 — print() where repro.obs should be used


@register
class PrintInsteadOfObs(Rule):
    """Library code reports through ``repro.obs``, not stdout.

    ``print`` in a hot path is invisible to the metrics registry and the
    span tracer, and corrupts the JSON output modes of the CLI.  Only
    the presentation layer (cli.py, report.py) prints.
    """

    id = "REPRO108"
    name = "print-instead-of-obs"
    rationale = (
        "stdout is the CLI's presentation channel; library layers emit "
        "metrics/spans via repro.obs so production serving can scrape them"
    )

    _PRESENTATION_FILES = {"cli.py", "report.py", "__main__.py"}

    def applies_to(self, rel_path: str) -> bool:
        name = rel_path.rsplit("/", 1)[-1]
        return name not in self._PRESENTATION_FILES and not _is_test_path(
            rel_path
        )

    def check(self, src: SourceFile) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                out.append(
                    self.diag(
                        src,
                        node,
                        "print() in library code: use repro.obs metrics/"
                        "tracing (or return the string to the CLI layer)",
                    )
                )
        return out
