"""Abstract HE-state interpreter over function ASTs (REPRO201..206).

PR 4's pattern rules (REPRO101..108) check single expressions; they
cannot see that a value produced by ``ntt_limbs`` is *in the NTT domain*
when it is later paired with a coefficient-domain operand three
statements down.  After the fused-limb rewrite (PR 7) those state
invariants — RNS basis, NTT-vs-coefficient domain, modulus-chain level,
rescaled-ness — live only in docstrings and runtime asserts.  This
module makes them machine-checked dataflow facts:

* :class:`HEState` — one abstract value in the lattice
  ``(basis, domain, level, needs_rescale, seeded)`` where each component
  is either a definite value or ``None`` (= top / unknown).  Joins are
  pointwise: components that disagree widen to unknown, and **checks
  only ever fire on definite conflicts**, so the analysis is silent
  wherever it cannot prove a hazard.
* :data:`TRANSFERS` — the declarative transfer-function table over the
  ``repro.he`` / ``repro.math`` / ``repro.core`` API surface
  (``ntt_limbs: coeff -> ntt``, ``multiply_plain: needs-rescale``,
  ``rescale_last: L -> L-1``, ``extend_to: base -> aug`` ...).  Rules
  never hard-code API knowledge; they read this table.
* :class:`ModuleAnalysis` / :func:`analyze_source` — the abstract
  interpreter: assignments, tuple unpacking, containers, calls (table
  entries plus same-module function summaries), branches (join) and
  loops (fixed point with widening after :data:`MAX_LOOP_ITERATIONS`).
* Rules ``REPRO201..REPRO206`` — thin adapters that surface the
  interpreter's findings through the PR-4 rule registry, so the noqa
  machinery, the CLI and the CI gate all apply unchanged.

The interpreter is deliberately *optimistic about the unknown*: a value
it cannot type (parameters, attribute loads, unlisted calls) carries no
definite components and can never trip a check.  The cost is missed
bugs, never false alarms — the property the ``src/repro`` self-check
(``tests/test_dataflow_analysis.py``) depends on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .core import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Diagnostic,
    Rule,
    SourceFile,
    register,
)

__all__ = [
    "HEState",
    "ContainerState",
    "Transfer",
    "TRANSFERS",
    "Finding",
    "ModuleAnalysis",
    "analyze_source",
    "MAX_LOOP_ITERATIONS",
    "DEFAULT_LEVEL",
]

#: quiet iterations before the widening join forces convergence
MAX_LOOP_ITERATIONS = 4

#: fresh ciphertexts sit at the top of the (short) CHAM modulus chain:
#: {q0, q1} leaves exactly one rescale before the chain floor
DEFAULT_LEVEL = 1

BASE = "base"
AUG = "aug"
COEFF = "coeff"
NTT = "ntt"


# ---------------------------------------------------------------------------
# the lattice


@dataclass(frozen=True)
class HEState:
    """One abstract HE value.  ``None`` components mean *unknown* (top).

    ``aug_tracked`` marks values that *entered* the augmented basis via
    an explicit basis extension (``extend_to``): those must be consumed
    by key-switch / rescale inside the same region (REPRO204).
    ``from_mixed`` marks values read back out of a container that held
    conflicting states — their history is gone (REPRO206).
    """

    basis: Optional[str] = None  # "base" | "aug" | None
    domain: Optional[str] = None  # "coeff" | "ntt" | None
    level: Optional[int] = None  # chain position; None = unknown
    needs_rescale: Optional[bool] = None
    seeded: Optional[bool] = None
    aug_tracked: bool = False
    from_mixed: bool = False

    def join(self, other: "HEState") -> "HEState":
        """Pointwise lattice join: disagreement widens to unknown."""
        return HEState(
            basis=_join(self.basis, other.basis),
            domain=_join(self.domain, other.domain),
            level=_join(self.level, other.level),
            needs_rescale=_join(self.needs_rescale, other.needs_rescale),
            seeded=_join(self.seeded, other.seeded),
            aug_tracked=self.aug_tracked or other.aug_tracked,
            from_mixed=self.from_mixed or other.from_mixed,
        )

    @property
    def is_definite(self) -> bool:
        return any(
            comp is not None
            for comp in (
                self.basis,
                self.domain,
                self.level,
                self.needs_rescale,
            )
        )


def _join(a: object, b: object) -> Optional[object]:
    return a if a == b else None


@dataclass(frozen=True)
class ContainerState:
    """A list/dict/set holding HE values: the join of everything stored.

    ``mixed_domain`` / ``mixed_level`` record that two *definite but
    conflicting* states were stored — the point where per-element state
    is irrecoverably lost (an untyped container has no slot types).
    """

    elem: Optional[HEState] = None
    mixed_domain: bool = False
    mixed_level: bool = False

    def store(self, value: HEState) -> "ContainerState":
        if self.elem is None:
            return ContainerState(elem=value)
        mixed_domain = self.mixed_domain or (
            self.elem.domain is not None
            and value.domain is not None
            and self.elem.domain != value.domain
        )
        mixed_level = self.mixed_level or (
            self.elem.level is not None
            and value.level is not None
            and self.elem.level != value.level
        )
        return ContainerState(
            elem=self.elem.join(value),
            mixed_domain=mixed_domain,
            mixed_level=mixed_level,
        )

    def load(self) -> Optional[HEState]:
        if self.elem is None:
            return None
        if self.mixed_domain or self.mixed_level:
            return replace(self.elem, from_mixed=True)
        return self.elem

    def join(self, other: "ContainerState") -> "ContainerState":
        if self.elem is None:
            elem = other.elem
        elif other.elem is None:
            elem = self.elem
        else:
            elem = self.elem.join(other.elem)
        return ContainerState(
            elem=elem,
            mixed_domain=self.mixed_domain or other.mixed_domain,
            mixed_level=self.mixed_level or other.mixed_level,
        )


AbstractValue = Union[HEState, ContainerState]


# ---------------------------------------------------------------------------
# the declarative transfer-function table


@dataclass(frozen=True)
class Transfer:
    """One API summary: what a call does to the abstract state.

    ``subject`` selects the flowing operand: ``"arg0"`` (first
    positional), ``"recv"`` (method receiver), or ``"pair"`` (binary —
    the first two positionals flow and must agree).  ``require_domain``
    fires REPRO201 when the subject's domain is *definitely* different;
    ``pair_domain`` / ``pair_level`` fire REPRO201/202 on definite
    operand disagreement.  The ``out_*`` fields build the result state
    (``"keep"`` copies the subject's component).
    """

    subject: str = "arg0"
    require_domain: Optional[str] = None
    pair_domain: bool = False
    pair_level: bool = False
    #: result construction; None leaves the component unknown
    out_basis: Optional[str] = None  # "base"|"aug"|"keep"
    out_domain: Optional[str] = None  # "coeff"|"ntt"|"keep"
    out_level: Optional[object] = None  # int | "keep" | "dec"
    out_needs_rescale: Optional[object] = None  # bool | "keep" | "pair"
    out_seeded: Optional[object] = None  # bool | "keep"
    #: entering the augmented basis via extension starts REPRO204 tracking
    starts_aug_region: bool = False
    #: key-switch/rescale consumers end REPRO204 tracking
    ends_aug_region: bool = False
    #: consumer must not see a needs-rescale value (REPRO203)
    forbid_needs_rescale: bool = False
    #: consumer must not see an escaped augmented-basis value (REPRO204)
    forbid_aug: bool = False
    #: state-sensitive site: a from_mixed subject fires REPRO206
    state_sensitive: bool = True
    #: produce an HE result even when the subject is untracked
    always_produces: bool = True


#: callee-name (last dotted component) -> summary.  This is the whole
#: interprocedural API model: rules read state, never names.
TRANSFERS: Dict[str, Transfer] = {
    # -- producers ---------------------------------------------------------
    "encrypt_vector": Transfer(
        subject="arg0",
        out_basis=AUG,
        out_domain=COEFF,
        out_level=DEFAULT_LEVEL,
        out_needs_rescale=False,
        state_sensitive=False,
    ),
    "encrypt": Transfer(
        subject="arg0",
        out_basis=BASE,
        out_domain=COEFF,
        out_level=DEFAULT_LEVEL,
        out_needs_rescale=False,
        state_sensitive=False,
    ),
    "encrypt_pk": Transfer(
        subject="arg0",
        out_basis=BASE,
        out_domain=COEFF,
        out_level=DEFAULT_LEVEL,
        out_needs_rescale=False,
        state_sensitive=False,
    ),
    "plaintext_limbs": Transfer(
        subject="arg0", out_domain=COEFF, state_sensitive=False
    ),
    "scaled_plaintext_limbs": Transfer(
        subject="arg0", out_domain=COEFF, state_sensitive=False
    ),
    # -- domain movers -----------------------------------------------------
    "ntt_limbs": Transfer(
        subject="arg0",
        require_domain=COEFF,
        out_domain=NTT,
        out_basis="keep",
        out_level="keep",
        out_needs_rescale="keep",
        out_seeded="keep",
    ),
    "intt_limbs": Transfer(
        subject="arg0",
        require_domain=NTT,
        out_domain=COEFF,
        out_basis="keep",
        out_level="keep",
        out_needs_rescale="keep",
        out_seeded="keep",
    ),
    "ntt_forward": Transfer(
        subject="arg0",
        require_domain=COEFF,
        out_domain=NTT,
        out_basis="keep",
        out_level="keep",
        out_needs_rescale="keep",
    ),
    "ntt_inverse": Transfer(
        subject="arg0",
        require_domain=NTT,
        out_domain=COEFF,
        out_basis="keep",
        out_level="keep",
        out_needs_rescale="keep",
    ),
    # -- products (the needs-rescale producers) ----------------------------
    "multiply_plain": Transfer(
        subject="recv",
        out_basis="keep",
        out_domain=COEFF,
        out_level="keep",
        out_needs_rescale=True,
    ),
    "modmul_vec": Transfer(
        subject="pair",
        pair_domain=True,
        out_basis="keep",
        out_domain="keep",
        out_level="keep",
        out_needs_rescale="pair",
        always_produces=False,
    ),
    # -- linear ops (level discipline) -------------------------------------
    "modadd_vec": Transfer(
        subject="pair",
        pair_domain=True,
        pair_level=True,
        out_basis="keep",
        out_domain="keep",
        out_level="keep",
        out_needs_rescale="keep",
        always_produces=False,
    ),
    "modsub_vec": Transfer(
        subject="pair",
        pair_domain=True,
        pair_level=True,
        out_basis="keep",
        out_domain="keep",
        out_level="keep",
        out_needs_rescale="keep",
        always_produces=False,
    ),
    # -- chain moves -------------------------------------------------------
    "rescale_last": Transfer(
        subject="arg0",
        out_basis=BASE,
        out_domain="keep",
        out_level="dec",
        out_needs_rescale=False,
        ends_aug_region=True,
    ),
    "extend_to": Transfer(
        subject="arg0",
        out_basis=AUG,
        out_domain="keep",
        out_level="keep",
        out_needs_rescale="keep",
        starts_aug_region=True,
    ),
    "extend_to_exact": Transfer(
        subject="arg0",
        out_basis=AUG,
        out_domain="keep",
        out_level="keep",
        out_needs_rescale="keep",
        starts_aug_region=True,
    ),
    # -- key switching -----------------------------------------------------
    "apply_keyswitch": Transfer(
        subject="arg0",
        forbid_needs_rescale=True,
        out_basis=BASE,
        out_domain="keep",
        out_level="keep",
        out_needs_rescale=False,
        ends_aug_region=True,
    ),
    "key_switch_raw": Transfer(
        subject="arg0",
        forbid_needs_rescale=True,
        out_basis=BASE,
        out_needs_rescale=False,
        ends_aug_region=True,
    ),
    # -- pack consumers (base basis, rescaled operands only) ---------------
    "pack_lwes": Transfer(
        subject="arg0",
        forbid_needs_rescale=True,
        forbid_aug=True,
        always_produces=False,
    ),
    "pack_stacked_lwes": Transfer(
        subject="arg0",
        forbid_needs_rescale=True,
        forbid_aug=True,
        always_produces=False,
    ),
    "_pack_tree": Transfer(
        subject="arg0",
        forbid_needs_rescale=True,
        forbid_aug=True,
        always_produces=False,
    ),
    # -- decrypt consumers (never the augmented basis) ---------------------
    "decrypt": Transfer(
        subject="arg0", forbid_aug=True, always_produces=False
    ),
    "decrypt_plaintext": Transfer(
        subject="arg0", forbid_aug=True, always_produces=False
    ),
    "decrypt_coeffs": Transfer(
        subject="arg0", forbid_aug=True, always_produces=False
    ),
    # -- seededness --------------------------------------------------------
    "default_rng": Transfer(
        subject="arg0",
        out_seeded=True,
        state_sensitive=False,
    ),
    "fork": Transfer(subject="recv", out_seeded=True, state_sensitive=False),
}

#: pack-consumer subjects are whole argument lists: every positional arg
#: (not just arg0) is checked, because the LWE stacks come in pairs
_CHECK_ALL_ARGS = {
    "pack_lwes",
    "pack_stacked_lwes",
    "_pack_tree",
    "decrypt",
    "decrypt_plaintext",
    "decrypt_coeffs",
}

#: np helpers that pass their first argument's state through untouched
_PASSTHROUGH = {
    "stack",
    "concatenate",
    "ascontiguousarray",
    "asarray",
    "copy",
    "array",
    "freeze_array",
}


# ---------------------------------------------------------------------------
# findings


@dataclass(frozen=True)
class Finding:
    """One interpreter-detected hazard, pre-registry."""

    rule_id: str
    line: int
    col: int
    message: str


@dataclass
class ModuleAnalysis:
    """Result of abstractly interpreting one module."""

    findings: List[Finding] = field(default_factory=list)
    #: function qualname -> joined return state (the summaries)
    summaries: Dict[str, HEState] = field(default_factory=dict)
    #: per-function loop iteration counts (all must have converged)
    loop_iterations: Dict[str, int] = field(default_factory=dict)
    functions_analyzed: int = 0
    converged: bool = True


# ---------------------------------------------------------------------------
# the interpreter


def _callee_name(func: ast.AST) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


class _Interp:
    """Abstract interpretation of one function (or the module body)."""

    def __init__(
        self,
        src: SourceFile,
        summaries: Dict[str, HEState],
        qualname: str,
        quiet: bool = False,
    ) -> None:
        self.src = src
        self.summaries = summaries
        self.qualname = qualname
        self.quiet = quiet
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[str, int, int, str]] = set()
        self.return_state: Optional[HEState] = None
        self.loop_iterations = 0
        self.converged = True

    # -- reporting ---------------------------------------------------------

    def emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        if self.quiet:
            return
        key = (
            rule_id,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            message,
        )
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(
                rule_id=rule_id,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )

    # -- environment helpers -----------------------------------------------

    @staticmethod
    def _join_env(
        a: Dict[str, AbstractValue], b: Dict[str, AbstractValue]
    ) -> Dict[str, AbstractValue]:
        out: Dict[str, AbstractValue] = {}
        for name in set(a) | set(b):
            va, vb = a.get(name), b.get(name)
            if va is None or vb is None:
                # bound on one path only: keep it, but nothing definite
                # survives the join unless both paths agree it exists
                keep = va if va is not None else vb
                if isinstance(keep, ContainerState):
                    out[name] = keep
                else:
                    out[name] = HEState(
                        aug_tracked=keep.aug_tracked,
                        from_mixed=keep.from_mixed,
                    )
            elif type(va) is not type(vb):
                continue  # container on one path, scalar on the other
            elif isinstance(va, ContainerState):
                out[name] = va.join(vb)  # type: ignore[arg-type]
            else:
                out[name] = va.join(vb)  # type: ignore[union-attr]
        return out

    @staticmethod
    def _widen_env(
        stable: Dict[str, AbstractValue], nxt: Dict[str, AbstractValue]
    ) -> Dict[str, AbstractValue]:
        """Force convergence: any still-changing component goes to top."""
        out: Dict[str, AbstractValue] = {}
        for name in set(stable) | set(nxt):
            va, vb = stable.get(name), nxt.get(name)
            if va == vb and va is not None:
                out[name] = va
                continue
            tracked = False
            mixed = False
            for v in (va, vb):
                if isinstance(v, HEState):
                    tracked = tracked or v.aug_tracked
                    mixed = mixed or v.from_mixed
            if isinstance(va, ContainerState) or isinstance(
                vb, ContainerState
            ):
                out[name] = ContainerState(elem=HEState())
            else:
                out[name] = HEState(aug_tracked=tracked, from_mixed=mixed)
        return out

    # -- expression evaluation ---------------------------------------------

    def eval(
        self, node: Optional[ast.AST], env: Dict[str, AbstractValue]
    ) -> Optional[AbstractValue]:
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, (ast.List, ast.Set, ast.Tuple)):
            cont = ContainerState()
            for elt in node.elts:
                v = self.eval(elt, env)
                if isinstance(v, HEState):
                    cont = cont.store(v)
            return cont
        if isinstance(node, ast.Dict):
            cont = ContainerState()
            for v_node in node.values:
                v = self.eval(v_node, env)
                if isinstance(v, HEState):
                    cont = cont.store(v)
            return cont
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            inner = dict(env)
            for gen in node.generators:
                src_v = self.eval(gen.iter, inner)
                if isinstance(gen.target, ast.Name):
                    if isinstance(src_v, ContainerState):
                        elem = src_v.load()
                        if elem is not None:
                            inner[gen.target.id] = elem
            v = self.eval(node.elt, inner)
            cont = ContainerState()
            if isinstance(v, HEState):
                cont = cont.store(v)
            return cont
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value, env)
            if isinstance(base, ContainerState):
                return base.load()
            if isinstance(base, HEState):
                # a limb slice of an HE stack keeps the stack's state
                return base
            return None
        if isinstance(node, ast.Starred):
            return self.eval(node.value, env)
        if isinstance(node, ast.IfExp):
            a = self.eval(node.body, env)
            b = self.eval(node.orelse, env)
            if isinstance(a, HEState) and isinstance(b, HEState):
                return a.join(b)
            return a if a is not None else b
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub)
        ):
            left = self.eval(node.left, env)
            right = self.eval(node.right, env)
            if isinstance(left, HEState) and isinstance(right, HEState):
                self._check_pair(node, left, right, check_level=True)
                return left.join(right)
            if isinstance(left, HEState):
                return left
            if isinstance(right, HEState):
                return right
            return None
        if isinstance(node, ast.Call):
            return self.eval_call(node, env)
        if isinstance(node, ast.Await):
            return self.eval(node.value, env)
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value, env)
            if isinstance(node.target, ast.Name) and value is not None:
                env[node.target.id] = value
            return value
        return None

    # -- checks ------------------------------------------------------------

    def _check_pair(
        self,
        node: ast.AST,
        a: HEState,
        b: HEState,
        check_domain: bool = True,
        check_level: bool = False,
        opname: str = "operand pairing",
    ) -> None:
        if (
            check_domain
            and a.domain is not None
            and b.domain is not None
            and a.domain != b.domain
        ):
            self.emit(
                "REPRO201",
                node,
                f"domain-mismatched {opname}: {a.domain}-domain operand "
                f"combined with a {b.domain}-domain operand (transform "
                "both sides to the same domain before pairing them)",
            )
        if (
            check_level
            and a.level is not None
            and b.level is not None
            and a.level != b.level
        ):
            self.emit(
                "REPRO202",
                node,
                f"level-mismatched {opname}: operand at chain level "
                f"{a.level} combined with an operand at level {b.level} "
                "(rescale the higher operand down first — moduli differ "
                "across levels, so the residues are incompatible)",
            )

    def _check_consumer(
        self, node: ast.AST, state: HEState, callee: str, transfer: Transfer
    ) -> None:
        if transfer.state_sensitive and state.from_mixed:
            self.emit(
                "REPRO206",
                node,
                f"value reaching `{callee}` came out of an untyped "
                "container that held ciphertexts in conflicting states — "
                "its basis/domain/level history is lost; keep container "
                "contents state-homogeneous or use a typed wrapper",
            )
        if transfer.forbid_needs_rescale and state.needs_rescale is True:
            self.emit(
                "REPRO203",
                node,
                f"un-rescaled product flows into `{callee}`: multiply "
                "outputs carry a pending rescale and must pass through "
                "rescale_last before pack/key-switch (the extra scale "
                "factor corrupts the packed message)",
            )
        if transfer.forbid_aug and state.basis == AUG:
            self.emit(
                "REPRO204",
                node,
                f"augmented-basis value flows into `{callee}`: "
                "{q0,q1,p}-basis values exist only inside the key-switch "
                "region and must be rescaled back to the base basis first",
            )
        if transfer.require_domain is not None and (
            state.domain is not None
            and state.domain != transfer.require_domain
        ):
            self.emit(
                "REPRO201",
                node,
                f"`{callee}` expects a {transfer.require_domain}-domain "
                f"operand but receives a {state.domain}-domain value "
                "(double transforms silently scramble coefficients)",
            )

    # -- calls -------------------------------------------------------------

    def eval_call(
        self, node: ast.Call, env: Dict[str, AbstractValue]
    ) -> Optional[AbstractValue]:
        callee = _callee_name(node.func)
        # evaluate arguments (left to right, NamedExpr effects included)
        arg_values: List[Optional[AbstractValue]] = [
            self.eval(a, env) for a in node.args
        ]
        for kw in node.keywords:
            self.eval(kw.value, env)
        recv_value: Optional[AbstractValue] = None
        if isinstance(node.func, ast.Attribute):
            recv_value = self.eval(node.func.value, env)

        if callee in _PASSTHROUGH:
            return arg_values[0] if arg_values else None

        transfer = TRANSFERS.get(callee)
        if transfer is None:
            # same-module summary (the interprocedural step)
            summary = self._resolve_summary(node.func)
            if summary is not None:
                return summary
            return None

        # pick the flowing subject(s)
        def as_he(v: Optional[AbstractValue]) -> Optional[HEState]:
            if isinstance(v, ContainerState):
                return v.load()
            return v if isinstance(v, HEState) else None

        subjects: List[Tuple[ast.AST, Optional[HEState]]] = []
        if callee in _CHECK_ALL_ARGS:
            subjects = [
                (arg, as_he(v)) for arg, v in zip(node.args, arg_values)
            ]
        elif transfer.subject == "recv":
            subjects = [(node, as_he(recv_value))]
        elif transfer.subject == "pair":
            if len(node.args) >= 2:
                a = as_he(arg_values[0])
                b = as_he(arg_values[1])
                if a is not None and b is not None:
                    self._check_pair(
                        node,
                        a,
                        b,
                        check_domain=transfer.pair_domain,
                        check_level=transfer.pair_level,
                        opname=f"`{callee}` operands",
                    )
                subjects = [
                    (node.args[0], a),
                    (node.args[1], b),
                ]
        else:  # arg0
            if node.args:
                subjects = [(node.args[0], as_he(arg_values[0]))]

        subject_state: Optional[HEState] = None
        for site, st in subjects:
            if st is None:
                continue
            self._check_consumer(site, st, callee, transfer)
            if callee == "rescale_last" and st.level == 0:
                self.emit(
                    "REPRO205",
                    node,
                    "modulus-chain underflow: rescale_last on a value "
                    "already at chain level 0 — there is no limb left to "
                    "drop (budget the chain or gate on the level)",
                )
            subject_state = (
                st if subject_state is None else subject_state.join(st)
            )

        # build the result state
        if subject_state is None and not transfer.always_produces:
            return None
        subj = subject_state or HEState()

        def pick(spec: Optional[object], current: Optional[object]) -> object:
            if spec == "keep":
                return current
            return spec

        level: Optional[int]
        if transfer.out_level == "dec":
            level = subj.level - 1 if subj.level is not None else None
        elif transfer.out_level == "keep":
            level = subj.level
        else:
            level = transfer.out_level  # type: ignore[assignment]

        needs: Optional[bool]
        if transfer.out_needs_rescale == "pair":
            both_he = (
                transfer.subject == "pair"
                and len(subjects) == 2
                and all(st is not None for _, st in subjects)
            )
            needs = True if both_he else subj.needs_rescale
        elif transfer.out_needs_rescale == "keep":
            needs = subj.needs_rescale
        else:
            needs = transfer.out_needs_rescale  # type: ignore[assignment]

        seeded: Optional[bool]
        if transfer.out_seeded == "keep":
            seeded = subj.seeded
        elif callee == "default_rng":
            # seeded iff called with a non-None literal/derived argument
            seeded = bool(node.args or node.keywords) and not any(
                isinstance(sub, ast.Constant) and sub.value is None
                for a in list(node.args)
                + [kw.value for kw in node.keywords]
                for sub in ast.walk(a)
            )
        else:
            seeded = pick(transfer.out_seeded, subj.seeded)  # type: ignore[assignment]

        aug_tracked = subj.aug_tracked
        if transfer.starts_aug_region:
            aug_tracked = True
        if transfer.ends_aug_region:
            aug_tracked = False

        return HEState(
            basis=pick(transfer.out_basis, subj.basis),  # type: ignore[arg-type]
            domain=pick(transfer.out_domain, subj.domain),  # type: ignore[arg-type]
            level=level,
            needs_rescale=needs,
            seeded=seeded,
            aug_tracked=aug_tracked,
            from_mixed=False,
        )

    def _resolve_summary(self, func: ast.AST) -> Optional[HEState]:
        """Same-module call resolution: bare names and self.method()."""
        if isinstance(func, ast.Name):
            return self.summaries.get(func.id)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            # method of the enclosing class first, then a unique match
            cls = self.qualname.rsplit(".", 1)[0] if "." in self.qualname else ""
            qual = f"{cls}.{func.attr}"
            if qual in self.summaries:
                return self.summaries[qual]
            matches = [
                v
                for k, v in self.summaries.items()
                if k.endswith(f".{func.attr}")
            ]
            if len(matches) == 1:
                return matches[0]
        return None

    # -- statements --------------------------------------------------------

    def exec_block(
        self, stmts: Sequence[ast.stmt], env: Dict[str, AbstractValue]
    ) -> Dict[str, AbstractValue]:
        for stmt in stmts:
            env = self.exec_stmt(stmt, env)
        return env

    def _bind(
        self,
        target: ast.AST,
        value: Optional[AbstractValue],
        env: Dict[str, AbstractValue],
        value_node: Optional[ast.AST] = None,
    ) -> None:
        if isinstance(target, ast.Name):
            if value is not None:
                env[target.id] = value
            else:
                env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if isinstance(value, ContainerState):
                    self._bind(elt, value.load(), env)
                else:
                    self._bind(elt, value, env)
        elif isinstance(target, ast.Attribute):
            # storing an aug-region value into an attribute lets it
            # outlive the key-switch region
            if (
                isinstance(value, HEState)
                and value.basis == AUG
                and value.aug_tracked
            ):
                self.emit(
                    "REPRO204",
                    value_node or target,
                    "augmented-basis value escapes the key-switch region "
                    "through an attribute store: extend_to outputs must "
                    "be consumed by key_switch/rescale_last in the same "
                    "region, never persisted",
                )
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name) and isinstance(value, HEState):
                existing = env.get(base.id)
                if isinstance(existing, ContainerState):
                    env[base.id] = existing.store(value)

    def exec_stmt(
        self, stmt: ast.stmt, env: Dict[str, AbstractValue]
    ) -> Dict[str, AbstractValue]:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, value, env, value_node=stmt.value)
            return env
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.eval(stmt.value, env)
                self._bind(stmt.target, value, env, value_node=stmt.value)
            return env
        if isinstance(stmt, ast.AugAssign):
            left = self.eval(stmt.target, env)
            right = self.eval(stmt.value, env)
            if isinstance(left, HEState) and isinstance(right, HEState):
                self._check_pair(stmt, left, right, check_level=True)
                self._bind(stmt.target, left.join(right), env)
            return env
        if isinstance(stmt, ast.Expr):
            # container mutation calls: xs.append(ct), d.setdefault(...)
            value = stmt.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in ("append", "add", "insert", "extend")
                and isinstance(value.func.value, ast.Name)
            ):
                name = value.func.value.id
                existing = env.get(name)
                stored = (
                    self.eval(value.args[-1], env) if value.args else None
                )
                if isinstance(existing, ContainerState) and isinstance(
                    stored, HEState
                ):
                    env[name] = existing.store(stored)
                    return env
            self.eval(value, env)
            return env
        if isinstance(stmt, ast.Return):
            value = self.eval(stmt.value, env) if stmt.value else None
            state = (
                value.load() if isinstance(value, ContainerState) else value
            )
            if isinstance(state, HEState):
                if state.basis == AUG and state.aug_tracked:
                    self.emit(
                        "REPRO204",
                        stmt,
                        "augmented-basis value escapes the key-switch "
                        "region through a return: extend_to outputs must "
                        "be consumed by key_switch/rescale_last before "
                        "leaving the function",
                    )
                self.return_state = (
                    state
                    if self.return_state is None
                    else self.return_state.join(state)
                )
            return env
        if isinstance(stmt, ast.If):
            then_env = self.exec_block(stmt.body, dict(env))
            else_env = self.exec_block(stmt.orelse, dict(env))
            return self._join_env(then_env, else_env)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._exec_loop(stmt, env)
        if isinstance(stmt, ast.While):
            return self._exec_loop(stmt, env)
        if isinstance(stmt, ast.Try):
            body_env = self.exec_block(stmt.body, dict(env))
            out = self._join_env(env, body_env)
            for handler in stmt.handlers:
                h_env = self.exec_block(handler.body, dict(out))
                out = self._join_env(out, h_env)
            out = self.exec_block(stmt.orelse, out)
            out = self.exec_block(stmt.finalbody, out)
            return out
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value, env)
            return self.exec_block(stmt.body, env)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return env  # nested defs are analyzed as their own functions
        if isinstance(stmt, ast.ClassDef):
            return env
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            if isinstance(stmt, ast.Assert):
                self.eval(stmt.test, env)
            return env
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
            return env
        return env

    def _exec_loop(
        self,
        stmt: Union[ast.For, ast.AsyncFor, ast.While],
        env: Dict[str, AbstractValue],
    ) -> Dict[str, AbstractValue]:
        """Fixed point with widening, then one reporting pass."""

        def bind_loop_target(e: Dict[str, AbstractValue]) -> None:
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                iter_v = self.eval(stmt.iter, e)
                if isinstance(iter_v, ContainerState):
                    self._bind(stmt.target, iter_v.load(), e)
                elif isinstance(iter_v, HEState):
                    self._bind(stmt.target, iter_v, e)
                else:
                    self._bind(stmt.target, None, e)

        quiet_was = self.quiet
        state = dict(env)
        iterations = 0
        converged = False
        try:
            self.quiet = True
            for _ in range(MAX_LOOP_ITERATIONS):
                iterations += 1
                work = dict(state)
                bind_loop_target(work)
                nxt = self.exec_block(stmt.body, work)
                joined = self._join_env(state, nxt)
                if joined == state:
                    converged = True
                    break
                state = joined
            if not converged:
                # widen whatever is still moving, then verify stability
                work = dict(state)
                bind_loop_target(work)
                nxt = self.exec_block(stmt.body, work)
                state = self._widen_env(state, nxt)
                work = dict(state)
                bind_loop_target(work)
                nxt = self.exec_block(stmt.body, work)
                state = self._join_env(state, nxt)
                iterations += 2
        finally:
            self.quiet = quiet_was
        self.loop_iterations = max(self.loop_iterations, iterations)
        # reporting pass from the stable pre-state
        work = dict(state)
        bind_loop_target(work)
        final = self.exec_block(stmt.body, work)
        out = self._join_env(state, final)
        out = self._join_env(out, env)  # zero-iteration path
        if stmt.orelse:
            out = self.exec_block(stmt.orelse, out)
        return out


# ---------------------------------------------------------------------------
# module driver


def _iter_functions(
    tree: ast.Module,
) -> List[Tuple[str, Union[ast.FunctionDef, ast.AsyncFunctionDef]]]:
    """(qualname, node) for module functions and class methods."""
    out: List[Tuple[str, Union[ast.FunctionDef, ast.AsyncFunctionDef]]] = []

    def walk(nodes: Sequence[ast.stmt], prefix: str) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                out.append((qual, node))
                walk(node.body, f"{qual}.<locals>.")
            elif isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}{node.name}.")

    walk(tree.body, "")
    return out


def _module_level_stmts(tree: ast.Module) -> List[ast.stmt]:
    return [
        s
        for s in tree.body
        if not isinstance(
            s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    ]


_CACHE: Dict[Tuple[str, int], ModuleAnalysis] = {}
_CACHE_LIMIT = 256


def analyze_source(src: SourceFile) -> ModuleAnalysis:
    """Interpret every function in ``src`` (cached per content hash)."""
    key = (src.rel, hash(src.text))
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    analysis = _analyze(src)
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.clear()
    _CACHE[key] = analysis
    return analysis


def _analyze(src: SourceFile) -> ModuleAnalysis:
    analysis = ModuleAnalysis()
    try:
        tree = src.tree
    except SyntaxError:
        return analysis  # the engine reports REPRO000 separately
    functions = _iter_functions(tree)
    summaries: Dict[str, HEState] = {}
    # two quiet summary passes resolve helper-calls-helper chains
    for _ in range(2):
        for qual, node in functions:
            interp = _Interp(src, summaries, qual, quiet=True)
            interp.exec_block(node.body, {})
            if interp.return_state is not None:
                summaries[qual] = interp.return_state
                # bare-name lookup for module-level functions
                if "." not in qual:
                    summaries[qual] = interp.return_state
    # reporting pass: functions, then the module body
    for qual, node in functions:
        interp = _Interp(src, summaries, qual, quiet=False)
        interp.exec_block(node.body, {})
        analysis.findings.extend(interp.findings)
        analysis.loop_iterations[qual] = interp.loop_iterations
        analysis.converged = analysis.converged and interp.converged
        analysis.functions_analyzed += 1
    module_interp = _Interp(src, summaries, "<module>", quiet=False)
    module_interp.exec_block(_module_level_stmts(tree), {})
    analysis.findings.extend(module_interp.findings)
    analysis.loop_iterations["<module>"] = module_interp.loop_iterations
    analysis.functions_analyzed += 1
    analysis.summaries = summaries
    return analysis


# ---------------------------------------------------------------------------
# registry adapters (REPRO201..206)


class _DataflowRule(Rule):
    """Shared adapter: filter the cached module analysis by rule ID."""

    severity = SEVERITY_ERROR

    def applies_to(self, rel_path: str) -> bool:
        parts = rel_path.split("/")
        name = parts[-1]
        is_test = (
            "tests" in parts
            or name.startswith("test_")
            or name == "conftest.py"
        )
        return not is_test

    def check(self, src: SourceFile) -> List[Diagnostic]:
        analysis = analyze_source(src)
        return [
            Diagnostic(
                path=src.rel,
                line=f.line,
                col=f.col,
                rule_id=self.id,
                severity=self.severity,
                message=f.message,
            )
            for f in analysis.findings
            if f.rule_id == self.id
        ]


@register
class DomainMismatch(_DataflowRule):
    id = "REPRO201"
    name = "domain-mismatch"
    rationale = (
        "NTT-domain and coefficient-domain limb stacks are pointwise "
        "incompatible: pairing them (or double-transforming one) "
        "scrambles every coefficient — the HF-NTT hazard class, caught "
        "by tracking domain through the dataflow"
    )


@register
class LevelMismatch(_DataflowRule):
    id = "REPRO202"
    name = "level-mismatch"
    rationale = (
        "modadd/modsub of values at different modulus-chain levels "
        "reduces against different moduli; the result decodes to "
        "garbage even though every individual op is exact"
    )


@register
class MultiplyWithoutRescale(_DataflowRule):
    id = "REPRO203"
    name = "multiply-without-rescale"
    rationale = (
        "multiply outputs carry a pending scale factor; packing or "
        "key-switching them before rescale_last embeds the factor into "
        "the message (CHAM's pipeline rescales between DOTPRODUCT and "
        "PACKLWES for exactly this reason)"
    )


@register
class AugmentedBasisEscape(_DataflowRule):
    id = "REPRO204"
    name = "augmented-basis-escape"
    rationale = (
        "the augmented basis {q0,q1,p} exists only inside the "
        "key-switch region; a value that leaves it (return, attribute "
        "store, pack/decrypt) still carries the special modulus p and "
        "is not a valid ciphertext anywhere else"
    )


@register
class ChainUnderflow(_DataflowRule):
    id = "REPRO205"
    name = "chain-underflow"
    rationale = (
        "each rescale_last drops one chain limb; dropping past the "
        "chain floor leaves no modulus to carry the message — depth "
        "must be budgeted against the chain length"
    )


@register
class StateLostInContainer(_DataflowRule):
    id = "REPRO206"
    name = "state-lost-in-container"
    rationale = (
        "an untyped list/dict holding ciphertexts in conflicting "
        "states erases per-element basis/domain/level history; "
        "downstream state-sensitive kernels then operate blind"
    )
    severity = SEVERITY_WARNING
