"""Lock-order and worker-thread concurrency analysis (REPRO210/211).

The serving stack now holds real locks across real thread pools: the
batched engine fans row tiles out over a ``ThreadPoolExecutor`` while
every worker funnels through :class:`EncodedMatrixCache`'s lock, the
tracer and metrics registry serialize appends from all of them, and
every cluster node owns one such cache.  Nothing checked that those
locks are acquired in a consistent order, or that the attributes they
exist to protect are only written with the lock held.
This module builds both facts from the ASTs:

* a **lock table** — ``self._lock = threading.Lock()`` in class bodies
  and ``LOCK = threading.Lock()`` at module scope, with reentrancy
  (``RLock``) noted;
* a **per-function summary** — locks acquired directly (``with`` items
  and ``.acquire()``/``.release()`` pairs), calls made (with the locks
  held at the call site), attribute writes on lock-owning classes (with
  the locks held at the write), and worker-thread spawn points
  (``pool.submit``/``pool.map``/``loop.run_in_executor``/
  ``threading.Thread(target=...)``, chasing callables through
  ``obs.run_with_context`` and lambda wrappers);
* a **may-acquire closure** over the call graph, giving the lock-order
  edge set ``held -> acquired`` including acquisitions that happen
  transitively inside calls.

REPRO210 reports cycles in that edge graph (two call paths that take
the same pair of locks in opposite order can deadlock under the pool),
including the 1-cycle of re-acquiring a non-reentrant ``Lock`` already
held.  REPRO211 walks the call graph from the worker-spawn points —
worker threads start holding *nothing* — propagating held-lock sets by
**intersection** over call paths, and reports writes to attributes of a
lock-owning class made while none of that class's locks is held.

Both rules are ``project`` rules: the spawn in ``serve/server.py``
reaches the cache writes in ``core/batch.py`` only through a cross-file
call graph.  Name resolution is deliberately conservative (annotated
receivers, ``self``, locally constructed instances, then unique
method-name match outside a common-verb blocklist); anything ambiguous
contributes no edge and no finding — missed bugs over false alarms,
same contract as :mod:`repro.analysis.dataflow`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .core import (
    SEVERITY_ERROR,
    Diagnostic,
    Rule,
    SourceFile,
    register,
)

__all__ = [
    "ProjectLockAnalysis",
    "analyze_project",
    "LockSite",
]

#: method names too generic to resolve by unique-suffix match — a
#: ``.get()`` on a dict must never resolve to some class's ``get``
_AMBIGUOUS_NAMES = {
    "get",
    "put",
    "set",
    "add",
    "pop",
    "run",
    "map",
    "new",
    "copy",
    "open",
    "close",
    "send",
    "recv",
    "read",
    "write",
    "next",
    "items",
    "keys",
    "values",
    "update",
    "append",
    "extend",
    "insert",
    "remove",
    "clear",
    "reset",
    "start",
    "stop",
    "join",
    "submit",
    "result",
    "encode",
    "decode",
    "format",
    "index",
    "count",
    "sort",
    "split",
    "strip",
    "replace",
    "setdefault",
    "move_to_end",
    "popitem",
}

#: constructors whose attribute writes are never REPRO211 findings: the
#: instance is not yet published to other threads
_CONSTRUCTORS = {"__init__", "__new__", "__post_init__", "__init_subclass__"}

_LOCK_FACTORIES = {"Lock": False, "RLock": True}


def _call_factory(node: ast.AST) -> Optional[bool]:
    """``threading.Lock()`` / ``Lock()`` -> reentrant flag, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = ""
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    return _LOCK_FACTORIES.get(name)


@dataclass(frozen=True, order=True)
class LockSite:
    """Where a lock-order edge was introduced."""

    rel: str
    line: int
    col: int


@dataclass
class _ClassInfo:
    name: str
    rel: str
    #: lock attribute name -> reentrant?
    locks: Dict[str, bool] = field(default_factory=dict)
    #: attribute name -> class name (from ``self.x = ClassName(...)``
    #: or annotated fields)
    attr_types: Dict[str, str] = field(default_factory=dict)
    methods: Set[str] = field(default_factory=set)


@dataclass
class _FuncInfo:
    key: str  # "rel::Class.method" or "rel::function"
    name: str
    cls: Optional[str]
    rel: str
    node: ast.AST
    #: lock ids acquired directly in this function
    acquires: Set[str] = field(default_factory=set)
    #: (candidate callee keys, held locks at the call, site)
    calls: List[Tuple[Tuple[str, ...], FrozenSet[str], LockSite]] = field(
        default_factory=list
    )
    #: (owner class, attr, held locks, site)
    writes: List[Tuple[str, str, FrozenSet[str], LockSite]] = field(
        default_factory=list
    )
    #: direct lock-order edges (held, acquired, site)
    edges: List[Tuple[str, str, LockSite]] = field(default_factory=list)
    #: re-acquisition of a held non-reentrant lock (lock, site)
    self_deadlocks: List[Tuple[str, LockSite]] = field(default_factory=list)
    #: functions this one hands to a worker thread (candidate keys)
    spawns: List[Tuple[str, ...]] = field(default_factory=list)


@dataclass
class ProjectLockAnalysis:
    """Everything the REPRO210/211 rules read."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: lock id -> reentrant
    locks: Dict[str, bool] = field(default_factory=dict)
    #: lock-order edges (held -> acquired)
    edges: Dict[Tuple[str, str], LockSite] = field(default_factory=dict)
    #: functions reachable from a worker-thread spawn point
    worker_reachable: Set[str] = field(default_factory=set)


# ---------------------------------------------------------------------------
# collection


class _Collector:
    """One project-wide pass: classes, locks, functions, summaries."""

    def __init__(self, sources: Sequence[SourceFile]) -> None:
        self.sources = sources
        self.classes: Dict[str, _ClassInfo] = {}
        self.module_locks: Dict[str, Dict[str, bool]] = {}  # rel -> name
        self.functions: Dict[str, _FuncInfo] = {}
        #: bare function name -> keys (for unique-match resolution)
        self.by_name: Dict[str, List[str]] = {}

    # -- pass 1: class/lock tables ---------------------------------------

    def collect_declarations(self) -> None:
        for src in self.sources:
            self.module_locks.setdefault(src.rel, {})
            for node in src.tree.body:
                if isinstance(node, ast.ClassDef):
                    self._collect_class(src, node)
                elif isinstance(node, ast.Assign):
                    reentrant = _call_factory(node.value)
                    if reentrant is not None:
                        for tgt in node.targets:
                            if isinstance(tgt, ast.Name):
                                self.module_locks[src.rel][tgt.id] = reentrant

    def _collect_class(self, src: SourceFile, node: ast.ClassDef) -> None:
        info = self.classes.setdefault(
            node.name, _ClassInfo(name=node.name, rel=src.rel)
        )
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                ann = stmt.annotation
                type_name = _annotation_name(ann)
                if type_name:
                    info.attr_types[stmt.target.id] = type_name
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods.add(stmt.name)
                for sub in ast.walk(stmt):
                    if not isinstance(sub, ast.Assign):
                        continue
                    for tgt in sub.targets:
                        if (
                            isinstance(tgt, ast.Attribute)
                            and isinstance(tgt.value, ast.Name)
                            and tgt.value.id == "self"
                        ):
                            reentrant = _call_factory(sub.value)
                            if reentrant is not None:
                                info.locks[tgt.attr] = reentrant
                            else:
                                cls_name = _constructed_class(sub.value)
                                if cls_name:
                                    info.attr_types.setdefault(
                                        tgt.attr, cls_name
                                    )

    # -- pass 2: function summaries ---------------------------------------

    def collect_functions(self) -> None:
        # register every function first, then scan bodies: call
        # resolution must see later-defined callees (forward refs)
        pending: List[Tuple[SourceFile, _FuncInfo]] = []
        for src in self.sources:
            self._walk_defs(src, src.tree.body, "", None, pending)
        for key, fn in self.functions.items():
            self.by_name.setdefault(fn.name, []).append(key)
        for src, info in pending:
            _FunctionScanner(self, src, info).scan()

    def _walk_defs(
        self,
        src: SourceFile,
        body: Sequence[ast.stmt],
        prefix: str,
        cls: Optional[str],
        pending: List[Tuple[SourceFile, "_FuncInfo"]],
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                key = f"{src.rel}::{qual}"
                info = _FuncInfo(
                    key=key, name=node.name, cls=cls, rel=src.rel, node=node
                )
                self.functions[key] = info
                pending.append((src, info))
                self._walk_defs(
                    src, node.body, f"{qual}.<locals>.", cls, pending
                )
            elif isinstance(node, ast.ClassDef):
                self._walk_defs(
                    src, node.body, f"{prefix}{node.name}.", cls=node.name,
                    pending=pending,
                )

    # -- resolution helpers ------------------------------------------------

    def lock_owning(self, cls_name: str) -> bool:
        info = self.classes.get(cls_name)
        return bool(info and info.locks)

    def owning_lock_ids(self, cls_name: str) -> Set[str]:
        info = self.classes.get(cls_name)
        if not info:
            return set()
        return {f"{cls_name}.{attr}" for attr in info.locks}

    def resolve_method(self, cls_name: str, method: str) -> Tuple[str, ...]:
        info = self.classes.get(cls_name)
        if info and method in info.methods:
            matches = tuple(
                key
                for key, fn in self.functions.items()
                if fn.cls == cls_name and fn.name == method
            )
            if matches:
                return matches
        return ()

    def resolve_unique(self, name: str) -> Tuple[str, ...]:
        if name in _AMBIGUOUS_NAMES or name.startswith("__"):
            return ()
        keys = self.by_name.get(name, ())
        if len(keys) == 1:
            return tuple(keys)
        return ()


def _annotation_name(ann: ast.AST) -> Optional[str]:
    if isinstance(ann, ast.Name):
        return ann.id
    if isinstance(ann, ast.Attribute):
        return ann.attr
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value.split(".")[-1].strip() or None
    if isinstance(ann, ast.Subscript):  # Optional[T] / list[T]
        base = _annotation_name(ann.value)
        if base in ("Optional",):
            return _annotation_name(ann.slice)
        return None
    return None


def _constructed_class(node: ast.AST) -> Optional[str]:
    """``ClassName(...)`` -> ``ClassName`` (capitalized names only)."""
    if isinstance(node, ast.Call):
        name = ""
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name[:1].isupper():
            return name
    return None


class _FunctionScanner:
    """Linear walk of one function body tracking the held-lock set."""

    def __init__(
        self, collector: _Collector, src: SourceFile, info: _FuncInfo
    ) -> None:
        self.c = collector
        self.src = src
        self.info = info
        #: local variable -> class name (annotations + constructions)
        self.var_types: Dict[str, str] = {}
        node = info.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            all_args = list(node.args.posonlyargs) + list(node.args.args)
            all_args += list(node.args.kwonlyargs)
            for arg in all_args:
                if arg.annotation is not None:
                    type_name = _annotation_name(arg.annotation)
                    if type_name:
                        self.var_types[arg.arg] = type_name

    def site(self, node: ast.AST) -> LockSite:
        return LockSite(
            rel=self.src.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
        )

    # -- type/lock resolution ----------------------------------------------

    def receiver_class(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            if node.id == "self":
                return self.info.cls
            return self.var_types.get(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
        ):
            owner = self.receiver_class(node.value)
            if owner:
                owner_info = self.c.classes.get(owner)
                if owner_info:
                    return owner_info.attr_types.get(node.attr)
        return None

    def resolve_lock(self, node: ast.AST) -> Optional[Tuple[str, bool]]:
        """Expr -> (lock id, reentrant) when it denotes a known lock."""
        if isinstance(node, ast.Name):
            mod = self.c.module_locks.get(self.src.rel, {})
            if node.id in mod:
                return (f"{self.src.rel}::{node.id}", mod[node.id])
            return None
        if isinstance(node, ast.Attribute):
            owner = self.receiver_class(node.value)
            if owner:
                info = self.c.classes.get(owner)
                if info and node.attr in info.locks:
                    return (f"{owner}.{node.attr}", info.locks[node.attr])
        return None

    def resolve_callee(self, func: ast.AST) -> Tuple[str, ...]:
        if isinstance(func, ast.Name):
            same_module = f"{self.src.rel}::{func.id}"
            if same_module in self.c.functions:
                return (same_module,)
            return self.c.resolve_unique(func.id)
        if isinstance(func, ast.Attribute):
            owner = self.receiver_class(func.value)
            if owner:
                keys = self.c.resolve_method(owner, func.attr)
                if keys:
                    return keys
                return ()
            return self.c.resolve_unique(func.attr)
        return ()

    # -- acquisition / edge bookkeeping ------------------------------------

    def _acquire(
        self, lock_id: str, reentrant: bool, held: Set[str], node: ast.AST
    ) -> None:
        if lock_id in held and not reentrant:
            self.info.self_deadlocks.append((lock_id, self.site(node)))
        for h in held:
            if h != lock_id:
                self.info.edges.append((h, lock_id, self.site(node)))
        self.info.acquires.add(lock_id)
        held.add(lock_id)

    # -- traversal ---------------------------------------------------------

    def scan(self) -> None:
        node = self.info.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.exec_block(node.body, set())

    def exec_block(self, stmts: Sequence[ast.stmt], held: Set[str]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt, held)

    def exec_stmt(self, stmt: ast.stmt, held: Set[str]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs get their own summary
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            entered: List[str] = []
            for item in stmt.items:
                self.visit_expr(item.context_expr, held)
                lock = self.resolve_lock(item.context_expr)
                if lock is not None:
                    lock_id, reentrant = lock
                    before = lock_id in held
                    self._acquire(lock_id, reentrant, held, stmt)
                    if not before:
                        entered.append(lock_id)
            self.exec_block(stmt.body, held)
            for lock_id in entered:
                held.discard(lock_id)
            return
        if isinstance(stmt, ast.If):
            then_held = set(held)
            else_held = set(held)
            self.visit_expr(stmt.test, held)
            self.exec_block(stmt.body, then_held)
            self.exec_block(stmt.orelse, else_held)
            # only locks acquired on BOTH branches are reliably held
            held.update(then_held & else_held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.visit_expr(stmt.iter, held)
            self.exec_block(stmt.body, set(held))
            self.exec_block(stmt.orelse, set(held))
            return
        if isinstance(stmt, ast.While):
            self.visit_expr(stmt.test, held)
            self.exec_block(stmt.body, set(held))
            self.exec_block(stmt.orelse, set(held))
            return
        if isinstance(stmt, ast.Try):
            self.exec_block(stmt.body, held)
            for handler in stmt.handlers:
                self.exec_block(handler.body, set(held))
            self.exec_block(stmt.orelse, set(held))
            self.exec_block(stmt.finalbody, held)
            return
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets: List[ast.AST]
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            else:
                targets = [stmt.target]
            if stmt.value is not None:
                self.visit_expr(stmt.value, held)
                for tgt in targets:
                    self._record_write(tgt, held)
            # track local construction: x = ClassName(...)
            if isinstance(stmt, ast.Assign) and stmt.value is not None:
                cls_name = _constructed_class(stmt.value)
                if cls_name:
                    for tgt in stmt.targets:
                        if isinstance(tgt, ast.Name):
                            self.var_types[tgt.id] = cls_name
            return
        if isinstance(stmt, ast.Expr):
            self.visit_expr(stmt.value, held)
            return
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self.visit_expr(stmt.value, held)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.visit_expr(child, held)

    def _record_write(self, target: ast.AST, held: Set[str]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_write(elt, held)
            return
        if not isinstance(target, ast.Attribute):
            return
        owner = self.receiver_class(target.value)
        if not owner or not self.c.lock_owning(owner):
            return
        info = self.c.classes.get(owner)
        if info and target.attr in info.locks:
            return  # installing the lock itself
        if self.info.name in _CONSTRUCTORS:
            return  # instance not yet published
        self.info.writes.append(
            (owner, target.attr, frozenset(held), self.site(target))
        )

    # -- expressions: calls, acquire/release, spawns -----------------------

    def visit_expr(self, node: ast.AST, held: Set[str]) -> None:
        for call in _walk_calls(node):
            self._handle_call(call, held)

    def _handle_call(self, node: ast.Call, held: Set[str]) -> None:
        func = node.func
        # explicit acquire/release on a resolvable lock
        if isinstance(func, ast.Attribute) and func.attr in (
            "acquire",
            "release",
        ):
            lock = self.resolve_lock(func.value)
            if lock is not None:
                lock_id, reentrant = lock
                if func.attr == "acquire":
                    self._acquire(lock_id, reentrant, held, node)
                else:
                    held.discard(lock_id)
                return
        # worker-thread spawn points
        self._detect_spawn(node)
        # ordinary call edge
        candidates = self.resolve_callee(func)
        if candidates:
            self.info.calls.append(
                (candidates, frozenset(held), self.site(node))
            )

    def _detect_spawn(self, node: ast.Call) -> None:
        func = node.func
        spawn_exprs: List[Tuple[ast.AST, List[ast.AST]]] = []
        if isinstance(func, ast.Attribute):
            if func.attr == "submit" and node.args:
                spawn_exprs.append((node.args[0], list(node.args[1:])))
            elif func.attr == "map" and node.args:
                spawn_exprs.append((node.args[0], []))
            elif func.attr == "run_in_executor" and len(node.args) >= 2:
                spawn_exprs.append((node.args[1], list(node.args[2:])))
        name = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id
            if isinstance(func, ast.Name)
            else ""
        )
        if name == "Thread":
            for kw in node.keywords:
                if kw.arg == "target":
                    spawn_exprs.append((kw.value, []))
        for expr, trailing in spawn_exprs:
            for keys in self._callable_targets(expr, trailing):
                self.info.spawns.append(keys)

    def _callable_targets(
        self, expr: ast.AST, trailing: List[ast.AST], depth: int = 0
    ) -> List[Tuple[str, ...]]:
        """Resolve a callable expr to candidate functions, chasing
        ``run_with_context(ctx, fn, ...)`` bridges and lambda wrappers."""
        if depth > 4:
            return []
        if isinstance(expr, (ast.Name, ast.Attribute)):
            attr = (
                expr.attr
                if isinstance(expr, ast.Attribute)
                else expr.id
            )
            if attr == "run_with_context" and len(trailing) >= 2:
                return self._callable_targets(
                    trailing[1], trailing[2:], depth + 1
                )
            keys = self.resolve_callee(expr)
            return [keys] if keys else []
        if isinstance(expr, ast.Lambda):
            out: List[Tuple[str, ...]] = []
            for call in _walk_calls(expr.body):
                func = call.func
                fname = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else func.id
                    if isinstance(func, ast.Name)
                    else ""
                )
                if fname == "run_with_context" and len(call.args) >= 2:
                    out.extend(
                        self._callable_targets(
                            call.args[1], list(call.args[2:]), depth + 1
                        )
                    )
                else:
                    keys = self.resolve_callee(func)
                    if keys:
                        out.append(keys)
            return out
        return []


def _walk_calls(node: ast.AST) -> List[ast.Call]:
    """Every Call in an expression, outermost first, skipping lambda
    bodies (those run later, in whatever context invokes them)."""
    out: List[ast.Call] = []
    stack: List[ast.AST] = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, ast.Lambda):
            continue
        if isinstance(cur, ast.Call):
            out.append(cur)
        stack.extend(ast.iter_child_nodes(cur))
    return out


# ---------------------------------------------------------------------------
# global analysis


def analyze_project(sources: Sequence[SourceFile]) -> ProjectLockAnalysis:
    out = ProjectLockAnalysis()
    collector = _Collector(sources)
    collector.collect_declarations()
    collector.collect_functions()
    functions = collector.functions

    # reentrancy table over every known lock id
    for cls in collector.classes.values():
        for attr, reentrant in cls.locks.items():
            out.locks[f"{cls.name}.{attr}"] = reentrant
    for rel, mod in collector.module_locks.items():
        for name, reentrant in mod.items():
            out.locks[f"{rel}::{name}"] = reentrant

    # may-acquire closure: locks a call might take, transitively
    may_acquire: Dict[str, Set[str]] = {
        key: set(fn.acquires) for key, fn in functions.items()
    }
    changed = True
    while changed:
        changed = False
        for key, fn in functions.items():
            acc = may_acquire[key]
            before = len(acc)
            for candidates, _held, _site in fn.calls:
                for callee in candidates:
                    acc |= may_acquire.get(callee, set())
            if len(acc) != before:
                changed = True

    # lock-order edges: direct acquisitions plus acquisitions reached
    # through calls made while holding
    edges: Dict[Tuple[str, str], LockSite] = {}
    for fn in functions.values():
        for held, acquired, site in fn.edges:
            edges.setdefault((held, acquired), site)
        for candidates, held, site in fn.calls:
            if not held:
                continue
            for callee in candidates:
                for acquired in may_acquire.get(callee, set()):
                    for h in held:
                        if h != acquired:
                            edges.setdefault((h, acquired), site)
                        elif not out.locks.get(acquired, False):
                            fn.self_deadlocks.append((acquired, site))
    out.edges = edges

    diags: List[Diagnostic] = []

    # REPRO210: self-deadlocks and cycles
    seen_self: Set[Tuple[str, str, int]] = set()
    for fn in functions.values():
        for lock_id, site in fn.self_deadlocks:
            key = (lock_id, site.rel, site.line)
            if key in seen_self:
                continue
            seen_self.add(key)
            diags.append(
                Diagnostic(
                    path=site.rel,
                    line=site.line,
                    col=site.col,
                    rule_id="REPRO210",
                    severity=SEVERITY_ERROR,
                    message=(
                        f"non-reentrant lock `{lock_id}` is re-acquired "
                        "while already held on this path: threading.Lock "
                        "self-deadlocks (use RLock only if re-entry is "
                        "genuinely needed; usually the inner acquisition "
                        "should be hoisted out)"
                    ),
                )
            )
    for cycle in _find_cycles({e for e in edges}):
        first = min(
            (edges[(a, b)], a, b)
            for a, b in zip(cycle, cycle[1:] + cycle[:1])
            if (a, b) in edges
        )
        site, a, b = first
        pretty = " -> ".join(cycle + [cycle[0]])
        diags.append(
            Diagnostic(
                path=site.rel,
                line=site.line,
                col=site.col,
                rule_id="REPRO210",
                severity=SEVERITY_ERROR,
                message=(
                    f"lock-order cycle {pretty}: two paths acquire these "
                    "locks in opposite orders, which can deadlock under "
                    "the worker pool (pick one global order and acquire "
                    "in that order everywhere)"
                ),
            )
        )

    # REPRO211: unguarded writes reachable from worker threads.
    # entry_held(fn) = locks provably held on EVERY path from a spawn
    # point into fn (intersection); workers start holding nothing.
    entry_held: Dict[str, FrozenSet[str]] = {}
    worklist: List[str] = []
    for fn in functions.values():
        for candidates in fn.spawns:
            for target in candidates:
                if target in functions and target not in entry_held:
                    entry_held[target] = frozenset()
                    worklist.append(target)
    while worklist:
        key = worklist.pop()
        fn = functions.get(key)
        if fn is None:
            continue
        base = entry_held[key]
        for candidates, held, _site in fn.calls:
            h = frozenset(base | held)
            for callee in candidates:
                if callee not in functions:
                    continue
                if callee not in entry_held:
                    entry_held[callee] = h
                    worklist.append(callee)
                else:
                    merged = entry_held[callee] & h
                    if merged != entry_held[callee]:
                        entry_held[callee] = merged
                        worklist.append(callee)
    out.worker_reachable = set(entry_held)

    for key, base in entry_held.items():
        fn = functions[key]
        for owner, attr, held, site in fn.writes:
            owning = collector.owning_lock_ids(owner)
            if (base | held) & owning:
                continue
            diags.append(
                Diagnostic(
                    path=site.rel,
                    line=site.line,
                    col=site.col,
                    rule_id="REPRO211",
                    severity=SEVERITY_ERROR,
                    message=(
                        f"`{owner}.{attr}` is written on a path "
                        "reachable from a worker thread without holding "
                        f"any of {sorted(owning)}: concurrent writers "
                        "race (wrap the write in `with` on the owning "
                        "lock, or prove the path single-threaded and "
                        "noqa with that argument)"
                    ),
                )
            )

    out.diagnostics = sorted(diags)
    return out


def _find_cycles(edges: Set[Tuple[str, str]]) -> List[List[str]]:
    """Elementary cycles of length >= 2, each reported once.

    The lock graphs here are tiny (a handful of nodes), so a DFS from
    each node with a canonical-rotation dedup is plenty.
    """
    graph: Dict[str, Set[str]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    cycles: List[List[str]] = []
    seen: Set[Tuple[str, ...]] = set()

    def dfs(start: str, node: str, path: List[str]) -> None:
        for nxt in sorted(graph.get(node, ())):
            if nxt == start and len(path) >= 2:
                rotation = min(
                    tuple(path[i:] + path[:i]) for i in range(len(path))
                )
                if rotation not in seen:
                    seen.add(rotation)
                    cycles.append(list(rotation))
            elif nxt not in path and nxt > start:
                # only visit nodes > start: each cycle found exactly
                # once, from its smallest node
                dfs(start, nxt, path + [nxt])

    for start in sorted(graph):
        dfs(start, start, [start])
    return cycles


# ---------------------------------------------------------------------------
# registry adapters


_PROJECT_CACHE: Dict[Tuple[Tuple[str, int], ...], ProjectLockAnalysis] = {}


def _analyze_cached(
    sources: Sequence[SourceFile],
) -> ProjectLockAnalysis:
    key = tuple(sorted((s.rel, hash(s.text)) for s in sources))
    hit = _PROJECT_CACHE.get(key)
    if hit is not None:
        return hit
    analysis = analyze_project(sources)
    if len(_PROJECT_CACHE) >= 8:
        _PROJECT_CACHE.clear()
    _PROJECT_CACHE[key] = analysis
    return analysis


class _LockRule(Rule):
    severity = SEVERITY_ERROR
    project = True

    def applies_to(self, rel_path: str) -> bool:
        parts = rel_path.split("/")
        name = parts[-1]
        is_test = (
            "tests" in parts
            or name.startswith("test_")
            or name == "conftest.py"
        )
        return not is_test

    def check_project(
        self, sources: Sequence[SourceFile]
    ) -> List[Diagnostic]:
        analysis = _analyze_cached(sources)
        return [d for d in analysis.diagnostics if d.rule_id == self.id]


@register
class LockOrderCycle(_LockRule):
    id = "REPRO210"
    name = "lock-order-cycle"
    rationale = (
        "two code paths that take the same pair of locks in opposite "
        "orders deadlock the worker pool the first time they interleave; "
        "re-acquiring a held threading.Lock deadlocks a single thread — "
        "both are invisible to tests that never hit the interleaving"
    )


@register
class UnguardedSharedWrite(_LockRule):
    id = "REPRO211"
    name = "unguarded-shared-write"
    rationale = (
        "a class that owns a lock declares its attributes shared "
        "mutable state; writing them on a worker-thread-reachable path "
        "without the lock races against every guarded reader/writer "
        "(lost updates on counters, torn LRU order on the cache)"
    )
