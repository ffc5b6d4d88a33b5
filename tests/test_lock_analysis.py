"""Tests for the lock-order / worker-thread analysis (REPRO210/211).

Fixture layers:

* REPRO210 — opposite-order ``with`` nests, cycles assembled across
  helper calls, self-deadlock on re-acquiring a held ``Lock`` (directly
  and through a call), and the RLock/consistent-order clean cases;
* REPRO211 — unguarded writes reached through every spawn shape the
  serving stack uses (``Thread(target=)``, ``pool.submit``,
  ``pool.map`` with a lambda, ``loop.run_in_executor`` bridged through
  ``obs.run_with_context``), plus guarded/noqa/clean variants;
* the ISSUE-9 satellite: the real tree is **clean** under both rules —
  every ``EncodedMatrixCache`` mutation happens under the cache lock —
  and a cache-to-cache migration driven from a pool worker with a write
  outside the lock still fires.  The regression test pins that verdict
  against the real tree and asserts the worker-reachability analysis
  actually traced the serve/batch spawn chain (a vacuously-empty call
  graph would also report "clean").
"""

from pathlib import Path

import pytest

from repro.analysis import get_rules, lint_paths, lint_source
from repro.analysis.core import SourceFile, iter_python_files
from repro.analysis.locks import analyze_project

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def run_rule(rule_id, text):
    return lint_source(text, rules=get_rules([rule_id]))


def fired(rule_id, text):
    return [d.line for d in run_rule(rule_id, text)]


# ---------------------------------------------------------------------------
# REPRO210: lock ordering


class TestLockOrderCycle:
    def test_fires_on_opposite_order_with_nests(self):
        text = (
            "import threading\n"
            "A = threading.Lock()\n"
            "B = threading.Lock()\n"
            "def f():\n"
            "    with A:\n"
            "        with B:\n"
            "            pass\n"
            "def g():\n"
            "    with B:\n"
            "        with A:\n"
            "            pass\n"
        )
        assert len(run_rule("REPRO210", text)) == 1

    def test_fires_on_cycle_through_helper_calls(self):
        text = (
            "import threading\n"
            "A = threading.Lock()\n"
            "B = threading.Lock()\n"
            "def hold_a_then_b():\n"
            "    with A:\n"
            "        take_b()\n"
            "def take_b():\n"
            "    with B:\n"
            "        pass\n"
            "def hold_b_then_a():\n"
            "    with B:\n"
            "        take_a()\n"
            "def take_a():\n"
            "    with A:\n"
            "        pass\n"
        )
        assert len(run_rule("REPRO210", text)) == 1

    def test_fires_on_self_deadlock_through_call(self):
        text = (
            "import threading\n"
            "class T:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def outer(self):\n"
            "        with self._lock:\n"
            "            self.inner()\n"
            "    def inner(self):\n"
            "        with self._lock:\n"
            "            pass\n"
        )
        assert len(run_rule("REPRO210", text)) == 1

    def test_fires_on_directly_nested_reacquire(self):
        text = (
            "import threading\n"
            "class T:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def f(self):\n"
            "        with self._lock:\n"
            "            with self._lock:\n"
            "                pass\n"
        )
        assert fired("REPRO210", text) == [7]

    def test_rlock_reentry_is_clean(self):
        text = (
            "import threading\n"
            "class T:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "    def outer(self):\n"
            "        with self._lock:\n"
            "            self.inner()\n"
            "    def inner(self):\n"
            "        with self._lock:\n"
            "            pass\n"
        )
        assert fired("REPRO210", text) == []

    def test_consistent_order_is_clean(self):
        text = (
            "import threading\n"
            "A = threading.Lock()\n"
            "B = threading.Lock()\n"
            "def f():\n"
            "    with A:\n"
            "        with B:\n"
            "            pass\n"
            "def g():\n"
            "    with A:\n"
            "        with B:\n"
            "            pass\n"
        )
        assert fired("REPRO210", text) == []

    def test_explicit_acquire_release_pairs_are_tracked(self):
        text = (
            "import threading\n"
            "A = threading.Lock()\n"
            "B = threading.Lock()\n"
            "def f():\n"
            "    A.acquire()\n"
            "    with B:\n"
            "        pass\n"
            "    A.release()\n"
            "def g():\n"
            "    with B:\n"
            "        A.acquire()\n"
            "        A.release()\n"
        )
        assert len(run_rule("REPRO210", text)) == 1

    def test_release_before_next_acquire_is_clean(self):
        text = (
            "import threading\n"
            "A = threading.Lock()\n"
            "B = threading.Lock()\n"
            "def f():\n"
            "    A.acquire()\n"
            "    A.release()\n"
            "    with B:\n"
            "        pass\n"
            "def g():\n"
            "    with B:\n"
            "        pass\n"
            "    A.acquire()\n"
            "    A.release()\n"
        )
        assert fired("REPRO210", text) == []

    def test_noqa_suppresses(self):
        text = (
            "import threading\n"
            "A = threading.Lock()\n"
            "B = threading.Lock()\n"
            "def f():\n"
            "    with A:\n"
            "        with B:  # repro: noqa REPRO210\n"
            "            pass\n"
            "def g():\n"
            "    with B:\n"
            "        with A:\n"
            "            pass\n"
        )
        # the cycle is reported at its smallest edge site; whichever
        # line that is, suppressing it must silence the finding when it
        # lands there and the unsuppressed line still reports otherwise
        diags = run_rule("REPRO210", text)
        assert all(d.line != 6 for d in diags)


class TestLockGraph:
    def test_edges_and_lock_table_are_exposed(self):
        src = SourceFile(
            "import threading\n"
            "A = threading.Lock()\n"
            "B = threading.RLock()\n"
            "def f():\n"
            "    with A:\n"
            "        with B:\n"
            "            pass\n",
            "m.py",
        )
        analysis = analyze_project([src])
        assert analysis.locks["m.py::A"] is False
        assert analysis.locks["m.py::B"] is True
        assert ("m.py::A", "m.py::B") in analysis.edges


# ---------------------------------------------------------------------------
# REPRO211: unguarded writes on worker-reachable paths


_CACHE_PREAMBLE = (
    "import threading\n"
    "class Cache:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.hits = 0\n"
)


class TestUnguardedSharedWrite:
    def test_fires_via_thread_target(self):
        text = _CACHE_PREAMBLE + (
            "    def bump(self):\n"
            "        self.hits += 1\n"
            "def main(cache: Cache):\n"
            "    threading.Thread(target=cache.bump).start()\n"
        )
        assert fired("REPRO211", text) == [7]

    def test_fires_via_pool_submit(self):
        text = _CACHE_PREAMBLE + (
            "    def bump(self):\n"
            "        self.hits += 1\n"
            "def main(pool, cache: Cache):\n"
            "    pool.submit(cache.bump)\n"
        )
        assert fired("REPRO211", text) == [7]

    def test_fires_via_pool_map_lambda_bridge(self):
        # the exact shape multiply_batch uses: a lambda wrapping
        # obs.run_with_context(ctx, self._row_tile_pack, ...)
        text = _CACHE_PREAMBLE + (
            "    def bump(self, task):\n"
            "        self.hits += 1\n"
            "def main(pool, cache: Cache, ctx, tasks):\n"
            "    pool.map(lambda t: run_with_context(ctx, cache.bump, t),\n"
            "             tasks)\n"
        )
        assert fired("REPRO211", text) == [7]

    def test_fires_via_run_in_executor_bridge(self):
        # the serve/server.py shape: loop.run_in_executor(pool,
        # run_with_context, ctx, engine.multiply_batch, args)
        text = _CACHE_PREAMBLE + (
            "    def bump(self, arg):\n"
            "        self.hits += 1\n"
            "async def main(loop, pool, cache: Cache, ctx, arg):\n"
            "    await loop.run_in_executor(\n"
            "        pool, run_with_context, ctx, cache.bump, arg)\n"
        )
        assert fired("REPRO211", text) == [7]

    def test_fires_transitively_through_helpers(self):
        text = _CACHE_PREAMBLE + (
            "    def bump(self):\n"
            "        self.hits += 1\n"
            "    def entry(self):\n"
            "        self.bump()\n"
            "def main(cache: Cache):\n"
            "    threading.Thread(target=cache.entry).start()\n"
        )
        assert fired("REPRO211", text) == [7]

    def test_guarded_write_is_clean(self):
        text = _CACHE_PREAMBLE + (
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.hits += 1\n"
            "def main(cache: Cache):\n"
            "    threading.Thread(target=cache.bump).start()\n"
        )
        assert fired("REPRO211", text) == []

    def test_caller_held_lock_guards_the_callee(self):
        # the lock is taken one frame up: intersection propagation must
        # see it held on every path into the writer
        text = _CACHE_PREAMBLE + (
            "    def bump(self):\n"
            "        self.hits += 1\n"
            "    def entry(self):\n"
            "        with self._lock:\n"
            "            self.bump()\n"
            "def main(cache: Cache):\n"
            "    threading.Thread(target=cache.entry).start()\n"
        )
        assert fired("REPRO211", text) == []

    def test_write_not_reachable_from_workers_is_clean(self):
        # same unguarded write, but only ever called on the main
        # thread: the single-threaded path is not a data race
        text = _CACHE_PREAMBLE + (
            "    def bump(self):\n"
            "        self.hits += 1\n"
            "def main(cache: Cache):\n"
            "    cache.bump()\n"
        )
        assert fired("REPRO211", text) == []

    def test_lockless_class_is_never_flagged(self):
        # no lock attribute -> the class never declared its attributes
        # shared; flagging it would drown real findings
        text = (
            "import threading\n"
            "class Plain:\n"
            "    def __init__(self):\n"
            "        self.n = 0\n"
            "    def bump(self):\n"
            "        self.n += 1\n"
            "def main(p: Plain):\n"
            "    threading.Thread(target=p.bump).start()\n"
        )
        assert fired("REPRO211", text) == []

    def test_constructor_writes_are_exempt(self):
        text = _CACHE_PREAMBLE + (
            "def build():\n"
            "    return Cache()\n"
            "def main(pool):\n"
            "    pool.submit(build)\n"
        )
        assert fired("REPRO211", text) == []

    def test_noqa_suppresses(self):
        text = _CACHE_PREAMBLE + (
            "    def bump(self):\n"
            "        self.hits += 1  # repro: noqa REPRO211\n"
            "def main(cache: Cache):\n"
            "    threading.Thread(target=cache.bump).start()\n"
        )
        assert fired("REPRO211", text) == []


# ---------------------------------------------------------------------------
# the ISSUE-9 satellite: cross-cache migration verdict, pinned


class TestMigrationVerdict:
    """The real tree is clean; a hazardous cache migration is not.

    The hazard under suspicion: moving encoded entries between caches
    while worker threads serve requests from them.  The real tree is
    CLEAN because every `EncodedMatrixCache` mutation
    (`get_or_encode`/`clear`) takes `self._lock`; the synthetic
    migration below, which drives an unlocked write from a pool
    worker, must fire.  A refactor that adds an unlocked cache write
    reachable from a worker fails here.
    """

    @pytest.fixture(scope="class")
    def project(self):
        sources = [
            SourceFile.from_path(p, root=SRC.parents[1])
            for p in iter_python_files([SRC])
        ]
        return analyze_project(sources)

    def test_real_tree_is_clean_under_lock_rules(self):
        diags = lint_paths(
            [SRC],
            rules=get_rules(["REPRO210", "REPRO211"]),
            root=SRC.parents[1],
        )
        assert diags == [], "\n".join(d.format() for d in diags)

    def test_worker_reachability_traced_the_serving_stack(self, project):
        # guard against a vacuous verdict: both spawn chains (the
        # batch pool.map lambda and the serve run_in_executor bridge)
        # must have been resolved into the kernel call graph
        reached = project.worker_reachable
        assert any(
            key.endswith("BatchedHmvp._row_tile_pack") for key in reached
        ), sorted(reached)
        assert any(
            key.endswith("BatchedHmvp.multiply_batch") for key in reached
        ), sorted(reached)
        # and the reachable set crosses into the HE kernel layer
        assert any("src/repro/he/" in key for key in reached)

    def test_lock_table_covers_the_known_locks(self, project):
        assert {
            "EncodedMatrixCache._lock",
            "Tracer._lock",
            "MetricsRegistry._lock",
            "Counter._lock",
            "Histogram._lock",
        } <= set(project.locks)

    def test_no_lock_order_edges_in_the_tree(self, project):
        # every lock in src/repro is a leaf: nothing is acquired while
        # another lock is held, so ordering deadlocks are impossible by
        # construction — pin that structural property
        assert project.edges == {}

    def test_migration_shape_fires_when_made_hazardous(self):
        # the counterfactual: put the install counter OUTSIDE the lock
        # and drive migration from a pool worker — the rule must fire
        # (this is the bug class the satellite asked the analysis to
        # check the real migration path for)
        text = (
            "import threading\n"
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._entries = {}\n"
            "        self.installs = 0\n"
            "    def install(self, key, entry):\n"
            "        with self._lock:\n"
            "            self._entries[key] = entry\n"
            "        self.installs += 1\n"
            "class Controller:\n"
            "    def migrate(self, source: Cache, target: Cache, key):\n"
            "        target.install(key, source)\n"
            "def main(pool, ctl: Controller, a: Cache, b: Cache, key):\n"
            "    pool.submit(ctl.migrate, a, b, key)\n"
        )
        assert fired("REPRO211", text) == [10]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
