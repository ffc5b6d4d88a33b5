"""The benchmark's own tests, at the tiny size (``--size tiny``).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import host, run, tracing, workloads  # noqa: E402
from perfbench.tracing import Span  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def _tiny(workload: str, trace: int, seed: int = 1) -> "tuple[dict, list]":
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def test_benchmark_file_matches_the_runner():
    assert NAMES == sorted(workloads.WORKLOADS, key=NAMES.index)
    assert set(NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    result, lines = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    assert {"steal_fraction", "cpu_ms_per_op", "nproc", "meta"} <= set(record["host"])
    assert set(record["wall_clock"]) == set(run.END_TO_END)
    # probes around the set-up and after each timed operation or round
    assert record["host_speed"]["probes"] >= 2 + result["attempted"] // 4
    assert record["host_speed"]["slowdown_median"] > 0
    if trace:
        reasons = {line.split(":")[0][4:] for line in lines if line.startswith("n/a ")}
        assert reasons == set(workloads.make(workload, "tiny").not_reached)


def test_exact_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        _result, lines = _tiny("cluster-ring-n128", 0, seed=3)
        record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
        counts.append(record["exact_counts"])
    assert counts[0] == counts[1]
    assert counts[0]["hw.net_events_per_op"] > 0


def test_host_slowdown_is_read_around_each_stretch():
    speed = host.HostSpeed("interpreter")
    speed.at, speed.slowdowns = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
    assert speed.around(1.5, 1.9) == pytest.approx(1.5)
    assert speed.around(2.0, 3.0) == pytest.approx(3.0)
    assert speed.around(0.5, 0.9) == pytest.approx(1.0)
    assert speed.around(3.5, 4.0) == pytest.approx(4.0)


def test_end_to_end_reads_as_on_the_reference_host():
    ops = [workloads.Op(i, t0=float(i), t1=i + 0.1 * (i + 1), traced=False) for i in range(4)]
    ops.append(workloads.Op(4, t0=4.0, t1=4.5, traced=True))
    wl = type("W", (), {"ops": ops})()
    raw = {"failed": {3}, "setups": [(0.0, 1.0, 0.9), (0.0, 1.0, 0.7), (0.0, 1.0, 0.8)],
           "wall": {False: 3.0, True: 1.0}, "peak_rss_mb": 100.0}
    wall = run.end_to_end(wl, raw, workloads, lambda t0, t1: 1.0)
    assert wall == pytest.approx({"setup_s": 0.8, "throughput_per_s": 1.0, "latency_p50_ms": 200.0,
                                  "latency_p90_ms": 300.0, "peak_rss_mb": 100.0})
    # on a host twice as slow as the reference during op 0, four times during op 1
    slow = {0.0: 2.0, 1.0: 4.0}
    ref = run.end_to_end(wl, raw, workloads, lambda t0, t1: slow.get(t0, 1.0))
    assert ref == pytest.approx({"setup_s": 0.4, "throughput_per_s": 2.0, "latency_p50_ms": 50.0,
                                 "latency_p90_ms": 300.0, "peak_rss_mb": 100.0})


@pytest.mark.parametrize("kind", sorted(host.REFERENCE_PROBE_S))
def test_probe_does_fixed_work_outside_the_program(kind):
    work = host._REFERENCE_WORK[kind]
    assert work() == work()
    assert host.probe(kind) > 0
    assert not any(name.startswith("repro") for name in work.__code__.co_names)


def _garble(result):
    """A reply whose first pack decrypts to noise."""
    pack = result.packs[0]
    rng = np.random.default_rng(7)
    noise = np.stack([rng.integers(0, q, pack.ct.c0.shape[1], dtype=np.uint64)
                      for q in pack.ct.basis.moduli])
    result.packs[0] = dataclasses.replace(pack, ct=dataclasses.replace(pack.ct, c0=noise))
    return result


@pytest.mark.parametrize(
    "workload, owner, attr",
    [
        ("serve-n4096", "repro.core.batch.BatchedHmvp", "multiply_batch"),
        ("cluster-ring-n128", "repro.cluster.executor.ClusterExecutor", "execute"),
        ("heterolr-n4096", "repro.apps.heterolr.BfvBackend", "gradient"),
    ],
)
def test_corrupted_reply_counts_as_failed(workload, owner, attr, monkeypatch, capsys):
    module_name, cls_name = owner.rsplit(".", 1)
    cls = getattr(__import__(module_name, fromlist=[cls_name]), cls_name)
    original = getattr(cls, attr)
    state = {"timed": False, "corrupted": 0}

    def corrupt_once(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        if state["timed"] and not state["corrupted"]:
            state["corrupted"] += 1
            _garble(out[0] if isinstance(out, list) else out)
        return out

    wl_cls = type(workloads.make(workload, "tiny"))
    prepare = wl_cls.prepare

    def prepare_then_corrupt(self, seed):
        prepare(self, seed)
        state["timed"] = True

    monkeypatch.setattr(cls, attr, corrupt_once)
    monkeypatch.setattr(wl_cls, "prepare", prepare_then_corrupt)
    assert run.main(["--workload", workload, "--seconds", "0.5", "--size", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert state["corrupted"] == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def _replies(workload: str, traced: bool):
    """Raw reply bytes (or trained weights) of the first operations of a fresh tiny system."""
    wl = workloads.make(workload, "tiny")
    recorder = tracing.Recorder()
    try:
        assert wl.build(5)
        wl.prepare(5)
        if traced:
            recorder.start()
        wl.run(workloads.Until(deadline=0.0, min_ops=6), traced)
        recorder.stop()
        if traced:
            assert recorder.spans
        if workload == "heterolr-n4096":
            return [np.asarray(w).tobytes() for _ids, w, _data in wl.training_runs]
        return {i: wl.spool.raw(i) for i in sorted(op.op_id for op in wl.ops)[:6]}
    finally:
        recorder.stop()
        wl.shutdown()


@pytest.mark.parametrize("workload", NAMES)
def test_traced_replies_are_bit_identical(workload):
    assert _replies(workload, traced=True) == _replies(workload, traced=False)


def _bindings():
    """Every attribute of every repro module and of the classes they define."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in list(vars(value).items()):
                    out[(name, attr, cattr)] = cvalue
    return out


def test_tracing_restores_every_entry_point():
    before = _bindings()
    recorder = tracing.Recorder()
    recorder.start()
    during = _bindings()
    recorder.stop()
    after = _bindings()
    assert any(during[key] is not before[key] for key in before)
    assert all(after[key] is before[key] for key in before)


def _span(t0, t1, parent=None, layer="core.hmvp"):
    span = Span("x", layer, parent, 0)
    span.t0, span.t1 = t0, t1
    return span


def test_operation_self_time_subtracts_covered_time_only():
    outer = _span(1.0, 3.0)
    inner = _span(1.5, 2.0, parent=outer, layer="math.ntt")
    late = _span(3.5, 6.0)
    ops = [_span(0.0, 4.0, layer="serve"), _span(5.0, 7.0, layer="serve")]
    # op 1: 4 s minus [1, 3] and [3.5, 4]; op 2: 2 s minus [5, 6]
    assert tracing.op_self_seconds(ops, [outer, inner, late]) == pytest.approx(1.5 + 1.0)
    outer.child_s = inner.duration
    assert tracing.self_seconds([outer, inner]) == {"core.hmvp": 1.5, "math.ntt": 0.5}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
