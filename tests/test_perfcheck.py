"""Tests for the perf-regression gate (repro.obs.perfcheck)."""

import json

import pytest

from repro.obs.perfcheck import (
    check_floors,
    evaluate_check,
    latest_record,
    run_metadata,
)


def _write_results(tmp_path, bench, metrics, meta=None):
    record = {"params": {}, "metrics": metrics, "timestamp": "t"}
    if meta is not None:
        record["meta"] = meta
    path = tmp_path / f"BENCH_{bench}.json"
    path.write_text(json.dumps([record]))
    return path


def _write_floors(tmp_path, checks):
    path = tmp_path / "floors.json"
    path.write_text(json.dumps({"version": 1, "checks": checks}))
    return path


# -- run metadata -------------------------------------------------------------


def test_run_metadata_fields():
    meta = run_metadata()
    assert set(meta) == {
        "git_sha", "timestamp_utc", "hostname", "python", "numpy"
    }
    assert all(isinstance(v, str) and v for v in meta.values())
    # inside this repo the SHA resolves to a real 40-hex commit
    import pathlib

    repo = pathlib.Path(__file__).resolve().parents[1]
    if (repo / ".git").exists():
        sha = run_metadata(str(repo))["git_sha"]
        assert len(sha) == 40 and all(c in "0123456789abcdef" for c in sha)


def test_run_metadata_outside_a_repo(tmp_path):
    assert run_metadata(str(tmp_path))["git_sha"] == "unknown"


# -- single-check comparator --------------------------------------------------


def test_floor_passes_within_tolerance_band():
    record = {"metrics": {"speedup": 1.7}}
    check = {"bench": "b", "metric": "speedup", "kind": "floor",
             "value": 2.0, "tolerance": 0.25}
    result = evaluate_check(check, record)
    assert result.passed  # bound = 2.0 * 0.75 = 1.5 <= 1.7
    assert result.bound == pytest.approx(1.5)


def test_floor_fails_on_synthetic_2x_slowdown():
    """Acceptance: the gate demonstrably fails when the measured figure
    halves (a 2x slowdown) against the same pinned floor."""
    check = {"bench": "b", "metric": "goodput", "kind": "floor",
             "value": 100.0, "tolerance": 0.25}
    assert evaluate_check(check, {"metrics": {"goodput": 100.0}}).passed
    slow = evaluate_check(check, {"metrics": {"goodput": 50.0}})
    assert not slow.passed
    assert "floor bound" in slow.reason


def test_ceiling_fails_on_synthetic_2x_slowdown():
    check = {"bench": "b", "metric": "warm_s", "kind": "ceiling",
             "value": 0.1, "tolerance": 0.5}
    assert evaluate_check(check, {"metrics": {"warm_s": 0.1}}).passed
    slow = evaluate_check(check, {"metrics": {"warm_s": 0.2}})
    assert not slow.passed
    assert "ceiling bound" in slow.reason


def test_missing_record_and_metric_fail_explicitly():
    check = {"bench": "b", "metric": "m", "kind": "floor", "value": 1.0}
    gone = evaluate_check(check, None)
    assert not gone.passed and gone.reason == "no benchmark record"
    empty = evaluate_check(check, {"metrics": {}})
    assert not empty.passed and "missing" in empty.reason


def test_invalid_checks_raise():
    with pytest.raises(ValueError):
        evaluate_check(
            {"bench": "b", "metric": "m", "kind": "target", "value": 1.0}, {}
        )
    with pytest.raises(ValueError):
        evaluate_check(
            {"bench": "b", "metric": "m", "value": 1.0, "tolerance": -0.1}, {}
        )


# -- whole-report gate --------------------------------------------------------


def test_check_floors_reads_latest_record(tmp_path):
    path = tmp_path / "BENCH_b.json"
    path.write_text(json.dumps([
        {"metrics": {"speedup": 9.0}},   # stale run
        {"metrics": {"speedup": 3.0}},   # latest run wins
    ]))
    assert latest_record(tmp_path, "b")["metrics"]["speedup"] == 3.0
    floors = _write_floors(tmp_path, [
        {"bench": "b", "metric": "speedup", "kind": "floor",
         "value": 4.0, "tolerance": 0.1},
    ])
    report = check_floors(tmp_path, floors)
    assert not report.passed  # 3.0 < 3.6, despite the stale 9.0


def test_check_floors_report_shape(tmp_path):
    meta = {"git_sha": "f" * 40, "timestamp_utc": "2026-08-08T00:00:00+00:00",
            "hostname": "ci", "python": "3.11.7", "numpy": "2.4.6"}
    _write_results(tmp_path, "batch", {"speedup": 3.3, "warm_s": 0.09}, meta)
    floors = _write_floors(tmp_path, [
        {"bench": "batch", "metric": "speedup", "kind": "floor",
         "value": 3.3, "tolerance": 0.4},
        {"bench": "batch", "metric": "warm_s", "kind": "ceiling",
         "value": 0.1, "tolerance": 1.0},
    ])
    report = check_floors(tmp_path, floors)
    assert report.passed and all(r.passed for r in report.results)
    assert report.metadata["batch"]["git_sha"] == "f" * 40
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["passed"] is True
    assert len(payload["checks"]) == 2
    text = report.render_text()
    assert "PASS" in text and "FAIL" not in text


def test_check_floors_fails_on_2x_regression(tmp_path):
    """End-to-end: halve both gated metrics and the report must fail with
    each regressed check named."""
    _write_results(tmp_path, "serve",
                   {"ratio_2e_vs_1e": 1.0, "goodput_wall_rps_2e": 34.0})
    floors = _write_floors(tmp_path, [
        {"bench": "serve", "metric": "ratio_2e_vs_1e", "kind": "floor",
         "value": 2.0, "tolerance": 0.25},
        {"bench": "serve", "metric": "goodput_wall_rps_2e", "kind": "floor",
         "value": 65.0, "tolerance": 0.5},
    ])
    report = check_floors(tmp_path, floors)
    assert not report.passed
    failed = {r.metric for r in report.results if not r.passed}
    assert failed == {"ratio_2e_vs_1e"}  # 34.0 clears the wide wall band
    assert "FAIL" in report.render_text()


def test_empty_floors_raise(tmp_path):
    floors = _write_floors(tmp_path, [])
    with pytest.raises(ValueError):
        check_floors(tmp_path, floors)


def test_shipped_floors_match_bench_metrics():
    """Every check in benchmarks/floors.json names a metric the benches
    actually record, so the gate can never silently rot."""
    import pathlib

    repo = pathlib.Path(__file__).resolve().parents[1]
    floors = json.loads((repo / "benchmarks" / "floors.json").read_text())
    recorded = {
        "serve": {
            "p50_ms_1e", "p95_ms_1e", "p99_ms_1e", "p50_ms_2e", "p95_ms_2e",
            "p99_ms_2e", "goodput_sim_rps_1e", "goodput_sim_rps_2e",
            "goodput_wall_rps_2e", "ratio_2e_vs_1e", "retries_1e",
            "retries_2e",
        },
        "batch": {
            "cold_s", "warm_s", "speedup", "amortized_ntts_per_vector",
        },
        "keyswitch": {
            "ops_per_s_single", "ops_per_s_batched",
        },
        "ntt_kernel": {
            "forward_per_s_digits", "inverse_per_s_digits",
            "forward_per_s_encode", "inverse_per_s_encode",
        },
        "topology": {
            "goodput_sim_rps_ideal", "goodput_sim_rps_ring",
            "goodput_sim_rps_mesh", "goodput_sim_rps_fat_tree",
            "network_cycles_ring", "network_cycles_mesh",
            "network_cycles_fat_tree", "ratio_ideal_vs_ring",
            "ratio_ideal_vs_mesh", "flits_dropped_total",
        },
    }
    assert floors["checks"], "shipped floors pin no checks"
    for check in floors["checks"]:
        assert check["metric"] in recorded[check["bench"]], check
        assert check["kind"] in ("floor", "ceiling")
        assert check["tolerance"] >= 0.0
