"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _reset_obs():
    yield
    from repro import obs

    obs.disable_metrics()
    obs.REGISTRY.reset()
    obs.disable_tracing()
    obs.TRACER.reset()


def test_demo(capsys):
    assert main(["demo", "--rows", "4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "correct=True" in out
    assert "slot budget" in out


def test_trace(capsys):
    assert main(["trace", "--rows", "8", "--width", "40"]) == 0
    out = capsys.readouterr().out
    assert "dot    |" in out
    assert "pack L1" in out


def test_params_default(capsys):
    assert main(["params"]) == 0
    out = capsys.readouterr().out
    assert "n=4096" in out
    assert "0x408000001" in out  # CHAM_Q0


def test_params_generated(capsys):
    assert main(
        ["params", "--n", "256", "--limbs", "2", "--plain-bits", "20"]
    ) == 0
    out = capsys.readouterr().out
    assert "n=256" in out


def test_dse(capsys):
    assert main(["dse", "--rows", "256"]) == 0
    out = capsys.readouterr().out
    assert "frontier" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_compare(capsys):
    assert main(["compare"]) == 0
    out = capsys.readouterr().out
    assert "CHAM" in out and "HEAX" in out and "F1" in out


def test_energy(capsys):
    assert main(["energy", "--rows", "2048", "--cols", "256"]) == 0
    out = capsys.readouterr().out
    assert "CHAM" in out and "J" in out


def test_report_stdout(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "# CHAM reproduction report" in out
    assert "Table II" in out
    assert "195" in out
    assert "HeteroLR end-to-end" in out


def test_report_to_file(tmp_path, capsys):
    target = tmp_path / "report.md"
    assert main(["report", "-o", str(target)]) == 0
    text = target.read_text()
    assert "roofline" in text
    assert "Beaver" in text


def test_metrics(capsys):
    assert main(["metrics", "--rows", "4"]) == 0
    out = capsys.readouterr().out
    assert "metrics registry snapshot" in out
    assert "math.ntt.forward" in out
    assert "he.noise.budget_bits" in out
    assert "hw.runtime.healthy" in out


def test_metrics_json(capsys):
    assert main(["metrics", "--rows", "4", "--json"]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["counters"]["math.ntt.forward"] > 0
    assert snap["gauges"]["he.noise.budget_bits"] > 0


def test_demo_trace_out(tmp_path, capsys):
    target = tmp_path / "demo.json"
    assert main(["demo", "--rows", "4", "--trace-out", str(target)]) == 0
    assert "trace written" in capsys.readouterr().out
    payload = json.loads(target.read_text())
    names = {e["name"] for e in payload["traceEvents"] if e.get("ph") == "X"}
    assert {"NTT", "MULTPOLY", "INTT", "RESCALE+EXTRACT", "PACK"} <= names


def test_trace_trace_out(tmp_path, capsys):
    target = tmp_path / "pipe.json"
    assert main(
        ["trace", "--rows", "8", "--trace-out", str(target)]
    ) == 0
    payload = json.loads(target.read_text())
    names = {e["name"] for e in payload["traceEvents"] if e.get("ph") == "X"}
    assert any(n.startswith("DOTPRODUCT") for n in names)
    assert any(n.startswith("PACKTWOLWES") for n in names)


def test_cluster(capsys):
    assert main(
        ["cluster", "--requests", "2", "--rows", "24", "--cols", "256",
         "--nodes", "3", "--seed", "5"]
    ) == 0
    out = capsys.readouterr().out
    assert "dropped=0" in out
    assert "correct=True" in out
    assert "3 node(s) x2 replication" in out


def test_cluster_json_with_faults(capsys):
    assert main(
        ["cluster", "--requests", "3", "--rows", "24", "--cols", "256",
         "--fault-rate", "0.2", "--seed", "9", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["correct"] is True
    assert payload["dropped"] == 0
    assert payload["shard_executions"] == 3 * payload["shards_per_request"]
    assert payload["counters"]["cluster.requests"] == 3
    # the plan and placement travel with the report for auditability
    assert payload["plan"]["rows"] == 24
    assert payload["placement"]["replication"] == 2


@pytest.mark.parametrize(
    "flags,reason",
    [
        (
            ["--nodes", "2", "--replication", "5"],
            "replication must be in 1..nodes (2), got 5",
        ),
        (
            ["--topology", "ring", "--latency", "-1"],
            "link r0->r1 has latency -1",
        ),
    ],
    ids=["replication-outside-nodes", "negative-link-latency"],
)
def test_cluster_usage_errors(capsys, flags, reason):
    """A setting the cluster cannot honour is a usage error: exit 2
    with the reason on stderr and no report."""
    assert main(["cluster", *flags, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert reason in captured.err
