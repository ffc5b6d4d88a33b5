"""Tests for the kernel profiler and sim-gap ledger (repro.obs.profile)."""

import json

import pytest

from repro.obs.profile import (
    KERNEL_OF_SPAN,
    STAGE_OF_KERNEL,
    build_ledger,
    collapsed_stacks,
    openmetrics_text,
    profile_batched_hmvp,
    span_self_times,
)
from repro.obs.tracing import Tracer


# -- self-time tree -----------------------------------------------------------


def _synthetic_tracer():
    """A hand-built two-level tree on one track:

    batch.batch [0, 100)
      NTT          [0, 20)
      batch.dot    [20, 80)
        MULTPOLY   [20, 30)
        INTT       [30, 70)
      KEYSWITCH    [80, 95)
    """
    tr = Tracer(enabled=True)
    tr.add_span("batch.batch", ts_us=0.0, dur_us=100.0, depth=0)
    tr.add_span("NTT", ts_us=0.0, dur_us=20.0, depth=1)
    tr.add_span("batch.dot", ts_us=20.0, dur_us=60.0, depth=1)
    tr.add_span("MULTPOLY", ts_us=20.0, dur_us=10.0, depth=2)
    tr.add_span("INTT", ts_us=30.0, dur_us=40.0, depth=2, limbs=3)
    tr.add_span("KEYSWITCH", ts_us=80.0, dur_us=15.0, depth=1, limbs=2)
    return tr


def test_self_time_subtracts_children_once():
    spans = _synthetic_tracer().spans
    self_us = span_self_times(spans)
    by_name = {s.name: self_us[id(s)] for s in spans}
    # root: 100 - (20 + 60 + 15) = 5; dot: 60 - (10 + 40) = 10
    assert by_name["batch.batch"] == pytest.approx(5.0)
    assert by_name["batch.dot"] == pytest.approx(10.0)
    # leaves keep their full duration
    assert by_name["NTT"] == pytest.approx(20.0)
    assert by_name["MULTPOLY"] == pytest.approx(10.0)
    assert by_name["INTT"] == pytest.approx(40.0)
    assert by_name["KEYSWITCH"] == pytest.approx(15.0)


def test_self_time_separates_tracks():
    """Identical intervals on different tracks never parent each other."""
    tr = Tracer(enabled=True)
    tr.add_span("batch.batch", ts_us=0.0, dur_us=50.0, track=1, depth=0)
    tr.add_span("INTT", ts_us=0.0, dur_us=50.0, track=2, depth=1)
    self_us = span_self_times(tr.spans)
    assert all(v == pytest.approx(50.0) for v in self_us.values())


# -- ledger -------------------------------------------------------------------


def test_build_ledger_synthetic_tree():
    ledger = build_ledger(_synthetic_tracer().spans, rows=8, requests=1)
    by_kernel = {r.kernel: r for r in ledger.rows}
    # all four instrumented kernels present, ranked by wall time
    assert set(by_kernel) == {"ntt_hoist", "modmul", "intt", "keyswitch"}
    walls = [r.wall_us for r in ledger.rows]
    assert walls == sorted(walls, reverse=True)
    assert by_kernel["intt"].wall_us == pytest.approx(40.0)
    assert by_kernel["intt"].by_level == {3: pytest.approx(40.0)}
    assert by_kernel["keyswitch"].by_level == {2: pytest.approx(15.0)}
    # structural spans (batch.batch/batch.dot) are not kernel rows, but
    # the root's duration is the coverage denominator
    assert ledger.total_wall_us == pytest.approx(100.0)
    assert ledger.attributed_wall_us == pytest.approx(85.0)
    assert ledger.coverage == pytest.approx(0.85)
    # every kernel got a positive sim price and therefore a gap
    for row in ledger.rows:
        assert row.sim_cycles > 0
        assert row.sim_us > 0
        assert row.gap > 0
    assert ledger.sim_total_cycles > 0
    assert ledger.overall_gap > 0


def test_ledger_sim_cycles_sum_to_stage_totals():
    """Apportioning by wall share conserves each stage's cycle budget."""
    ledger = build_ledger(_synthetic_tracer().spans, rows=8, requests=1)
    stage_sim = {}
    for row in ledger.rows:
        stage_sim[row.stage] = stage_sim.get(row.stage, 0.0) + row.sim_cycles
    from repro.hw.arch import cham_default_config
    from repro.hw.pipeline import MacroPipeline

    pipe = MacroPipeline(cham_default_config().engine)
    stats = pipe.simulate_hmvp(8, 1)
    assert stage_sim["fill"] == pytest.approx(float(pipe.fill_cycles))
    assert stage_sim["dot"] == pytest.approx(float(stats.dot_busy_cycles))
    assert stage_sim["pack"] == pytest.approx(float(stats.pack_busy_cycles))


def test_kernel_and_stage_maps_agree():
    assert set(KERNEL_OF_SPAN.values()) <= set(STAGE_OF_KERNEL)


def test_ledger_serializes_and_renders():
    ledger = build_ledger(_synthetic_tracer().spans, rows=8, requests=1)
    payload = json.loads(json.dumps(ledger.to_dict()))
    assert payload["coverage"] == pytest.approx(0.85)
    assert {r["kernel"] for r in payload["rows"]} == {
        "ntt_hoist", "modmul", "intt", "keyswitch"
    }
    text = ledger.render_text()
    assert "keyswitch" in text and "gap" in text


# -- the turnkey driver (acceptance) ------------------------------------------


def test_profile_batched_hmvp_attributes_wall_time():
    """Acceptance: the ledger attributes >= 95% of a warm batched run's
    wall time to named kernels, joined against the sim cost model.

    One run of this shape lasts ~3 ms, where a 0.15 ms host stall
    outside a kernel span costs five points, so the gate reads the run
    with the median coverage of five."""
    runs = sorted(
        (
            profile_batched_hmvp(rows=4, n=64, batch=4, plain_bits=30)
            for _ in range(5)
        ),
        key=lambda run: run.ledger.coverage,
    )
    run = runs[2]
    ledger = run.ledger
    assert ledger.coverage >= 0.95, ledger.render_text()
    kernels = {r.kernel for r in ledger.rows}
    assert {"ntt_hoist", "modmul", "intt", "keyswitch", "pack"} <= kernels
    # NumPy-on-host must be slower than the modeled accelerator
    assert ledger.overall_gap > 1.0
    assert ledger.sim_total_cycles > 0
    assert run.wall_s > 0
    # shares are fractions of total wall and cannot exceed 1 in sum
    assert sum(r.wall_share for r in ledger.rows) <= 1.0 + 1e-9


def test_keyswitch_wall_share_stays_bounded():
    """Acceptance for the fused-limb rewrite: key-switching no longer
    dominates the warm batched run.

    The per-digit double loop put keyswitch at ~68-70% of wall; the
    fused path measures ~45-55% on the reference runner.  The sim cost
    model prices keyswitch at ~43% of the modeled work for this shape,
    so that is the physical floor for a uniformly-efficient
    implementation — the gate enforces < 65% (comfortably under the old
    kernels) rather than the aspirational 40%, which would require
    keyswitch to out-optimize every other kernel.

    One profiled run on a loaded 2-core host swings by several points,
    so the gate reads the run with the median share of five."""

    def keyswitch(run):
        by_kernel = {r.kernel: r for r in run.ledger.rows}
        assert "keyswitch" in by_kernel, run.ledger.render_text()
        return by_kernel["keyswitch"]

    runs = sorted(
        (
            profile_batched_hmvp(rows=8, n=128, batch=8, plain_bits=40)
            for _ in range(5)
        ),
        key=lambda run: keyswitch(run).wall_share,
    )
    run = runs[2]
    share = keyswitch(run).wall_share
    assert share < 0.65, run.ledger.render_text()
    # and it must no longer be more than ~3x its sim-priced share
    sim_share = keyswitch(run).sim_cycles / run.ledger.sim_total_cycles
    assert share < 3 * sim_share, run.ledger.render_text()


def test_profile_restores_tracer_state():
    """The driver flips the process-wide tracer on for the measured run
    and restores the prior enabled-state, keeping the spans for export."""
    from repro import obs

    assert obs.TRACER.enabled is False  # the suite's default
    run = profile_batched_hmvp(rows=4, n=64, batch=2, plain_bits=30)
    assert obs.TRACER.enabled is False
    assert len(run.spans) > 0
    assert len(obs.TRACER) == len(run.spans)  # retained for --trace-out


# -- exporters ----------------------------------------------------------------


def test_collapsed_stacks_paths_and_totals():
    text = collapsed_stacks(_synthetic_tracer().spans)
    lines = dict(
        (line.rsplit(" ", 1)[0], int(line.rsplit(" ", 1)[1]))
        for line in text.strip().splitlines()
    )
    assert lines["batch.batch"] == 5
    assert lines["batch.batch;batch.dot"] == 10
    assert lines["batch.batch;batch.dot;INTT"] == 40
    assert lines["batch.batch;KEYSWITCH"] == 15
    # totals reconstruct the root duration exactly
    assert sum(lines.values()) == 100


def test_openmetrics_text_format():
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    reg.inc("batch.requests", 3)
    reg.set_gauge("he.noise.budget_bits", 17.5)
    for v in (1.0, 2.0, 3.0):
        reg.observe("serve.latency_ms", v)
    text = openmetrics_text(reg)
    assert "# TYPE repro_batch_requests counter" in text
    assert "repro_batch_requests_total 3" in text
    assert "repro_he_noise_budget_bits 17.5" in text
    assert "# TYPE repro_serve_latency_ms summary" in text
    assert "repro_serve_latency_ms_count 3" in text
    assert 'repro_serve_latency_ms{quantile="0.5"} 2.0' in text
    assert text.endswith("# EOF\n")
