"""Tests for the design-space exploration (Fig. 2b)."""

import pytest

from repro.hw.dse import enumerate_design_space, pareto_front


@pytest.fixture(scope="module")
def sweep():
    # large enough to saturate every configuration's pipeline
    return enumerate_design_space(bench_rows=2048)


def test_sweep_covers_the_axes(sweep):
    assert len(sweep) == 4 * 3 * 3 * 3  # stages x engines x units x PEs
    stages = {p.stages for p in sweep}
    assert stages == {5, 7, 9, 11}


def test_some_points_do_not_fit(sweep):
    assert any(not p.fits for p in sweep)
    assert any(p.fits for p in sweep)


def test_three_engine_max_configs_blow_the_budget(sweep):
    big = [p for p in sweep if p.engines == 3 and p.n_bfu == 8 and p.ntt_units_per_group == 8]
    assert all(not p.fits for p in big)


def test_frontier_is_nonempty_and_feasible(sweep):
    front = pareto_front(sweep)
    assert front
    assert all(p.fits and not p.deadlocked for p in front)


def test_frontier_is_nondominated(sweep):
    front = pareto_front(sweep)
    for p in front:
        for q in front:
            if p is q:
                continue
            dominates = (
                q.rows_per_sec >= p.rows_per_sec
                and q.max_utilization_pct <= p.max_utilization_pct
                and (
                    q.rows_per_sec > p.rows_per_sec
                    or q.max_utilization_pct < p.max_utilization_pct
                )
            )
            assert not dominates


def test_paper_optima_near_frontier(sweep):
    """The two published optima: (9st, 6ntt, 4PE, 2eng) and
    (9st, 6ntt, 8PE, 1eng).  Both must achieve frontier-level
    performance (within 1%) at their utilization."""
    front = pareto_front(sweep)

    def find(stages, engines, units, n_bfu):
        return next(
            p
            for p in sweep
            if (p.stages, p.engines, p.ntt_units_per_group, p.n_bfu)
            == (stages, engines, units, n_bfu)
        )

    deployed = find(9, 2, 6, 4)
    alt = find(9, 1, 6, 8)
    assert deployed.fits and alt.fits
    # the two optima deliver (nearly) identical performance
    assert deployed.rows_per_sec == pytest.approx(alt.rows_per_sec, rel=0.02)
    best_at_or_below = max(
        (
            p.rows_per_sec
            for p in front
            if p.max_utilization_pct <= deployed.max_utilization_pct + 0.5
        ),
        default=0.0,
    )
    assert deployed.rows_per_sec >= 0.99 * best_at_or_below


def test_labels(sweep):
    p = sweep[0]
    assert f"{p.stages}st" in p.label
    assert f"{p.engines}eng" in p.label


def test_more_engines_scale_performance(sweep):
    one = next(p for p in sweep if (p.stages, p.engines, p.ntt_units_per_group, p.n_bfu) == (9, 1, 6, 4))
    two = next(p for p in sweep if (p.stages, p.engines, p.ntt_units_per_group, p.n_bfu) == (9, 2, 6, 4))
    assert two.rows_per_sec == pytest.approx(2 * one.rows_per_sec, rel=0.01)
    assert two.resources.dsp > one.resources.dsp


def test_fewer_stages_hurt_pack_throughput(sweep):
    nine = next(p for p in sweep if (p.stages, p.engines, p.ntt_units_per_group, p.n_bfu) == (9, 1, 6, 4))
    five = next(p for p in sweep if (p.stages, p.engines, p.ntt_units_per_group, p.n_bfu) == (5, 1, 6, 4))
    assert five.rows_per_sec <= nine.rows_per_sec


def test_timing_closure_model(sweep):
    from repro.hw.dse import achievable_clock_mhz

    deployed = next(
        p
        for p in sweep
        if (p.stages, p.engines, p.ntt_units_per_group, p.n_bfu) == (9, 2, 6, 4)
    )
    clock = achievable_clock_mhz(deployed)
    # the deployed point closes at (about) the paper's 300 MHz
    assert 285 <= clock <= 315
    # lighter configurations close faster, crammed ones slower
    light = next(
        p
        for p in sweep
        if (p.stages, p.engines, p.ntt_units_per_group, p.n_bfu) == (9, 1, 4, 2)
    )
    heavy = max(sweep, key=lambda p: p.max_utilization_pct)
    assert achievable_clock_mhz(light) > clock > achievable_clock_mhz(heavy)
