"""Tests for the RAS runtime simulation (Section III-C)."""

import pytest

from repro.hw.perf import CpuCostModel
from repro.hw.runtime import (
    DeviceHangError,
    FaultInjector,
    FpgaRuntime,
    JobState,
    RegisterLoadError,
    VirtualFpga,
    offload,
)
from repro.hw.arch import cham_default_config


def _offload(runtimes, max_retries, rows=16, tag=0, deadline_ms=60_000.0):
    """One job of ``rows`` x ring-degree columns through the policy."""
    return offload(
        [(rt, 0) for rt in runtimes],
        rows=rows,
        cols=4096,
        ring_n=4096,
        tag=tag,
        max_retries=max_retries,
        deadline_ms=deadline_ms,
        clock_hz=runtimes[0].cfg.clock_hz,
    )


def test_clean_job_lifecycle():
    rt = FpgaRuntime()
    jid = rt.submit(rows=64)
    assert rt.poll_once(jid) == JobState.DONE
    assert rt.jobs[jid].cycles > 0
    report = rt.health()
    assert report.jobs_completed == 1
    assert report.healthy


def test_poll_is_idempotent():
    rt = FpgaRuntime()
    jid = rt.submit(rows=16)
    assert rt.poll_once(jid) == JobState.DONE
    assert rt.poll_once(jid) == JobState.DONE
    assert rt.health().jobs_completed == 1


def test_register_load_clean():
    rt = FpgaRuntime()
    rt.load_register_checked(0x100, 0xDEADBEEF)
    assert rt.device.registers[0x100] == 0xDEADBEEF
    assert rt.register_retries == 0


def test_register_load_retries_on_corruption():
    faults = FaultInjector(register_flip_prob=0.6, seed=3)
    rt = FpgaRuntime(faults=faults, max_register_retries=10)
    rt.load_register_checked(0x10, 1234)
    assert rt.device.registers[0x10] == 1234
    assert rt.register_retries > 0


def test_register_load_gives_up():
    faults = FaultInjector(register_flip_prob=1.0, seed=1)
    rt = FpgaRuntime(faults=faults, max_register_retries=2)
    with pytest.raises(RegisterLoadError):
        rt.load_register_checked(0x10, 55)
    assert rt.register_retries == 3


def test_hang_is_recovered_by_watchdog():
    faults = FaultInjector(hang_prob=0.5, resets_to_recover=1, seed=2)
    rt = FpgaRuntime(faults=faults)
    outcomes = [_offload([rt], 12, rows=32, tag=i) for i in range(8)]
    assert all(o.served_by == 0 for o in outcomes)
    assert rt.health().jobs_completed == 8
    assert rt.hangs_detected > 0
    assert rt.resets >= rt.hangs_detected


def test_permanent_hang_fails_job():
    faults = FaultInjector(hang_prob=1.0, resets_to_recover=10**9, seed=4)
    rt = FpgaRuntime(faults=faults)
    jid = rt.submit(rows=8)
    assert rt.poll_once(jid) == JobState.FAILED
    report = rt.health()
    assert report.jobs_failed == 1
    assert not report.healthy


def test_virtual_fpga_reset_semantics():
    faults = FaultInjector(hang_prob=1.0, resets_to_recover=2, seed=0)
    dev = VirtualFpga(cham_default_config(), faults)
    from repro.hw.runtime import Job

    with pytest.raises(DeviceHangError):
        dev.run_job(Job(job_id=0, rows=4))
    assert dev.hung
    assert not dev.reset()  # first reset not enough
    assert dev.reset()  # second recovers
    assert not dev.hung


def test_health_temperature_tracks_load():
    rt = FpgaRuntime()
    t0 = rt.health().temperature_c
    for _ in range(3):
        rt.poll_once(rt.submit(rows=2048))
    t1 = rt.health().temperature_c
    assert t1 > t0


def test_job_cycles_match_pipeline():
    from repro.hw.pipeline import MacroPipeline

    rt = FpgaRuntime()
    jid = rt.submit(rows=128, col_tiles=2)
    rt.poll_once(jid)
    expect = MacroPipeline(rt.cfg.engine).simulate_hmvp(128, 2).total_cycles
    assert rt.jobs[jid].cycles == expect


# -- the offload policy: retry budget, watchdog episodes, degrade ------------


def test_hang_twice_with_watchdog_still_terminates():
    """A job hitting the hang fault twice in a row, with the watchdog
    resetting in between, must still reach a terminal outcome — served
    here, since the retry budget covers both hangs."""
    faults = FaultInjector(hang_script=[True, True, False])
    rt = FpgaRuntime(faults=faults)
    outcome = _offload([rt], max_retries=2)
    assert outcome.served_by == 0 and not outcome.degraded
    assert outcome.attempts == 3 and outcome.failed_attempts == 2
    assert outcome.cycles == rt.estimate_cycles(16)
    assert rt.hangs_detected == 2
    report = rt.health()
    assert report.jobs_completed == 1
    assert report.jobs_failed == 2  # one failed job per hung attempt


def test_hang_twice_budget_one_reports_failed_not_running():
    """With budget for only one retry, the second hang degrades the job
    to the CPU path — it never stays pending."""
    faults = FaultInjector(hang_script=[True, True])
    rt = FpgaRuntime(faults=faults)
    outcome = _offload([rt], max_retries=1)
    assert outcome.degraded and outcome.served_by is None
    assert outcome.attempts == outcome.failed_attempts == 2
    cpu_s = CpuCostModel().hmvp_s(16, 4096, ring_n=4096)
    assert outcome.cycles == int(cpu_s * rt.cfg.clock_hz)
    assert all(j.state is JobState.FAILED for j in rt.jobs.values())
    assert rt.health().jobs_failed == 2


def test_slow_recovery_survives_across_watchdog_episodes():
    """One watchdog episode performs 3 resets; a device needing 4 must
    NOT fail a job that still has retry budget — the next attempt finds
    the device hung, runs a fresh episode and recovers it."""
    faults = FaultInjector(
        hang_script=[True], resets_to_recover=4
    )
    rt = FpgaRuntime(faults=faults)
    outcome = _offload([rt], max_retries=2)
    assert outcome.served_by == 0
    assert not rt.device.hung
    # episode 1: 3 resets (insufficient); episode 2 on hung-device
    # re-entry: 1 more reset recovers
    assert rt.resets >= 4
    assert outcome.attempts == 3


def test_poll_once_single_step_semantics():
    """poll_once makes exactly one attempt: a hang fails the job after
    one watchdog episode, and terminal states are sticky."""
    faults = FaultInjector(hang_script=[True, False])
    rt = FpgaRuntime(faults=faults)
    jid = rt.submit(rows=16)
    assert rt.poll_once(jid) == JobState.FAILED
    assert rt.resets == 1
    assert rt.poll_once(jid) == JobState.FAILED  # no second attempt
    assert rt.hangs_detected == 1
    second = rt.submit(rows=16)
    assert rt.poll_once(second) == JobState.DONE
    assert rt.poll_once(second) == JobState.DONE
    assert rt.health().jobs_completed == 1


def test_hung_device_does_not_poison_next_job():
    """After a job exhausts its budget, the failed-job path must leave
    the device recoverable: the next job gets its own watchdog episodes
    and completes."""
    faults = FaultInjector(hang_script=[True, True, False])
    rt = FpgaRuntime(faults=faults)
    first = _offload([rt], max_retries=0, tag=0)
    assert first.degraded
    second = _offload([rt], max_retries=0, tag=1)
    assert second.degraded  # second scripted hang
    third = _offload([rt], max_retries=0, tag=2)
    assert third.served_by == 0  # script exhausted: runs clean
    assert rt.health().jobs_failed == 2


def test_offload_fails_over_in_candidate_order():
    """A failed attempt moves to the next candidate; passes repeat the
    list in the same order, so a shard's primary is always tried first."""
    hung = FpgaRuntime(faults=FaultInjector(hang_script=[True, True]))
    spare = FpgaRuntime(faults=FaultInjector(hang_script=[True]))
    outcome = _offload([hung, spare], max_retries=1)
    # hung, spare, hung again, then the spare (script now empty)
    assert outcome.served_by == 1 and outcome.attempts == 4
    assert hung.hangs_detected == 2 and spare.hangs_detected == 1


def test_offload_stops_at_the_simulated_deadline():
    """The walk stops once the failed attempts plus the next estimate
    pass the deadline, so a tight deadline degrades without trying."""
    rt = FpgaRuntime(faults=FaultInjector(hang_script=[True, True, True]))
    est_ms = 1e3 * rt.estimate_cycles(16) / rt.cfg.clock_hz
    outcome = _offload([rt], max_retries=5, deadline_ms=2.5 * est_ms)
    assert outcome.degraded and outcome.attempts == 2
    untouched = FpgaRuntime()
    assert _offload([untouched], max_retries=5, deadline_ms=0.5 * est_ms).attempts == 0
    assert untouched.jobs == {}


def test_register_load_failure_is_a_failed_attempt():
    """A descriptor that never loads cleanly fails the attempt before
    any job is submitted; the policy moves on like after a hang."""
    flaky = FpgaRuntime(
        faults=FaultInjector(register_flip_prob=1.0, seed=1),
        max_register_retries=1,
    )
    clean = FpgaRuntime()
    outcome = _offload([flaky, clean], max_retries=0, tag=7)
    assert outcome.served_by == 1 and outcome.attempts == 2
    assert flaky.jobs == {} and flaky.register_retries == 2
    assert clean.device.registers[0x1007] == (16 << 16) | 7


def test_offloads_of_one_shape_simulate_the_pipeline_once(monkeypatch):
    """Pricing an attempt and running it read one per-shape memo, so ten
    offloads of one shape simulate the macro-pipeline once."""
    from repro.hw.pipeline import MacroPipeline

    calls = []
    simulate = MacroPipeline.simulate_hmvp

    def counting(self, *args, **kwargs):
        calls.append(args)
        return simulate(self, *args, **kwargs)

    monkeypatch.setattr(MacroPipeline, "simulate_hmvp", counting)
    rt = FpgaRuntime()
    for tag in range(10):
        assert _offload([rt], max_retries=0, rows=24, tag=tag).served_by == 0
    assert len(calls) == 1


def test_offload_leaves_no_job_behind():
    """A runtime keeps no per-attempt history: offload drops every job
    it submitted, served or hung, and the health counters still add up."""
    rt = FpgaRuntime(faults=FaultInjector(hang_prob=0.2, seed=5))
    outcomes = [
        _offload([rt], max_retries=3, rows=8, tag=i) for i in range(50)
    ]
    assert len(rt.jobs) == 0
    report = rt.health()
    assert report.jobs_completed == sum(o.served_by == 0 for o in outcomes)
    assert report.jobs_failed == sum(o.failed_attempts for o in outcomes) > 0
