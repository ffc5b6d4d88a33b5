"""Tests for the cycle-level constant-geometry NTT datapath (Fig. 3/4)."""

import numpy as np
import pytest

from repro.hw.arch import NttUnitConfig
from repro.hw.ntt_datapath import BankAccessLog, NttDatapathSim
from repro.math.ntt import NegacyclicNtt
from repro.math.primes import CHAM_P, CHAM_Q0


@pytest.fixture(scope="module")
def sim64():
    return NttDatapathSim(NttUnitConfig(n=64, n_bfu=4, ram_banks=8), CHAM_Q0)


def test_datapath_is_arithmetically_exact(sim64, rng):
    a = rng.integers(0, CHAM_Q0, 64, dtype=np.uint64)
    out, _report = sim64.forward(a)
    assert np.array_equal(out, NegacyclicNtt(64, CHAM_Q0).forward(a))


def test_inverse_roundtrip(sim64, rng):
    a = rng.integers(0, CHAM_Q0, 64, dtype=np.uint64)
    out, _ = sim64.forward(a)
    assert np.array_equal(sim64.inverse(out), a)


def test_schedule_is_legal(sim64, rng):
    """1R1W bank ports and ping-pong discipline are never violated."""
    a = rng.integers(0, CHAM_Q0, 64, dtype=np.uint64)
    _, report = sim64.forward(a)
    assert report.log.violations() == []


def test_constant_geometry_single_routing_pattern(sim64, rng):
    """The bank->BFU routing never changes: the paper's argument against
    HEAX's stage-variant LUT multiplexers (Section IV-A1)."""
    a = rng.integers(0, CHAM_Q0, 64, dtype=np.uint64)
    _, report = sim64.forward(a)
    assert len(report.routing_patterns) == 1


def test_steady_cycles_match_formula(sim64, rng):
    a = rng.integers(0, CHAM_Q0, 64, dtype=np.uint64)
    _, report = sim64.forward(a)
    assert report.steady_cycles == (32 * 6) // 4
    # total includes only the small per-stage drain on top
    assert report.steady_cycles <= report.cycles <= report.steady_cycles + 2 * 6


def test_production_point_is_6144():
    unit = NttUnitConfig(n=4096, n_bfu=4, ram_banks=8)
    sim = NttDatapathSim(unit, CHAM_P)
    rng = np.random.default_rng(0)
    a = rng.integers(0, CHAM_P, 4096, dtype=np.uint64)
    out, report = sim.forward(a)
    assert report.steady_cycles == 6144  # Table III
    assert np.array_equal(out, NegacyclicNtt(4096, CHAM_P).forward(a))
    assert report.log.violations() == []


def test_bank_log_detects_conflicts():
    log = BankAccessLog()
    log.reads.append((0, 0, 3, 1))
    log.reads.append((0, 0, 3, 2))  # same cycle, same bank: conflict
    assert any("read port" in v for v in log.violations())
    log2 = BankAccessLog()
    log2.reads.append((5, 0, 1, 0))
    log2.writes.append((5, 0, 2, 0))  # same cycle, same RAM set: ping-pong
    assert any("ping-pong" in v for v in log2.violations())


def test_write_conflicts_detected():
    log = BankAccessLog()
    log.writes.append((1, 1, 0, 0))
    log.writes.append((1, 1, 0, 4))
    assert any("write port" in v for v in log.violations())


def test_rejects_incompatible_geometry():
    with pytest.raises(ValueError):
        NttDatapathSim(NttUnitConfig(n=64, n_bfu=4, ram_banks=6), CHAM_Q0)


def test_rejects_bad_input_shape(sim64):
    with pytest.raises(ValueError):
        sim64.forward(np.zeros(32, dtype=np.uint64))


def test_reads_alternate_up_and_down(sim64, rng):
    """First cycle reads the low half row, second the high half row."""
    a = rng.integers(0, CHAM_Q0, 64, dtype=np.uint64)
    _, report = sim64.forward(a)
    first_cycle_addrs = sorted(
        addr for cyc, _s, _b, addr in report.log.reads if cyc == 0
    )
    second_cycle_addrs = sorted(
        addr for cyc, _s, _b, addr in report.log.reads if cyc == 1
    )
    assert first_cycle_addrs == [0] * 8  # coefficients 0..7 live at addr 0
    assert second_cycle_addrs == [4] * 8  # coefficients 32..39 at addr 4


def test_inverse_rejects_bad_shape(sim64):
    with pytest.raises(ValueError):
        sim64.inverse(np.zeros(32, dtype=np.uint64))
