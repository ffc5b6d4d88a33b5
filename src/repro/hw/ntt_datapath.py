"""Cycle-level model of the constant-geometry NTT datapath (Fig. 3/4).

The unit owns two sets of ``ram_banks`` single-read single-write RAM
banks operated in ping-pong: stage ``2r`` reads set 0 and writes set 1,
stage ``2r+1`` the reverse (Section IV-A1).  Consecutive coefficients are
striped round-robin across banks (coefficient ``k`` lives in bank
``k mod B`` at address ``k // B``), so a full bank row — ``B``
coefficients — is read or written per cycle.

Per stage, the read sequence alternates *up-and-down* between the low
half and the high half (``[0..B-1], [N/2..N/2+B-1], [B..2B-1], ...``)
while writes are ascending; SWAP units reorder each read pair-row into
the ``n_bfu`` butterfly operand pairs.  The simulation executes the real
arithmetic (it *is* a correct NTT, checked against the gold model), while
recording per-cycle bank access events so the tests can assert:

* at most one read and one write per bank per cycle (1R1W),
* reads and writes never touch the same RAM set in a cycle (ping-pong),
* the routing pattern between banks and BFUs is cycle-invariant
  (*constant geometry* — the paper's argument against HEAX's LUT muxes),
* the steady-state cycle count is ``(N/2 · log2 N) / n_bfu`` — 6144 for
  the production unit, matching Table III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

import numpy as np

from ..math.cg_ntt import CgSchedule, constant_geometry_schedule
from ..math.modular import modadd_vec, modmul_vec, modsub_vec
from ..math.ntt import NegacyclicNtt
from .arch import NttUnitConfig

__all__ = ["BankAccessLog", "NttDatapathSim", "DatapathReport"]


@dataclass
class BankAccessLog:
    """Per-cycle RAM bank events for one transform."""

    #: (cycle, ram_set, bank, address) for every read
    reads: List[Tuple[int, int, int, int]] = field(default_factory=list)
    #: (cycle, ram_set, bank, address) for every write
    writes: List[Tuple[int, int, int, int]] = field(default_factory=list)

    def violations(self) -> List[str]:
        """1R1W and ping-pong violations (empty list = legal schedule)."""
        problems = []
        by_cycle_reads = {}
        by_cycle_writes = {}
        for cyc, ram_set, bank, _addr in self.reads:
            key = (cyc, ram_set, bank)
            by_cycle_reads[key] = by_cycle_reads.get(key, 0) + 1
        for cyc, ram_set, bank, _addr in self.writes:
            key = (cyc, ram_set, bank)
            by_cycle_writes[key] = by_cycle_writes.get(key, 0) + 1
        for key, count in by_cycle_reads.items():
            if count > 1:
                problems.append(f"bank read port conflict at {key}: {count} reads")
        for key, count in by_cycle_writes.items():
            if count > 1:
                problems.append(f"bank write port conflict at {key}: {count} writes")
        # ping-pong: within one cycle the read set and write set must differ
        read_sets = {}
        for cyc, ram_set, _bank, _addr in self.reads:
            read_sets.setdefault(cyc, set()).add(ram_set)
        for cyc, ram_set, _bank, _addr in self.writes:
            if ram_set in read_sets.get(cyc, set()):
                problems.append(f"ping-pong violation at cycle {cyc}")
        return problems


@dataclass
class DatapathReport:
    """Outcome of one simulated transform."""

    cycles: int
    steady_cycles: int
    log: BankAccessLog
    #: distinct (bank -> BFU operand) routing patterns observed; constant
    #: geometry means this stays tiny and stage-independent
    routing_patterns: Set[Tuple[int, ...]] = field(default_factory=set)


class NttDatapathSim:
    """Executable model of one CHAM NTT unit.

    Parameters
    ----------
    unit:
        Structural configuration (ring size, BFU count, bank count).
    q:
        The modulus this instance is wired for.
    """

    def __init__(self, unit: NttUnitConfig, q: int) -> None:
        if unit.n % (2 * unit.ram_banks):
            raise ValueError("ring size must be a multiple of 2*banks")
        if unit.ram_banks % (2 * unit.n_bfu) not in (0,) and (
            2 * unit.n_bfu
        ) % unit.ram_banks:
            # one bank row must hold an integer number of operand pairs
            raise ValueError(
                f"bank row of {unit.ram_banks} coefficients incompatible "
                f"with {unit.n_bfu} BFUs"
            )
        self.unit = unit
        self.q = q
        self.schedule: CgSchedule = constant_geometry_schedule(unit.n, q)

    # -- storage helpers ---------------------------------------------------------

    def _bank_of(self, coeff_index: int) -> Tuple[int, int]:
        b = self.unit.ram_banks
        return coeff_index % b, coeff_index // b

    # -- the transform -------------------------------------------------------------

    def forward(self, a: np.ndarray) -> Tuple[np.ndarray, DatapathReport]:
        """Run the forward CG NTT, returning the result and the report.

        The arithmetic follows Algorithm 4 stage by stage; bank events are
        emitted per cycle exactly as the Fig. 3 datapath would issue them.
        """
        unit = self.unit
        n, q = unit.n, self.q
        half = n // 2
        banks = unit.ram_banks

        a = np.asarray(a, dtype=np.uint64)
        if a.shape != (n,):
            raise ValueError(f"expected shape ({n},)")
        state = a.copy()
        log = BankAccessLog()
        routing: Set[Tuple[int, ...]] = set()
        cycle = 0

        for stage in range(self.schedule.stages):
            src_set = stage % 2
            dst_set = 1 - src_set
            w = self.schedule.twiddles[stage]
            out = np.empty(n, dtype=np.uint64)
            # one group per up-and-down row pair: `banks` butterflies,
            # issued over 2 cycles on `n_bfu` BFUs (banks = 2*n_bfu)
            for g in range(n // (2 * banks)):
                lo = np.arange(g * banks, (g + 1) * banks)
                hi = lo + half
                for k in lo:
                    bank, addr = self._bank_of(int(k))
                    log.reads.append((cycle, src_set, bank, addr))
                for k in hi:
                    bank, addr = self._bank_of(int(k))
                    log.reads.append((cycle + 1, src_set, bank, addr))

                u = state[lo]
                v = modmul_vec(state[hi], w[lo], q)
                out[2 * lo] = modadd_vec(u, v, q)
                out[2 * lo + 1] = modsub_vec(u, v, q)

                # outputs land as two ascending bank rows, one per cycle
                out_base = 2 * g * banks
                for row in range(2):
                    for k in range(out_base + row * banks, out_base + (row + 1) * banks):
                        bank, addr = self._bank_of(k)
                        log.writes.append((cycle + 2 + row, dst_set, bank, addr))

                # routing pattern: source bank of each BFU operand port,
                # identical for every group/stage under constant geometry
                pattern = tuple(int(k % banks) for k in lo) + tuple(
                    int(k % banks) for k in hi
                )
                routing.add(pattern)
                cycle += 2
            # stage drain: the final write pair must retire before the next
            # stage reads the ping-pong partner set
            cycle += 2
            state = out

        steady = (half * self.schedule.stages) // unit.n_bfu
        report = DatapathReport(
            cycles=cycle,
            steady_cycles=steady,
            log=log,
            routing_patterns=routing,
        )
        return state, report

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Functional inverse (mirrored network), without event logging."""
        return NegacyclicNtt(self.unit.n, self.q).inverse(a)
