#!/usr/bin/env python3
"""Tour of the CHAM hardware simulators (Sections III-V).

Walks through: the constant-geometry NTT datapath (Fig. 3/4), the
9-stage macro-pipeline (Fig. 1a), the roofline argument (Fig. 2a), the
design-space exploration (Fig. 2b), the Table II resource model, and the
RAS runtime — printing the key numbers next to the paper's.

Usage: python examples/hardware_walkthrough.py
"""

import numpy as np

from repro.hw.arch import NttUnitConfig, cham_default_config
from repro.hw.dse import enumerate_design_space, pareto_front
from repro.hw.ntt_datapath import NttDatapathSim
from repro.hw.pipeline import MacroPipeline
from repro.hw.resources import total_resources, utilization
from repro.hw.roofline import roofline_points
from repro.hw.runtime import FaultInjector, FpgaRuntime, offload
from repro.math.ntt import NegacyclicNtt
from repro.math.primes import CHAM_Q0


def main() -> None:
    cfg = cham_default_config()
    print("CHAM hardware walkthrough")
    print("=" * 60)

    # 1. constant-geometry NTT datapath
    print("\n[1] constant-geometry NTT unit (Fig. 3/4)")
    unit = NttUnitConfig(n=256, n_bfu=4, ram_banks=8)
    sim = NttDatapathSim(unit, CHAM_Q0)
    a = np.random.default_rng(0).integers(0, CHAM_Q0, 256, dtype=np.uint64)
    out, report = sim.forward(a)
    assert np.array_equal(out, NegacyclicNtt(256, CHAM_Q0).forward(a))
    print(f"  functional match vs gold NTT: yes")
    print(f"  schedule violations: {len(report.log.violations())}, "
          f"routing patterns: {len(report.routing_patterns)} (constant geometry)")
    print(f"  production unit: {NttUnitConfig().cycles} cycles "
          "(Table III: 6144)")

    # 2. macro-pipeline
    print("\n[2] 9-stage macro-pipeline (Section III-A)")
    pipe = MacroPipeline(cfg.engine)
    stats = pipe.simulate_hmvp(4096)
    print(f"  4096-row HMVP: {stats.total_cycles:,} cycles, "
          f"{stats.reductions} reductions (paper: 4095), "
          f"{stats.preemptions} preemptions, buffer peak {stats.reduce_buffer_peak}")
    print(f"  throughput: {stats.throughput_rows_per_sec(cfg.clock_hz):,.0f} "
          f"rows/s/engine; {cfg.engines} engines deployed")

    # 3. roofline
    print("\n[3] roofline on U200 (Fig. 2a)")
    for name, k in roofline_points().items():
        print(f"  {name:9s}: {k.intensity:6.2f} ops/B -> "
              f"{100 * k.peak_fraction:5.1f}% of peak "
              f"({'memory' if k.memory_bound else 'compute'}-bound)")

    # 4. design space
    print("\n[4] design-space exploration (Fig. 2b)")
    points = enumerate_design_space(bench_rows=1024)
    front = pareto_front(points)
    print(f"  {len(points)} points evaluated, {sum(p.fits for p in points)} "
          f"fit at <75% utilization, {len(front)} on the frontier")
    deployed = next(
        p for p in points
        if (p.stages, p.engines, p.ntt_units_per_group, p.n_bfu) == (9, 2, 6, 4)
    )
    print(f"  deployed point {deployed.label}: "
          f"{deployed.rows_per_sec:,.0f} rows/s at "
          f"{deployed.max_utilization_pct:.1f}% max utilization")

    # 5. resources
    print("\n[5] resource model (Table II)")
    util = utilization(total_resources(cfg))
    paper = {"LUT": 63.68, "FF": 20.41, "BRAM": 72.13, "URAM": 61.98, "DSP": 29.04}
    for key in ("LUT", "FF", "BRAM", "URAM", "DSP"):
        print(f"  {key:4s}: model {util[key]:6.2f}%   paper {paper[key]:6.2f}%")

    # 6. RAS runtime
    print("\n[6] RAS runtime (Section III-C)")
    rt = FpgaRuntime(faults=FaultInjector(hang_prob=0.4, seed=5))
    rt.load_register_checked(0x0, 0xC0FFEE)
    outcomes = [
        offload([(rt, 0)], rows=512, cols=4096, ring_n=4096, tag=job,
                max_retries=10, deadline_ms=60_000.0, clock_hz=cfg.clock_hz)
        for job in range(4)
    ]
    h = rt.health()
    served = sum(not o.degraded for o in outcomes)
    print(f"  {served}/4 jobs served on the device after "
          f"{h.hangs_detected} injected hangs and {h.resets} watchdog "
          f"resets; temp={h.temperature_c:.1f}C")
    print("\nOK")


if __name__ == "__main__":
    main()
