"""E2/E3 — Table III (single NTT module) and the NTT throughput text.

Reproduces:

* Table III rows: latency cycles, parallelism, normalized ATP, LUT/BRAM
  for CHAM's three memory variants vs HEAX and F1;
* the "60 NTT units / 195 k ops/s vs HEAX 117 k vs GPU 45 k" discussion;
* the constant-geometry vs stage-variant-mux ablation (DESIGN.md §5).
"""

import time

import numpy as np
import pytest
from conftest import print_table, record_result

from repro.hw.arch import NttUnitConfig, cham_default_config
from repro.hw.ntt_datapath import NttDatapathSim
from repro.hw.perf import ChamPerfModel, CpuCostModel, GpuCostModel
from repro.hw.resources import ntt_unit_resources
from repro.math.cg_ntt import cg_ntt_cycles
from repro.math.ntt import NegacyclicNtt, fused_limb_ntt
from repro.math.primes import CHAM_P, CHAM_Q0, CHAM_Q1

#: Table III reference rows: (latency, parallelism, ATP, LUT, BRAM, LBP)
TABLE3_PAPER = {
    "CHAM (BRAM only)": (6144, 4, 1.0, 3324, 14, 1.0),
    "CHAM (BRAM+dRAM)": (6144, 4, 1.0, 6508, 6, 1.96),
    "CHAM (dRAM only)": (6144, 4, 1.0, 9248, 0, 2.78),
    "HEAX [31]": (6144, 4, 1.0, 22316, 11, 6.71),
    "F1 [13]": (202, 896, 7.36, None, None, None),
}


def test_table3_cham_rows():
    """Our model reproduces the three CHAM rows of Table III exactly."""
    rows = []
    base_lut = None
    for label, memory in [
        ("CHAM (BRAM only)", "bram"),
        ("CHAM (BRAM+dRAM)", "bram+dram"),
        ("CHAM (dRAM only)", "dram"),
    ]:
        unit = NttUnitConfig(memory=memory)
        res = ntt_unit_resources(unit)
        if base_lut is None:
            base_lut = res.lut
        lbp = res.lut / base_lut
        paper = TABLE3_PAPER[label]
        rows.append(
            (label, unit.cycles, unit.n_bfu, res.lut, res.bram, f"{lbp:.2f}x")
        )
        assert unit.cycles == paper[0]
        assert res.lut == paper[3]
        assert res.bram == paper[4]
        assert lbp == pytest.approx(paper[5], abs=0.05)
    rows.append(("HEAX [31] (paper)", 6144, 4, 22316, 11, "6.71x"))
    rows.append(("F1 [13] (paper)", 202, 896, "-", "-", "-"))
    print_table(
        "Table III: single NTT module",
        ["design", "latency", "parallel", "LUT", "BRAM", "LUT ratio"],
        rows,
    )


def test_table3_heax_comparison():
    """CHAM's BRAM-only variant is ~6.7x more LUT-compact than HEAX at
    the same latency (hardware-friendly moduli + constant geometry)."""
    cham = ntt_unit_resources(NttUnitConfig())
    heax_lut = TABLE3_PAPER["HEAX [31]"][3]
    assert heax_lut / cham.lut == pytest.approx(6.71, abs=0.1)


def test_table3_f1_atp():
    """F1's ASIC point: 202 cycles at 896 butterflies, ATP 7.36x worse."""
    f1_latency, f1_parallel, f1_atp = TABLE3_PAPER["F1 [13]"][:3]
    cham_atp = 6144 * 4
    assert (f1_latency * f1_parallel) / cham_atp == pytest.approx(
        f1_atp, abs=0.05
    )


def test_ntt_throughput_anchors():
    """'60 NTT units which can perform 195 k ops/sec' vs HEAX 117 k and
    the GPU's 45 k single-kernel rate."""
    cham = ChamPerfModel()
    gpu = GpuCostModel()
    thr = cham.ntt_offload_throughput()
    rows = [
        ("CHAM (60 units, PCIe-bound)", f"{thr:,.0f}"),
        ("HEAX [31] (paper)", "117,000"),
        ("GPU V100 (paper)", f"{gpu.ntt_throughput:,.0f}"),
        ("CPU Xeon (model)", f"{CpuCostModel().ntt_throughput():,.0f}"),
    ]
    print_table("NTT throughput (ops/s, N=4096)", ["platform", "ops/s"], rows)
    record_result(
        "ntt",
        {
            "cham_ops_per_s": thr,
            "heax_ops_per_s": 117_000,
            "gpu_ops_per_s": gpu.ntt_throughput,
        },
        params={"n": 4096, "ntt_units": cham_default_config().total_ntt_units},
    )
    assert thr == pytest.approx(195_000, rel=0.02)
    assert thr > 117_000 > gpu.ntt_throughput
    assert cham_default_config().total_ntt_units == 60


def test_ablation_constant_geometry_routing():
    """CG keeps a single bank->BFU routing pattern; a standard in-place
    Cooley-Tukey network needs a different pattern per stage — the mux
    cost HEAX pays in LUTs."""
    sim = NttDatapathSim(NttUnitConfig(n=256, n_bfu=4, ram_banks=8), CHAM_Q0)
    a = np.arange(256, dtype=np.uint64)
    _, report = sim.forward(a)
    cg_patterns = len(report.routing_patterns)
    # a stage-variant network touches banks in a stage-dependent stride:
    # count the distinct read-address strides the merged CT NTT would need
    ct_patterns = len({256 >> (s + 1) for s in range(8)})
    print_table(
        "Ablation: datapath routing patterns",
        ["network", "distinct patterns"],
        [("constant geometry (CHAM)", cg_patterns), ("in-place CT (HEAX-style)", ct_patterns)],
    )
    assert cg_patterns == 1
    assert ct_patterns > cg_patterns


def test_ablation_bfu_scaling():
    """Cycles halve per doubling of n_bfu while DSPs double: constant ATP."""
    rows = []
    for n_bfu in (2, 4, 8):
        unit = NttUnitConfig(n_bfu=n_bfu)
        res = ntt_unit_resources(unit)
        rows.append((n_bfu, unit.cycles, res.dsp, unit.cycles * res.dsp))
    print_table(
        "Ablation: butterfly parallelism", ["n_bfu", "cycles", "DSP", "cycle*DSP"], rows
    )
    assert rows[0][3] == rows[1][3] == rows[2][3]


# -- kernel timings -------------------------------------------------------------------


#: the stacks the workloads transform at N = 4096 over the augmented
#: basis: a key-switch digit stack (L_aug, L digits, 2 polynomials) and
#: an encode stack (L_aug, 8 matrix rows)
KERNEL_SHAPES = {"digits": (3, 2, 2, 4096), "encode": (3, 8, 4096)}


def test_fused_ntt_wall_rate(rng):
    """Wall-clock rate of the fused NTT kernel, recorded for the perfcheck
    gate.

    Forward and inverse transforms of the two stacks are timed
    interleaved, in one process, after a warm-up, as the workloads call
    them; a standalone loop over fresh temporaries would also time page
    faults the workloads do not pay.  Rates count one limb of one
    polynomial as one transform.  ``benchmarks/floors.json`` pins floors
    that the stage-variant merged Cooley-Tukey loops fall below.
    """
    moduli = (CHAM_Q0, CHAM_Q1, CHAM_P)
    kernel = fused_limb_ntt(4096, moduli)
    stacks = {
        name: np.stack([rng.integers(0, q, shape[1:], dtype=np.uint64) for q in moduli])
        for name, shape in KERNEL_SHAPES.items()
    }
    calls = [
        (f"{way}_per_s_{name}", fn, x)
        for name, x in stacks.items()
        for way, fn in (("forward", kernel.forward), ("inverse", kernel.inverse))
    ]
    for _name, fn, x in calls:
        fn(x)  # warm the tables and the allocator
    seconds = {name: 0.0 for name, _fn, _x in calls}
    rounds = 0
    t_end = time.perf_counter() + 1.0
    while rounds < 5 or time.perf_counter() < t_end:
        for name, fn, x in calls:
            t0 = time.perf_counter()
            fn(x)
            seconds[name] += time.perf_counter() - t0
        rounds += 1
    rates = {
        name: rounds * x.size // x.shape[-1] / seconds[name] for name, _fn, x in calls
    }
    print_table(
        "Fused NTT kernel wall rate (N=4096, 3 limbs)",
        ["stack", "transforms/s"],
        [(name, f"{rate:,.0f}") for name, rate in rates.items()],
    )
    record_result(
        "ntt_kernel",
        rates,
        params={"n": 4096, "limbs": len(moduli), "rounds": rounds,
                "shapes": {k: list(v) for k, v in KERNEL_SHAPES.items()}},
    )
    assert all(rate > 0 for rate in rates.values())


@pytest.mark.benchmark(group="ntt")
def test_perf_negacyclic_multiply(benchmark, rng):
    ctx = NegacyclicNtt(4096, CHAM_Q0)
    a = rng.integers(0, CHAM_Q0, 4096, dtype=np.uint64)
    b = rng.integers(0, CHAM_Q0, 4096, dtype=np.uint64)
    benchmark(ctx.multiply, a, b)


@pytest.mark.benchmark(group="ntt")
def test_perf_datapath_sim_256(benchmark, rng):
    sim = NttDatapathSim(NttUnitConfig(n=256, n_bfu=4, ram_banks=8), CHAM_Q0)
    a = rng.integers(0, CHAM_Q0, 256, dtype=np.uint64)
    benchmark(sim.forward, a)


def test_cycles_formula_consistency():
    for n in (1024, 4096):
        for n_bfu in (2, 4, 8):
            assert cg_ntt_cycles(n, n_bfu) == NttUnitConfig(n=n, n_bfu=n_bfu).cycles
