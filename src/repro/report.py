"""One-call reproduction report: every headline number, one markdown file.

``python -m repro report`` (or :func:`generate_report`) runs the
simulators and models end to end and writes a self-contained markdown
document mirroring EXPERIMENTS.md's structure with *freshly computed*
numbers — the artifact a reviewer diffs against the paper.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["generate_report"]


def _section_parameters() -> List[str]:
    from repro.he.params import cham_params

    p = cham_params()
    return [
        "## Parameters (§II-F)",
        "",
        f"- {p.describe()}",
        f"- ciphertext polynomials: {p.ct_poly_count} normal / "
        f"{p.ct_poly_count_aug} augmented (paper: 4 / 6)",
        f"- plaintext polynomials: {p.pt_poly_count} / {p.pt_poly_count_aug} "
        "(paper: 2 / 3)",
        "",
    ]


def _section_table2() -> List[str]:
    from repro.hw.arch import cham_default_config
    from repro.hw.resources import total_resources, utilization

    util = utilization(total_resources(cham_default_config()))
    paper = {"LUT": 63.68, "FF": 20.41, "BRAM": 72.13, "URAM": 61.98, "DSP": 29.04}
    lines = [
        "## Table II — resource utilization",
        "",
        "| class | model | paper |",
        "|---|---|---|",
    ]
    for key in ("LUT", "FF", "BRAM", "URAM", "DSP"):
        lines.append(f"| {key} | {util[key]:.2f}% | {paper[key]:.2f}% |")
    lines.append("")
    return lines


def _section_ntt() -> List[str]:
    from repro.hw.arch import NttUnitConfig, cham_default_config
    from repro.hw.perf import ChamPerfModel, CpuCostModel
    from repro.hw.resources import TABLE3_NTT_VARIANTS, engine_resources

    cfg = cham_default_config()
    cham = ChamPerfModel()
    cpu = CpuCostModel()
    unit = NttUnitConfig()
    engine = engine_resources(cfg.engine)
    ks = cham.keyswitch_throughput()
    lines = [
        "## NTT and key-switch (Table III / §V-B1)",
        "",
        f"- NTT unit latency: {unit.cycles} cycles (paper: 6144)",
        f"- total NTT units: {cfg.total_ntt_units} (paper: 60)",
        f"- one compute engine: LUT {engine.lut:,}, DSP {engine.dsp}",
        f"- NTT offload throughput: {cham.ntt_offload_throughput():,.0f} ops/s "
        "(paper: 195 k)",
        f"- key-switch: {ks:,.0f} ops/s, "
        f"{ks / cpu.keyswitch_throughput():.0f}x CPU (paper: 65 k @ 105x)",
        "",
        "| NTT module memory | LUT | BRAM | latency |",
        "|---|---|---|---|",
    ]
    for memory, (lut, bram) in TABLE3_NTT_VARIANTS.items():
        lines.append(f"| {memory} | {lut:,} | {bram} | {unit.cycles} cycles |")
    lines.append("")
    return lines


def _section_roofline() -> List[str]:
    from repro.hw.roofline import roofline_points

    lines = [
        "## Fig. 2a — roofline",
        "",
        "| kernel | ops/B | of peak |",
        "|---|---|---|",
    ]
    for name, k in roofline_points().items():
        lines.append(
            f"| {name} | {k.intensity:.2f} | {100 * k.peak_fraction:.1f}% |"
        )
    lines.append("")
    return lines


def _section_dse() -> List[str]:
    from repro.hw.dse import enumerate_design_space, pareto_front

    points = enumerate_design_space()
    front = pareto_front(points)
    deployed = next(
        p
        for p in points
        if (p.stages, p.engines, p.ntt_units_per_group, p.n_bfu) == (9, 2, 6, 4)
    )
    return [
        "## Fig. 2b — design space",
        "",
        f"- {len(points)} points, {sum(p.fits for p in points)} feasible, "
        f"{len(front)} on the frontier",
        f"- deployed point: {deployed.rows_per_sec:,.0f} rows/s at "
        f"{deployed.max_utilization_pct:.1f}% max utilization",
        "",
    ]


def _section_hmvp() -> List[str]:
    from repro.hw.perf import (
        ChamPerfModel,
        CpuCostModel,
        GpuCostModel,
        PaillierCostModel,
        hmvp_latency_all,
    )

    cham, cpu, gpu, pail = (
        ChamPerfModel(),
        CpuCostModel(),
        GpuCostModel(),
        PaillierCostModel(),
    )
    lines = [
        "## Fig. 6 / Fig. 8 — HMVP performance",
        "",
        "| matrix | CPU | GPU | CHAM | cham/gpu | pail/cham |",
        "|---|---|---|---|---|---|",
    ]
    for m, n in [(2048, 256), (8192, 4096), (16384, 4096)]:
        lat = hmvp_latency_all(m, n, cham, cpu, gpu)
        lines.append(
            f"| {m}x{n} | {lat['cpu']:.2f} s | {lat['gpu'] * 1e3:.0f} ms | "
            f"{lat['cham'] * 1e3:.0f} ms | {lat['cham'] / lat['gpu']:.2f} | "
            f"{pail.matvec_s(m, n) / lat['cham']:,.0f}x |"
        )
    lines.append("")
    lines.append("(paper anchors: cham/gpu 0.3-0.7, Paillier speedup up to ~1800x)")
    lines.append("")
    return lines


def _section_apps() -> List[str]:
    from repro.core.complexity import diagonal_cost
    from repro.hw.perf import ChamPerfModel, CpuCostModel, PaillierCostModel

    cham, cpu, pail = ChamPerfModel(), CpuCostModel(), PaillierCostModel()
    lr_small = (
        pail.encrypt_vec_s(2048)
        + pail.matvec_s(256, 2048)
        + pail.decrypt_vec_s(256)
        + 12.0
    ) / (cham.hmvp_s(256, 2048) + 12.0)
    lr_large = (
        pail.encrypt_vec_s(8192)
        + pail.matvec_s(8192, 8192)
        + pail.decrypt_vec_s(8192)
        + 12.0
    ) / (cham.hmvp_s(8192, 8192) + 12.0)
    cost = diagonal_cost(4096, 4096, 4096)
    beaver_base = (
        cost.rotations * cpu.keyswitch_ms * 1e-3
        + cost.he_multiplies * cpu.dot_product_s()
    )
    beaver = beaver_base / cham.hmvp_s(4096, 4096)
    return [
        "## Fig. 7 — applications",
        "",
        f"- HeteroLR end-to-end: {lr_small:.1f}x (small) .. {lr_large:.1f}x "
        "(8192x8192) — paper: 2x .. 36x",
        f"- Beaver triples (4096x4096 layer): {beaver:.0f}x over the Delphi "
        "baseline — paper band: 49x .. 144x",
        "",
    ]


def _section_noise() -> List[str]:
    import math

    from repro.he.noise import NoiseModel
    from repro.he.params import cham_params

    params = cham_params()
    model = NoiseModel(
        n=params.n,
        sigma=params.error_std,
        t=params.plain_modulus,
        q=params.q_product,
        p=params.special_modulus,
    )
    pre = model.multiply_plain(model.fresh_pk(), 2**16)
    ks = model.keyswitch(dnum=2, q_max=max(params.ct_moduli))
    packed = model.pack(model.rescale(pre), 12, ks)
    return [
        "## §III-A — noise claim",
        "",
        f"- pre-rescale (model): {math.log2(pre):.1f} bits (paper: ~30)",
        f"- after the full 4096-pack: {math.log2(packed):.1f} bits (paper: ~26)",
        "",
    ]


def generate_report(path: Optional[str] = None) -> str:
    """Compute every headline number and return (optionally write) the
    markdown report.

    Each section runs under a ``report.<name>`` span, so
    ``python -m repro report --trace-out FILE`` shows where the
    generation time goes (the DSE sweep dominates).
    """
    from repro import obs

    parts = [
        ("parameters", _section_parameters),
        ("table2", _section_table2),
        ("ntt", _section_ntt),
        ("roofline", _section_roofline),
        ("dse", _section_dse),
        ("hmvp", _section_hmvp),
        ("apps", _section_apps),
        ("noise", _section_noise),
    ]
    sections = [
        "# CHAM reproduction report",
        "",
        "Generated by `python -m repro report`.",
        "",
    ]
    for name, build in parts:
        with obs.span(f"report.{name}"):
            sections += build()
    text = "\n".join(sections)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text
