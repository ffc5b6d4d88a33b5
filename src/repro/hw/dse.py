"""Design-space exploration (Fig. 2b, Section III-B).

Enumerates candidate CHAM configurations — macro-pipeline split, number
of compute engines, NTT-unit allocation, butterfly parallelism, reduce
buffer depth — and scores each by

* *performance*: sustained HMVP throughput (rows/s) from the macro-
  pipeline simulator, and
* *resource utilization*: the Table II bottom-up model, with the paper's
  own fitting rule that every resource class must stay below 75% to
  survive place-and-route (Section V-A).

The Pareto frontier should contain the two optima the paper reports:
``(9 stages, 1 pack unit, 6 NTT/stage-group, 4-PE NTT, 2 engines)`` — the
deployed CHAM — and ``(9 stages, 1 pack unit, 6 NTT, 8-PE NTT, 1 engine)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from .arch import ChamConfig, EngineConfig, FpgaDevice, NttUnitConfig, VU9P
from .pipeline import MacroPipeline
from .resources import ResourceVector, total_resources, utilization

__all__ = ["DesignPoint", "enumerate_design_space", "pareto_front"]

#: the paper's place-and-route headroom rule
MAX_UTILIZATION = 0.75


@dataclass
class DesignPoint:
    """One explored configuration with its scores."""

    stages: int
    engines: int
    ntt_units_per_group: int
    n_bfu: int
    reduce_buffer: int
    cfg: ChamConfig
    rows_per_sec: float
    resources: ResourceVector
    fits: bool
    deadlocked: bool = False

    @property
    def label(self) -> str:
        return (
            f"{self.stages}st/{self.engines}eng/"
            f"{self.ntt_units_per_group}ntt/{self.n_bfu}pe/"
            f"buf{self.reduce_buffer}"
        )

    @property
    def max_utilization_pct(self) -> float:
        util = utilization(self.resources)
        return max(util.values())


def _engine_for(
    stages: int, ntt_units_per_group: int, n_bfu: int, reduce_buffer: int
) -> EngineConfig:
    """Construct an engine from the DSE axes.

    ``ntt_units_per_group`` scales the three transform groups in the
    paper's 6:4:10 proportion (stage-1 : stage-3 : pack, per 6-unit
    group = 9:6:15 at the default).  A coarser pipeline split (< 9
    stages) merges pack stages, stretching the pack initiation interval;
    a finer split (> 9) adds fill latency but cannot beat the NTT-bound
    interval — exactly why 9 is the knee.
    """
    scale = ntt_units_per_group / 6
    stage1 = max(1, round(9 * scale))
    stage3 = max(1, round(6 * scale))
    pack = max(1, round(15 * scale))
    # pack stages available for pipelining: stages - 4 (dot side is fixed)
    pack_stage_count = max(stages - 4, 1)
    pack_penalty = 5 / pack_stage_count  # fewer stages => longer interval
    pack = max(1, int(pack / pack_penalty))
    return EngineConfig(
        ntt_unit=NttUnitConfig(n_bfu=n_bfu),
        stage1_ntt_units=stage1,
        stage3_intt_units=stage3,
        pack_ntt_units=pack,
        pipeline_stages=stages,
        reduce_buffer_entries=reduce_buffer,
    )


def enumerate_design_space(
    stages_options: Iterable[int] = (5, 7, 9, 11),
    engines_options: Iterable[int] = (1, 2, 3),
    ntt_units_options: Iterable[int] = (4, 6, 8),
    n_bfu_options: Iterable[int] = (2, 4, 8),
    buffer_options: Iterable[int] = (16,),
    device: FpgaDevice = VU9P,
    bench_rows: int = 2048,
) -> List[DesignPoint]:
    """Evaluate the full cross-product of the design axes."""
    points: List[DesignPoint] = []
    for stages in stages_options:
        for engines in engines_options:
            for units in ntt_units_options:
                for n_bfu in n_bfu_options:
                    for buf in buffer_options:
                        engine = _engine_for(stages, units, n_bfu, buf)
                        cfg = ChamConfig(engine=engine, engines=engines)
                        deadlocked = False
                        try:
                            stats = MacroPipeline(engine).simulate_hmvp(
                                bench_rows
                            )
                            per_engine = stats.throughput_rows_per_sec(
                                cfg.clock_hz
                            )
                            rows_per_sec = per_engine * engines
                        except RuntimeError:
                            rows_per_sec = 0.0
                            deadlocked = True
                        res = total_resources(cfg)
                        points.append(
                            DesignPoint(
                                stages=stages,
                                engines=engines,
                                ntt_units_per_group=units,
                                n_bfu=n_bfu,
                                reduce_buffer=buf,
                                cfg=cfg,
                                rows_per_sec=rows_per_sec,
                                resources=res,
                                fits=res.fits(device, MAX_UTILIZATION),
                                deadlocked=deadlocked,
                            )
                        )
    return points


def pareto_front(points: List[DesignPoint]) -> List[DesignPoint]:
    """Feasible points not dominated in (performance, resource headroom)."""
    feasible = [p for p in points if p.fits and not p.deadlocked]
    front = []
    for p in feasible:
        dominated = any(
            q.rows_per_sec >= p.rows_per_sec
            and q.max_utilization_pct <= p.max_utilization_pct
            and (
                q.rows_per_sec > p.rows_per_sec
                or q.max_utilization_pct < p.max_utilization_pct
            )
            for q in feasible
        )
        if not dominated:
            front.append(p)
    return sorted(front, key=lambda p: -p.rows_per_sec)


def achievable_clock_mhz(point: DesignPoint) -> float:
    """Empirical P&R timing model: congestion costs Fmax.

    Below ~60 % peak-class utilization the VU9P closes ~350 MHz for this
    pipeline; each extra utilization point costs ~1.5 MHz of congestion
    slack.  The deployed CHAM point (72 % BRAM) lands at the paper's
    300 MHz; overfilled configurations would close slow even if they
    placed — a second reason the Fig. 2b frontier bends where it does.
    """
    derated = 400.0 - 1.5 * point.max_utilization_pct
    return max(150.0, min(350.0, derated))
