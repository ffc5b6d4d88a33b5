"""Published-accelerator comparison (the related-work landscape of §I).

Structured data for the accelerators the paper positions itself against,
with derived normalized metrics (ATP, NTT rate, technology class).  The
numbers are the papers' published figures — this module exists so the
comparison table the paper's introduction sketches can be regenerated
and extended programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["Accelerator", "KNOWN_ACCELERATORS", "comparison_rows", "cham_entry"]


@dataclass(frozen=True)
class Accelerator:
    """One published HE accelerator's headline figures."""

    name: str
    venue: str
    technology: str  # "FPGA" | "ASIC" | "GPU"
    clock_mhz: float
    #: NTT latency in cycles at N=4096-class sizes (None if not quoted)
    ntt_cycles: Optional[int]
    #: butterfly parallelism of the NTT unit
    ntt_parallelism: Optional[int]
    #: chip/die area in mm^2 (ASICs; the §I "100-400 mm^2" criticism)
    area_mm2: Optional[float]
    #: target scope: "operator" (NTT/key-switch) or "kernel" (whole HMVP)
    scope: str
    multi_scheme: bool

    @property
    def atp(self) -> Optional[float]:
        """Area-time product proxy: cycles x parallelism (paper Table III)."""
        if self.ntt_cycles is None or self.ntt_parallelism is None:
            return None
        return self.ntt_cycles * self.ntt_parallelism


#: published figures, as quoted in the paper and the cited works
KNOWN_ACCELERATORS: Dict[str, Accelerator] = {
    "CHAM": Accelerator(
        name="CHAM",
        venue="DAC'23",
        technology="FPGA",
        clock_mhz=300,
        ntt_cycles=6144,
        ntt_parallelism=4,
        area_mm2=None,
        scope="kernel",
        multi_scheme=True,
    ),
    "HEAX": Accelerator(
        name="HEAX",
        venue="ASPLOS'20",
        technology="FPGA",
        clock_mhz=300,
        ntt_cycles=6144,
        ntt_parallelism=4,
        area_mm2=None,
        scope="operator",
        multi_scheme=False,
    ),
    "F1": Accelerator(
        name="F1",
        venue="MICRO'21",
        technology="ASIC",
        clock_mhz=1000,
        ntt_cycles=202,
        ntt_parallelism=896,
        area_mm2=151.0,
        scope="operator",
        multi_scheme=False,
    ),
    "CraterLake": Accelerator(
        name="CraterLake",
        venue="ISCA'22",
        technology="ASIC",
        clock_mhz=1000,
        ntt_cycles=None,
        ntt_parallelism=None,
        area_mm2=472.3,
        scope="kernel",
        multi_scheme=False,
    ),
    "BTS": Accelerator(
        name="BTS",
        venue="ISCA'22",
        technology="ASIC",
        clock_mhz=1200,
        ntt_cycles=None,
        ntt_parallelism=None,
        area_mm2=373.6,
        scope="kernel",
        multi_scheme=False,
    ),
    "cuHE/GPU": Accelerator(
        name="cuHE/GPU",
        venue="ePrint'16",
        technology="GPU",
        clock_mhz=1290,
        ntt_cycles=None,
        ntt_parallelism=None,
        area_mm2=815.0,  # V100 die
        scope="operator",
        multi_scheme=False,
    ),
}


def cham_entry() -> Accelerator:
    return KNOWN_ACCELERATORS["CHAM"]


def comparison_rows() -> List[List[str]]:
    """The §I landscape as printable rows, CHAM first."""
    order = ["CHAM", "HEAX", "F1", "CraterLake", "BTS", "cuHE/GPU"]
    rows = []
    cham_atp = cham_entry().atp
    for name in order:
        acc = KNOWN_ACCELERATORS[name]
        atp = acc.atp
        rows.append(
            [
                acc.name,
                acc.venue,
                acc.technology,
                f"{acc.clock_mhz:.0f} MHz",
                f"{atp / cham_atp:.2f}x" if atp else "-",
                f"{acc.area_mm2:.0f}" if acc.area_mm2 else "-",
                acc.scope,
                "yes" if acc.multi_scheme else "no",
            ]
        )
    return rows
