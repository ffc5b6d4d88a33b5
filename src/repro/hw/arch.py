"""Architecture description of CHAM (Fig. 1a) and the target FPGAs.

The default configuration is the paper's deployed design point:

* 2 compute engines, 9-stage macro-pipeline;
* per engine: a DOTPRODUCT group (stage 1-3: NTT / MULTPOLY / INTT),
  a RESCALE+EXTRACTLWES stage (stage 4), and one PACKTWOLWES module
  (stages 5-9: MULTMONO, MODADD/MODSUB, AUTOMORPH, KEYSWITCH, RESCALE);
* every NTT unit is a 4-PE (four-BFU) constant-geometry datapath over
  8 round-robin RAM banks (Section IV-A);
* 300 MHz clock on the Xilinx VU9P.

NTT-unit accounting (matches the paper's "total number of 60 NTT units"):
stage 1 transforms the 6 augmented-ciphertext polynomials and 3 augmented
plaintext polynomials (9 units), stage 3 inverse-transforms the 6 product
polynomials (6 units), and the PACKTWOLWES key-switch pipeline holds
``dnum * |Qp| = 6`` forward, ``2 * |Qp| = 6`` inverse and 3 spare
transform lanes (15 units) — 30 per engine, 60 in the two-engine design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "NttUnitConfig",
    "EngineConfig",
    "ChamConfig",
    "FpgaDevice",
    "VU9P",
    "U200",
    "cham_default_config",
]


@dataclass(frozen=True)
class NttUnitConfig:
    """One constant-geometry NTT/INTT functional unit."""

    n: int = 4096
    n_bfu: int = 4
    ram_banks: int = 8
    #: twiddle/local-buffer memory technology: "bram", "bram+dram", "dram"
    memory: str = "bram"

    @property
    def log2_n(self) -> int:
        return self.n.bit_length() - 1

    @property
    def cycles(self) -> int:
        """Bubble-free transform latency: ``(N/2 * log2 N) / n_bfu``."""
        return (self.n // 2) * self.log2_n // self.n_bfu


@dataclass(frozen=True)
class EngineConfig:
    """One CHAM compute engine (the macro-pipeline of Fig. 1a)."""

    ntt_unit: NttUnitConfig = field(default_factory=NttUnitConfig)
    #: stage-1 forward-NTT lanes (augmented ct + pt polynomials)
    stage1_ntt_units: int = 9
    #: stage-3 inverse-NTT lanes (product polynomials)
    stage3_intt_units: int = 6
    #: transform lanes inside the PACKTWOLWES key-switch pipeline
    pack_ntt_units: int = 15
    #: coefficient-parallel lanes of MULTPOLY / RESCALE / PPU datapaths
    ppu_lanes: int = 4
    pack_units: int = 1
    pipeline_stages: int = 9
    #: reduce-buffer capacity, in intermediate pack results
    reduce_buffer_entries: int = 16
    #: per-thread input/output staging RAMs (Section III-C)
    io_buffer_polys: int = 12

    @property
    def total_ntt_units(self) -> int:
        return self.stage1_ntt_units + self.stage3_intt_units + self.pack_ntt_units

    @property
    def dot_product_interval(self) -> int:
        """Steady-state cycles between successive dot-product rows.

        Stage 1 must forward-transform the 3 augmented plaintext limbs of
        each row (the ciphertext transform is done once and cached);
        stage 3 must inverse-transform 6 product limbs.  With the default
        widths both stages sustain one row per NTT latency.
        """
        c = self.ntt_unit.cycles
        pt_polys = 3
        prod_polys = 6
        stage1 = -(-pt_polys * c // self.stage1_ntt_units)
        stage3 = -(-prod_polys * c // self.stage3_intt_units)
        stage2 = -(-6 * self.ntt_unit.n // (self.ppu_lanes * self.ntt_unit.n_bfu))
        stage4 = stage2
        return max(stage1, stage2, stage3, stage4, c // max(self.stage1_ntt_units // pt_polys, 1))

    @property
    def pack_interval(self) -> int:
        """Steady-state cycles per PACKTWOLWES reduction.

        One reduction's key-switch needs ``dnum * |Qp| = 6`` forward and
        ``2 * |Qp| = 6`` inverse transforms plus coefficient-wise work;
        ``pack_ntt_units`` lanes pipeline them.
        """
        c = self.ntt_unit.cycles
        transforms = 12
        return -(-transforms * c // self.pack_ntt_units)


@dataclass(frozen=True)
class ChamConfig:
    """Whole-accelerator configuration."""

    engine: EngineConfig = field(default_factory=EngineConfig)
    engines: int = 2
    clock_hz: float = 300e6
    pcie_gbps: float = 12.8  # effective host<->card bandwidth (GB/s)
    host_threads: int = 8

    @property
    def total_ntt_units(self) -> int:
        return self.engines * self.engine.total_ntt_units


@dataclass(frozen=True)
class FpgaDevice:
    """FPGA resource envelope (for Table II percentages and DSE fitting)."""

    name: str
    luts: int
    ffs: int
    bram36: int
    urams: int
    dsps: int
    #: DDR bandwidth in GB/s (roofline memory roof)
    ddr_gbps: float
    #: peak 27x18 multiplies per cycle = DSP count (roofline compute roof)
    clock_hz: float = 300e6

    @property
    def peak_ops_per_sec(self) -> float:
        return self.dsps * self.clock_hz

    @property
    def ridge_intensity(self) -> float:
        """Ops/byte at which the roofline bends."""
        return self.peak_ops_per_sec / (self.ddr_gbps * 1e9)


#: Xilinx VU9P (production board, Table II).
VU9P = FpgaDevice(
    name="VU9P",
    luts=1_182_240,
    ffs=2_364_480,
    bram36=2_160,
    urams=960,
    dsps=6_840,
    ddr_gbps=77.0,
)

#: Xilinx Alveo U200 (prototyping board; same XCU9P silicon, shell carved out).
U200 = FpgaDevice(
    name="U200",
    luts=1_182_240,
    ffs=2_364_480,
    bram36=2_160,
    urams=960,
    dsps=6_840,
    ddr_gbps=77.0,
)


def cham_default_config() -> ChamConfig:
    """The paper's deployed design point (first Fig. 2b optimum)."""
    return ChamConfig()
