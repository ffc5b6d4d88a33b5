"""Hardware layer: cycle-level and analytical models of the CHAM FPGA.

* :mod:`repro.hw.arch` — structural configuration (Fig. 1a) and devices;
* :mod:`repro.hw.ntt_datapath` — the constant-geometry NTT unit (Fig. 3/4);
* :mod:`repro.hw.pipeline` — the 9-stage macro-pipeline with reduce
  buffer and preemption (Section III-A);
* :mod:`repro.hw.resources` — Table II / Table III resource model;
* :mod:`repro.hw.roofline` — Fig. 2a;
* :mod:`repro.hw.dse` — Fig. 2b design-space exploration;
* :mod:`repro.hw.hetero` — Fig. 1b CPU+FPGA interleaving;
* :mod:`repro.hw.perf` — calibrated CPU/GPU/CHAM end-to-end models;
* :mod:`repro.hw.runtime` — RAS runtime simulation (Section III-C);
* :mod:`repro.hw.topology` — interconnect graphs (ring/mesh/fat-tree);
* :mod:`repro.hw.netsim` — deterministic discrete-event network
  simulator with credit-based flow control.
"""

from .arch import (
    ChamConfig,
    EngineConfig,
    FpgaDevice,
    NttUnitConfig,
    U200,
    VU9P,
    cham_default_config,
)
from .ntt_datapath import BankAccessLog, DatapathReport, NttDatapathSim
from .pipeline import MacroPipeline, PipelineStats, simulate_multi_engine
from .resources import (
    ResourceVector,
    TABLE2_REFERENCE,
    TABLE3_NTT_VARIANTS,
    engine_resources,
    ntt_unit_resources,
    platform_resources,
    total_resources,
    utilization,
)
from .roofline import KernelPoint, hmvp_kernel, keyswitch_kernel, ntt_kernel, roofline_points
from .dse import (
    DesignPoint,
    achievable_clock_mhz,
    enumerate_design_space,
    pareto_front,
)
from .hetero import ChunkTiming, HeteroSchedule, simulate_hetero
from .perf import (
    ChamPerfModel,
    CpuCostModel,
    GpuCostModel,
    PaillierCostModel,
    hmvp_latency_all,
)
from .floorplan import SLR_COUNT, SlrPlan, auto_floorplan, plan_cham
from .trace import (
    PipelineTrace,
    TraceEvent,
    capture_trace,
    chrome_trace_events,
    render_gantt,
)
from .memory import JobTraffic, StagingBuffer, job_traffic, sustained_bandwidth
from .power import PowerModel, energy_per_hmvp
from .compare import Accelerator, KNOWN_ACCELERATORS, cham_entry, comparison_rows
from .runtime import (
    DeviceHangError,
    FaultInjector,
    FpgaRuntime,
    HealthReport,
    Job,
    JobState,
    OffloadOutcome,
    RegisterLoadError,
    VirtualFpga,
    offload,
)
from .topology import (
    COORDINATOR,
    Link,
    TOPOLOGY_KINDS,
    Topology,
    TopologyError,
    build_topology,
    fat_tree_topology,
    ideal_topology,
    mesh2d_topology,
    ring_topology,
)
from .netsim import (
    MessageRecord,
    NetworkSimulator,
    Router,
    SimulatorEngine,
)

__all__ = [
    "ChamConfig",
    "EngineConfig",
    "FpgaDevice",
    "NttUnitConfig",
    "U200",
    "VU9P",
    "cham_default_config",
    "BankAccessLog",
    "DatapathReport",
    "NttDatapathSim",
    "MacroPipeline",
    "PipelineStats",
    "simulate_multi_engine",
    "ResourceVector",
    "TABLE2_REFERENCE",
    "TABLE3_NTT_VARIANTS",
    "engine_resources",
    "ntt_unit_resources",
    "platform_resources",
    "total_resources",
    "utilization",
    "KernelPoint",
    "hmvp_kernel",
    "keyswitch_kernel",
    "ntt_kernel",
    "roofline_points",
    "DesignPoint",
    "achievable_clock_mhz",
    "enumerate_design_space",
    "pareto_front",
    "ChunkTiming",
    "HeteroSchedule",
    "simulate_hetero",
    "ChamPerfModel",
    "CpuCostModel",
    "GpuCostModel",
    "PaillierCostModel",
    "hmvp_latency_all",
    "JobTraffic",
    "StagingBuffer",
    "job_traffic",
    "sustained_bandwidth",
    "PowerModel",
    "Accelerator",
    "KNOWN_ACCELERATORS",
    "cham_entry",
    "comparison_rows",
    "energy_per_hmvp",
    "PipelineTrace",
    "TraceEvent",
    "capture_trace",
    "chrome_trace_events",
    "render_gantt",
    "SLR_COUNT",
    "SlrPlan",
    "auto_floorplan",
    "plan_cham",
    "DeviceHangError",
    "FaultInjector",
    "FpgaRuntime",
    "HealthReport",
    "Job",
    "JobState",
    "OffloadOutcome",
    "RegisterLoadError",
    "VirtualFpga",
    "offload",
    "COORDINATOR",
    "Link",
    "TOPOLOGY_KINDS",
    "Topology",
    "TopologyError",
    "build_topology",
    "fat_tree_topology",
    "ideal_topology",
    "mesh2d_topology",
    "ring_topology",
    "MessageRecord",
    "NetworkSimulator",
    "Router",
    "SimulatorEngine",
]
