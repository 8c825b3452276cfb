"""Simulated heterogeneous MPSoC hardware substrate.

Stands in for the paper's Gem5 + McPAT experimental platform (Fig. 3):
core-type descriptions (Table 2), an analytical micro-architecture
performance model, cache/TLB/branch miss-rate models, a calibrated
power model, hardware performance counters and the noisy sensing
interface exported to the kernel.
"""

from repro.hardware.counters import CounterBlock, DerivedRates
from repro.hardware.dvfs import (
    OperatingPoint,
    dvfs_platform,
    opp_table,
    opp_variants,
    type_at_opp,
    voltage_for_frequency,
)
from repro.hardware.thermal import (
    AMBIENT_C,
    T_JUNCTION_MAX_C,
    leakage_multiplier,
    steady_state_temperature,
    thermal_weights,
)
from repro.hardware.features import (
    ARM_BIG,
    ARM_LITTLE,
    BIG,
    BUILTIN_TYPES,
    HUGE,
    MEDIUM,
    SMALL,
    TABLE2_TYPES,
    CoreType,
    core_type_by_name,
)
from repro.hardware.microarch import PerfEstimate, estimate, peak_ipc, peak_ips
from repro.hardware.platform import (
    Core,
    Platform,
    big_little_octa,
    build_platform,
    quad_hmp,
    scaled_hmp,
)
from repro.hardware.power import (
    PowerBreakdown,
    busy_power,
    idle_power,
    leakage_power,
    peak_power,
    sleep_power,
)
from repro.hardware.sensors import (
    DEFAULT_COUNTER_NOISE,
    DEFAULT_POWER_NOISE,
    IDEAL_NOISE,
    NoiseModel,
    SensingInterface,
)

__all__ = [
    "ARM_BIG",
    "ARM_LITTLE",
    "BIG",
    "BUILTIN_TYPES",
    "HUGE",
    "MEDIUM",
    "SMALL",
    "TABLE2_TYPES",
    "CoreType",
    "core_type_by_name",
    "CounterBlock",
    "DerivedRates",
    "PerfEstimate",
    "estimate",
    "peak_ipc",
    "peak_ips",
    "Core",
    "Platform",
    "big_little_octa",
    "build_platform",
    "quad_hmp",
    "scaled_hmp",
    "PowerBreakdown",
    "busy_power",
    "idle_power",
    "leakage_power",
    "peak_power",
    "sleep_power",
    "NoiseModel",
    "SensingInterface",
    "IDEAL_NOISE",
    "DEFAULT_COUNTER_NOISE",
    "DEFAULT_POWER_NOISE",
    "OperatingPoint",
    "opp_table",
    "opp_variants",
    "type_at_opp",
    "voltage_for_frequency",
    "dvfs_platform",
    "AMBIENT_C",
    "T_JUNCTION_MAX_C",
    "leakage_multiplier",
    "steady_state_temperature",
    "thermal_weights",
]
