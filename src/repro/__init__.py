"""SmartBalance reproduction: a sensing-driven load balancer for
energy efficiency of heterogeneous MPSoCs (Sarma et al., DAC 2015).

Quick start::

    from repro import quad_hmp, System, SmartBalance, imb_threads

    platform = quad_hmp()
    threads = imb_threads("HTMI", n_threads=8)
    system = System(platform, threads, SmartBalance())
    result = system.run(n_epochs=50)
    print(result.ips_per_watt)

Packages:

* :mod:`repro.hardware` — simulated MPSoC (Gem5/McPAT substitute)
* :mod:`repro.workload` — PARSEC-like models + synthetic benchmarks
* :mod:`repro.kernel` — CFS scheduling substrate, baseline balancers
* :mod:`repro.core` — SmartBalance itself
* :mod:`repro.analysis` — statistics and reporting
* :mod:`repro.experiments` — one module per paper table/figure
"""

from repro.core import (
    Allocation,
    EnergyEfficiencyObjective,
    PredictorModel,
    SAConfig,
    SmartBalance,
    SmartBalanceConfig,
    anneal,
    default_predictor,
    train_predictor,
)
from repro.hardware import (
    ARM_BIG,
    ARM_LITTLE,
    BIG,
    HUGE,
    MEDIUM,
    SMALL,
    CoreType,
    Platform,
    big_little_octa,
    build_platform,
    quad_hmp,
    scaled_hmp,
)
from repro.kernel import RunResult, SimulationConfig, System
from repro.kernel.balancers import (
    GtsBalancer,
    IksBalancer,
    LoadBalancer,
    NullBalancer,
    VanillaBalancer,
)
from repro.workload import (
    BENCHMARKS,
    IMB_CONFIGS,
    MIXES,
    ThreadBehavior,
    WorkloadPhase,
    benchmark,
    imb_threads,
    mix_threads,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # hardware
    "CoreType",
    "Platform",
    "HUGE",
    "BIG",
    "MEDIUM",
    "SMALL",
    "ARM_BIG",
    "ARM_LITTLE",
    "quad_hmp",
    "big_little_octa",
    "build_platform",
    "scaled_hmp",
    # workload
    "WorkloadPhase",
    "ThreadBehavior",
    "BENCHMARKS",
    "MIXES",
    "IMB_CONFIGS",
    "benchmark",
    "mix_threads",
    "imb_threads",
    # kernel
    "System",
    "SimulationConfig",
    "RunResult",
    "LoadBalancer",
    "NullBalancer",
    "VanillaBalancer",
    "GtsBalancer",
    "IksBalancer",
    # core
    "SmartBalance",
    "SmartBalanceConfig",
    "SAConfig",
    "Allocation",
    "EnergyEfficiencyObjective",
    "anneal",
    "PredictorModel",
    "train_predictor",
    "default_predictor",
]
