"""Fig. 5 — normalized energy efficiency vs ARM GTS on big.LITTLE.

The paper creates an octa-core big.LITTLE with Gem5 and compares
SmartBalance against the ARM Global Task Scheduling policy (and
implicitly the vanilla balancer): SmartBalance's direct per-thread
energy-efficiency optimisation beats GTS's utilisation-threshold
binary big/little selection by ~20 %.

We additionally report Linaro IKS (the coarser cluster switcher GTS
improved upon) for context.

Every (workload, balancer) cell is an independent
:class:`~repro.runner.RunSpec` job, so the figure parallelises across
a worker pool and re-runs are served from the result cache.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.reporting import ExperimentResult, Finding
from repro.analysis.stats import mean
from repro.experiments.common import FULL, Scale
from repro.kernel.metrics import RunResult
from repro.runner.spec import RunSpec

#: Paper headline: ~20 % over GTS.
PAPER_GAIN_OVER_GTS_PCT = 20.0

_BALANCER_NAMES = ("vanilla", "iks", "gts", "smartbalance")


def _cases(scale: Scale) -> "list[tuple[str, str, int]]":
    """(row label, workload spec, thread count) per figure row."""
    cases = [
        (bench_name, bench_name, n_threads)
        for bench_name in scale.parsec_benchmarks
        for n_threads in scale.thread_counts
    ]
    cases += [
        (f"imb-{config}", config, n_threads)
        for config in scale.imb_configs[:3]
        for n_threads in scale.thread_counts[-1:]
    ]
    return cases


def _case_spec(workload: str, threads: int, balancer: str, scale: Scale) -> RunSpec:
    return RunSpec(
        workload=workload,
        platform="biglittle",
        threads=threads,
        balancer=balancer,
        n_epochs=scale.n_epochs,
    )


def fig5_specs(scale: Scale = FULL) -> "list[RunSpec]":
    """The jobs Fig. 5 needs, one per (workload, threads, balancer)."""
    return [
        _case_spec(workload, threads, balancer, scale)
        for (_, workload, threads) in _cases(scale)
        for balancer in _BALANCER_NAMES
    ]


def fig5_build(
    scale: Scale, results: "Mapping[RunSpec, RunResult]"
) -> ExperimentResult:
    """Assemble the Fig. 5 report from executed jobs."""
    rows = []
    gains_over_gts = []
    for case_name, workload, threads in _cases(scale):
        per_balancer = {
            name: results[_case_spec(workload, threads, name, scale)]
            for name in _BALANCER_NAMES
        }
        gts = per_balancer["gts"].ips_per_watt
        if gts <= 0:
            continue
        normalised = {
            name: result.ips_per_watt / gts
            for name, result in per_balancer.items()
        }
        gains_over_gts.append(100.0 * (normalised["smartbalance"] - 1.0))
        rows.append(
            [
                case_name,
                round(normalised["vanilla"], 2),
                round(normalised["iks"], 2),
                1.0,
                round(normalised["smartbalance"], 2),
            ]
        )
    return ExperimentResult(
        experiment_id="fig5",
        title="Fig. 5: Normalised energy efficiency on octa-core big.LITTLE "
        "(GTS = 1.0)",
        headers=["benchmark", "vanilla", "IKS", "GTS", "SmartBalance"],
        rows=rows,
        findings=(
            Finding(
                name="average gain over GTS",
                measured=mean(gains_over_gts),
                paper=PAPER_GAIN_OVER_GTS_PCT,
                unit="%",
            ),
        ),
    )
