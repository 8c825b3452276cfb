"""Fig. 4 — SmartBalance vs vanilla Linux on the quad-core HMP.

(a) interactive microbenchmarks across the throughput x interactivity
grid; (b) PARSEC benchmarks and the Table 3 mixes.  Each configuration
runs with 2, 4 and 8 threads per benchmark (the paper's
parallelisation levels); the figure reports the percent energy-
efficiency (IPS/Watt) improvement of SmartBalance over the vanilla
balancer on identical workloads.

Both panels decompose into independent :class:`~repro.runner.RunSpec`
jobs (one per workload x thread-count x balancer cell), so the whole
figure parallelises across a worker pool and individual cells are
served from the on-disk result cache on re-runs.

Paper headline: 50.02 % average for the IMBs, 52 % for PARSEC and the
mixes, "over 50 % across all benchmarks".
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.reporting import ExperimentResult, Finding
from repro.analysis.stats import mean
from repro.experiments.common import FULL, Scale
from repro.kernel.metrics import RunResult
from repro.runner.spec import RunSpec

#: Paper-reported average improvements.
PAPER_IMB_AVG_PCT = 50.02
PAPER_PARSEC_AVG_PCT = 52.0

_BALANCER_NAMES = ("vanilla", "smartbalance")


# Cases are (row label, threads column value, workload spec, simulated
# thread count) tuples: everything a panel row needs beyond the runs.
def _fig4a_cases(scale: Scale) -> "list[tuple[str, object, str, int]]":
    return [
        (config, n_threads, config, n_threads)
        for config in scale.imb_configs
        for n_threads in scale.thread_counts
    ]


def _fig4b_cases(scale: Scale) -> "list[tuple[str, object, str, int]]":
    cases: "list[tuple[str, object, str, int]]" = [
        (bench_name, n_threads, bench_name, n_threads)
        for bench_name in scale.parsec_benchmarks
        for n_threads in scale.thread_counts
    ]
    for mix_name in scale.mixes:
        for n_threads in scale.thread_counts:
            per_member = max(n_threads // 2, 1)
            cases.append((mix_name, f"{per_member}/bench", mix_name, per_member))
    return cases


def _case_spec(workload: str, threads: int, balancer: str, scale: Scale) -> RunSpec:
    return RunSpec(
        workload=workload,
        platform="quad",
        threads=threads,
        balancer=balancer,
        n_epochs=scale.n_epochs,
    )


def _specs_from_cases(cases, scale: Scale) -> "list[RunSpec]":
    return [
        _case_spec(workload, threads, balancer, scale)
        for (_, _, workload, threads) in cases
        for balancer in _BALANCER_NAMES
    ]


def fig4a_specs(scale: Scale = FULL) -> "list[RunSpec]":
    """The jobs Fig. 4(a) needs, one per (IMB, threads, balancer)."""
    return _specs_from_cases(_fig4a_cases(scale), scale)


def fig4b_specs(scale: Scale = FULL) -> "list[RunSpec]":
    """The jobs Fig. 4(b) needs, one per (PARSEC/mix, threads, balancer)."""
    return _specs_from_cases(_fig4b_cases(scale), scale)


def _build_panel(
    cases,
    scale: Scale,
    results: "Mapping[RunSpec, RunResult]",
) -> "tuple[list[list[object]], list[float]]":
    rows: "list[list[object]]" = []
    improvements: "list[float]" = []
    for label, threads_column, workload, threads in cases:
        smart = results[_case_spec(workload, threads, "smartbalance", scale)]
        vanilla = results[_case_spec(workload, threads, "vanilla", scale)]
        imp = smart.improvement_over(vanilla)
        instr_ratio = smart.instructions / max(vanilla.instructions, 1.0)
        improvements.append(imp)
        rows.append([label, threads_column, round(imp, 1), round(instr_ratio, 2)])
    return rows, improvements


def fig4a_build(
    scale: Scale, results: "Mapping[RunSpec, RunResult]"
) -> ExperimentResult:
    """Assemble the Fig. 4(a) report from executed jobs."""
    rows, improvements = _build_panel(_fig4a_cases(scale), scale, results)
    return ExperimentResult(
        experiment_id="fig4a",
        title="Fig. 4(a): SmartBalance vs vanilla — interactive microbenchmarks",
        headers=["IMB config", "threads", "IPS/W gain %", "instr ratio"],
        rows=rows,
        findings=(
            Finding(
                name="average IMB improvement",
                measured=mean(improvements),
                paper=PAPER_IMB_AVG_PCT,
                unit="%",
            ),
        ),
        notes=(
            "instr ratio = SmartBalance delivered instructions relative to "
            "vanilla (throughput preservation check)."
        ),
    )


def fig4b_build(
    scale: Scale, results: "Mapping[RunSpec, RunResult]"
) -> ExperimentResult:
    """Assemble the Fig. 4(b) report from executed jobs."""
    rows, improvements = _build_panel(_fig4b_cases(scale), scale, results)
    return ExperimentResult(
        experiment_id="fig4b",
        title="Fig. 4(b): SmartBalance vs vanilla — PARSEC benchmarks and mixes",
        headers=["benchmark", "threads", "IPS/W gain %", "instr ratio"],
        rows=rows,
        findings=(
            Finding(
                name="average PARSEC improvement",
                measured=mean(improvements),
                paper=PAPER_PARSEC_AVG_PCT,
                unit="%",
            ),
        ),
    )
