"""Experiment modules — one per paper table/figure.

Each module exposes ``run(...) -> ExperimentResult`` (or ``run_<id>``
where one paper figure has multiple panels) and a ``main()`` that
prints the rendered result.  :data:`EXPERIMENTS` maps every artifact id
to its runner; ``repro experiments`` and ``run_all()`` both iterate it.

| module  | paper artifact                                     |
|---------|----------------------------------------------------|
| table1  | related-work capability matrix                     |
| table2  | core configurations + derived peaks                |
| table3  | PARSEC mixes                                       |
| table4  | predictor coefficient matrix Θ                     |
| fig4    | IPS/W gain vs vanilla (IMBs, PARSEC + mixes)       |
| fig5    | normalised IPS/W vs ARM GTS on big.LITTLE          |
| fig6    | IPC / power prediction error                       |
| fig7    | per-phase overhead + 2-128 core scalability        |
| fig8    | SA iterations vs distance-to-optimal + parameters  |

``resilience``, ``drift``, ``fleet``, ``governor`` and ``scenarios``
are not paper artifacts; ``scenarios`` sweeps the workload-scenario
families (:mod:`repro.scenarios`) with the progress- and latency-aware
balancer variants against stock SmartBalance and the kernel baselines; ``governor`` sweeps the joint placement + DVFS co-optimiser
(:mod:`repro.governor`) against fixed-V/f and static-pin baselines.
Of the rest:
``resilience`` measures IPS/W retention under injected faults (sensor,
counter, migration, hotplug, thermal), mitigated vs unmitigated;
``drift`` deploys a predictor trained on a mismatched corpus and
measures how much online adaptation (:mod:`repro.adaptation`) recovers
of the prediction accuracy, frozen vs adapted; ``fleet`` runs the
multi-node chaos gate (30 % of nodes killed mid-run must cost
throughput, not work — see :mod:`repro.fleet`).
"""

from repro.experiments import (
    drift,
    extensions,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fleet,
    governor,
    resilience,
    scenarios,
    table1,
    table2,
    table3,
    table4,
)
from repro.experiments.common import FULL, QUICK, Scale
from repro.obs import user_output


#: Every artifact, in regeneration order: id -> callable of
#: ``(scale, jobs, cache)``.  ``jobs`` and ``cache`` reach the
#: experiments that decompose into runner jobs; the rest ignore them.
EXPERIMENTS = {
    "table1": lambda scale, jobs, cache: table1.run(),
    "table2": lambda scale, jobs, cache: table2.run(),
    "table3": lambda scale, jobs, cache: table3.run(),
    "table4": lambda scale, jobs, cache: table4.run(),
    "fig4a": lambda scale, jobs, cache: fig4.run_fig4a(scale, jobs=jobs, cache=cache),
    "fig4b": lambda scale, jobs, cache: fig4.run_fig4b(scale, jobs=jobs, cache=cache),
    "fig5": lambda scale, jobs, cache: fig5.run(scale, jobs=jobs, cache=cache),
    "fig6": lambda scale, jobs, cache: fig6.run(),
    "fig7a": lambda scale, jobs, cache: fig7.run_fig7a(scale),
    "fig7b": lambda scale, jobs, cache: fig7.run_fig7b(),
    "fig8a": lambda scale, jobs, cache: fig8.run_fig8a(),
    "fig8b": lambda scale, jobs, cache: fig8.run_fig8b(),
    "ext_virtual_sensing": lambda scale, jobs, cache: extensions.run_virtual_sensing(),
    "ext_optimizers": lambda scale, jobs, cache: extensions.run_optimizer_comparison(),
    "ext_replicated": lambda scale, jobs, cache: extensions.run_replicated_headline(),
    "resilience": lambda scale, jobs, cache: resilience.run(scale, jobs=jobs, cache=cache),
    "table4_adapted": lambda scale, jobs, cache: table4.run_adapted(scale),
    "drift": lambda scale, jobs, cache: drift.run(scale),
    "fleet": lambda scale, jobs, cache: fleet.run(scale, jobs=jobs, cache=cache),
    "governor": lambda scale, jobs, cache: governor.run(scale, jobs=jobs, cache=cache),
    "scenarios": lambda scale, jobs, cache: scenarios.run(scale, jobs=jobs, cache=cache),
}


def run_all(scale: Scale = QUICK) -> list:
    """Regenerate every artifact in :data:`EXPERIMENTS`; returns the results."""
    return [experiment(scale, None, None) for experiment in EXPERIMENTS.values()]


def main() -> None:
    for result in run_all():
        user_output(result.render())
        user_output()


__all__ = [
    "EXPERIMENTS",
    "run_all",
    "main",
    "Scale",
    "QUICK",
    "FULL",
    "table1",
    "table2",
    "table3",
    "table4",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "extensions",
    "resilience",
    "drift",
    "fleet",
    "governor",
    "scenarios",
]
