"""Experiment modules — one per paper table/figure.

Every artifact is a :class:`~repro.runner.SweepExperiment` in
:data:`EXPERIMENTS`: the :class:`~repro.runner.RunSpec` jobs it needs
and a ``build`` that assembles its report from their results.
:func:`~repro.runner.run_sweep` is the one runner: it unions the jobs
of every selected experiment into one deduplicated, cacheable,
parallel batch, then builds each report.  Experiments that need
objects a ``RunSpec`` cannot name (trained models, synthetic problems,
timing harnesses) list no jobs and compute inside ``build``.
``python -m repro experiments <ids>`` and :func:`run_all` both go
through it.

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
from repro.runner import SweepExperiment, run_sweep


def _computed(experiment_id: str, run) -> SweepExperiment:
    """An experiment with no jobs: ``build`` computes it from ``scale``."""
    return SweepExperiment(
        experiment_id, lambda scale: (), lambda scale, results: run(scale)
    )


#: Every artifact, in regeneration order, keyed by id.
EXPERIMENTS = {
    experiment.experiment_id: experiment
    for experiment in (
        _computed("table1", lambda scale: table1.run()),
        _computed("table2", lambda scale: table2.run()),
        _computed("table3", lambda scale: table3.run()),
        _computed("table4", lambda scale: table4.run()),
        SweepExperiment("fig4a", fig4.fig4a_specs, fig4.fig4a_build),
        SweepExperiment("fig4b", fig4.fig4b_specs, fig4.fig4b_build),
        SweepExperiment("fig5", fig5.fig5_specs, fig5.fig5_build),
        _computed("fig6", lambda scale: fig6.run()),
        _computed("fig7a", fig7.run_fig7a),
        _computed("fig7b", lambda scale: fig7.run_fig7b()),
        _computed("fig8a", lambda scale: fig8.run_fig8a()),
        _computed("fig8b", lambda scale: fig8.run_fig8b()),
        _computed("ext_virtual_sensing", lambda scale: extensions.run_virtual_sensing()),
        _computed("ext_optimizers", lambda scale: extensions.run_optimizer_comparison()),
        SweepExperiment(
            "ext_replicated", extensions.replicated_specs, extensions.replicated_build
        ),
        SweepExperiment(
            "resilience",
            resilience.resilience_specs,
            resilience.resilience_build,
            tolerate_crashes=True,
        ),
        _computed("table4_adapted", table4.run_adapted),
        _computed("drift", drift.run),
        SweepExperiment("fleet", fleet.fleet_specs, fleet.fleet_build),
        SweepExperiment("governor", governor.governor_specs, governor.governor_build),
        SweepExperiment("scenarios", scenarios.scenario_specs, scenarios.scenario_build),
    )
}


def run_all(scale: Scale = QUICK) -> list:
    """Regenerate every artifact in :data:`EXPERIMENTS`; returns the results."""
    return run_sweep(list(EXPERIMENTS.values()), scale)


__all__ = [
    "EXPERIMENTS",
    "run_all",
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
