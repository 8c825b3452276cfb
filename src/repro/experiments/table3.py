"""Table 3 — the PARSEC benchmark mixes.

Regenerates the mix definitions and, beyond the paper's static table,
characterises each mix's instantiated threads (demanded duty on the
reference core) to show the behavioural diversity the mixes provide.
"""

from __future__ import annotations

from repro.analysis.reporting import ExperimentResult
from repro.hardware.features import MEDIUM
from repro.workload.demand import demanded_fraction_on
from repro.workload.parsec import MIXES, mix_threads


def run(threads_per_benchmark: int = 2, seed: int = 0) -> ExperimentResult:
    """Build the Table 3 reproduction."""
    rows = []
    for mix_name, members in MIXES.items():
        threads = mix_threads(mix_name, threads_per_benchmark, seed)
        duties = [
            demanded_fraction_on(t.phase_at(0.0), MEDIUM) for t in threads
        ]
        rows.append(
            [
                mix_name,
                " + ".join(members),
                len(threads),
                f"{min(duties):.2f}-{max(duties):.2f}",
            ]
        )
    return ExperimentResult(
        experiment_id="table3",
        title="Table 3: Benchmarks and their mixes",
        headers=["Mix", "Members", "Threads", "Duty range (ref core)"],
        rows=rows,
        notes=(
            f"Instantiated with {threads_per_benchmark} threads per member "
            "benchmark; duty range shows the per-thread CPU-demand "
            "diversity within each mix."
        ),
    )
