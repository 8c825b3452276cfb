"""Loss-free JSON round-tripping of :class:`RunResult`.

The sweep engine persists results to the on-disk cache and ships them
across process boundaries; both need a stable, inspectable format
rather than pickles.  ``metrics_dict``/``metrics_digest`` additionally
provide the *determinism fingerprint*: every simulated quantity of a
run, with the wall-clock balancer-overhead timings excluded — those
measure the host, not the simulation, and legitimately vary between
otherwise bit-identical runs.
"""

from __future__ import annotations

import dataclasses

from repro.kernel.metrics import (
    CoreStats,
    EpochRecord,
    ResilienceStats,
    RunResult,
    TaskStats,
)

from repro.runner.spec import stable_hash


def result_to_dict(result: RunResult) -> dict:
    """Flatten a :class:`RunResult` into JSON-ready primitives."""
    return {
        "balancer_name": result.balancer_name,
        "platform_name": result.platform_name,
        "duration_s": result.duration_s,
        "instructions": result.instructions,
        "energy_j": result.energy_j,
        "migrations": result.migrations,
        "epochs": [dataclasses.asdict(e) for e in result.epochs],
        "core_stats": [dataclasses.asdict(c) for c in result.core_stats],
        "task_stats": [dataclasses.asdict(t) for t in result.task_stats],
        "resilience": (
            dataclasses.asdict(result.resilience)
            if result.resilience is not None
            else None
        ),
        "phase_times": [[name, seconds] for name, seconds in result.phase_times],
        "attempts": result.attempts,
        # Emitted only when present: governor-free results (the entire
        # pre-governor corpus) keep their exact dict shape and digest.
        **(
            {"governor": result.governor}
            if result.governor is not None
            else {}
        ),
        # Same only-when-present rule for scenario accounting.
        **(
            {"scenario": result.scenario}
            if result.scenario is not None
            else {}
        ),
    }


def result_from_dict(data: dict) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_dict` output."""
    return RunResult(
        balancer_name=data["balancer_name"],
        platform_name=data["platform_name"],
        duration_s=data["duration_s"],
        instructions=data["instructions"],
        energy_j=data["energy_j"],
        migrations=data["migrations"],
        epochs=tuple(EpochRecord(**e) for e in data["epochs"]),
        core_stats=tuple(CoreStats(**c) for c in data["core_stats"]),
        task_stats=tuple(TaskStats(**t) for t in data["task_stats"]),
        resilience=(
            ResilienceStats(**data["resilience"])
            if data.get("resilience") is not None
            else None
        ),
        phase_times=tuple(
            (str(name), float(seconds))
            for name, seconds in data.get("phase_times") or ()
        ),
        attempts=int(data.get("attempts", 1)),
        governor=data.get("governor"),
        scenario=data.get("scenario"),
    )


def metrics_dict(result: RunResult) -> dict:
    """The simulated metrics of a run, wall-clock overhead excluded.

    Two runs of the same :class:`RunSpec` must agree on this dict
    byte-for-byte regardless of worker count, host load or process
    scheduling; the determinism test suite enforces exactly that.
    """
    data = result_to_dict(result)
    for epoch in data["epochs"]:
        epoch.pop("balancer_time_s", None)
    # Balancer phase times are wall clock too (Fig. 7 overhead data),
    # and the retry attempt count depends on host crashes, not on the
    # simulation.
    data.pop("phase_times", None)
    data.pop("attempts", None)
    return data


def metrics_digest(result: RunResult) -> str:
    """Stable hex digest of :func:`metrics_dict` for byte-identity checks."""
    return stable_hash(metrics_dict(result), length=64)
