"""The parallel sweep engine.

Experiments decompose into independent :class:`RunSpec` jobs;
:func:`run_specs` executes a batch of them — deduplicated, cached and
(optionally) spread across a ``multiprocessing`` pool — and returns
results in request order.  Determinism is structural: each job seeds
its own simulator from its spec alone and shares no mutable state with
its siblings, so worker count and scheduling order cannot influence
any simulated quantity (the determinism test suite pins this down).

Worker-count resolution: an explicit ``jobs`` argument wins, then the
``REPRO_JOBS`` environment variable, then serial execution.  The same
knob is exposed as ``--jobs`` on the CLI and threaded through the
benchmark harness.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from typing import Callable, Mapping, Optional, Sequence

from repro.kernel.metrics import RunResult
from repro.kernel.simulator import System
from repro.obs.log import get_logger
from repro.runner.cache import ResultCache
from repro.runner.env import JOBS_ENV, resolve_jobs  # noqa: F401 (re-export)
from repro.runner.factories import (
    SMART_BALANCERS,
    make_balancer,
    make_platform,
    make_workload,
)
from repro.runner.spec import RunSpec

_log = get_logger("runner.engine")

#: Default number of *re*-executions after a first failure under
#: ``on_error="retry"`` (so a job runs at most ``1 + DEFAULT_RETRIES``
#: times).
DEFAULT_RETRIES = 2
#: First retry delay; doubles on every subsequent attempt.
RETRY_BASE_DELAY_S = 0.05
RETRY_BACKOFF_FACTOR = 2.0


def retry_delays(
    retries: int,
    base_s: float = RETRY_BASE_DELAY_S,
    factor: float = RETRY_BACKOFF_FACTOR,
) -> "list[float]":
    """The deterministic exponential-backoff schedule for ``retries``
    re-executions: ``[base, base*factor, base*factor**2, ...]``.

    Pure function of its arguments — no jitter — so tests, the sweep
    engine and the job service all agree on the exact waits.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    return [base_s * factor**i for i in range(retries)]


def execute_spec(spec: RunSpec, obs=None) -> RunResult:
    """Run one job: resolve the spec and simulate it to completion.

    ``obs`` is an optional :class:`repro.obs.ObsContext`; when given it
    is threaded through the simulator, balancer and fault injector so
    the run leaves a structured event trace.  Tracing never changes
    simulated results (the no-op suite pins digest identity).
    """
    platform = make_platform(spec.platform)
    workload_seed = spec.workload_seed if spec.workload_seed is not None else spec.seed
    workload = make_workload(spec.workload, spec.threads, workload_seed)
    scenario_rt = None
    if spec.scenario != "none":
        from repro.scenarios import build_scenario

        workload, scenario_rt = build_scenario(
            spec.scenario,
            workload,
            seed=workload_seed,
            period_s=spec.config.period_s,
            periods_per_epoch=spec.config.periods_per_epoch,
            n_epochs=spec.n_epochs,
        )
    balancer = make_balancer(
        spec.balancer,
        mitigations=spec.mitigations,
        adaptation=spec.adaptation,
        governor=spec.governor,
    )
    plan = None
    if spec.faults is not None:
        from repro.faults import scenario

        fault_seed = spec.fault_seed if spec.fault_seed is not None else spec.seed
        plan = scenario(
            spec.faults,
            seed=fault_seed,
            n_cores=len(platform),
            duration_s=spec.n_epochs * spec.config.epoch_s,
        )
    config = dataclasses.replace(spec.config, seed=spec.seed, faults=plan)
    system = System(
        platform, workload, balancer, config, obs=obs, scenario=scenario_rt
    )
    return system.run(n_epochs=spec.n_epochs)


def _warm_shared_state() -> None:
    """Load the shipped default predictor once per process.

    Called in the parent before the pool forks (so fork-start workers
    inherit the cached model for free) and again in each worker's
    initializer (a no-op under fork, one small JSON read under spawn).
    """
    from repro.core.training import default_predictor

    default_predictor()


@dataclasses.dataclass(frozen=True)
class _JobError:
    """A job that raised, carried back to the parent for disposition."""

    label: str
    error: str


def _execute_indexed(
    item: "tuple[int, RunSpec] | tuple[int, RunSpec, str | None]",
) -> "tuple[int, object]":
    index, spec = item[0], item[1]
    trace_dir = item[2] if len(item) > 2 else None
    try:
        if trace_dir is None:
            return index, execute_spec(spec)
        return index, _execute_traced(spec, trace_dir)
    except Exception as exc:  # disposed of via on_error
        return index, _JobError(label=spec.label(), error=f"{type(exc).__name__}: {exc}")


def _execute_traced(spec: RunSpec, trace_dir: str) -> RunResult:
    """Run one job with tracing on and drop its artefacts in
    ``trace_dir``: ``<spec_key>.jsonl`` (event stream) and
    ``<spec_key>.metrics.json`` (deterministic metrics snapshot).

    Written worker-side because tracer buffers cannot cross the
    process boundary; file names are spec-keyed, so the artefact set
    is identical whatever the worker count.
    """
    import json

    from repro.obs import ObsContext, write_jsonl

    obs = ObsContext()
    result = execute_spec(spec, obs=obs)
    key = spec.spec_key()
    os.makedirs(trace_dir, exist_ok=True)
    write_jsonl(obs.tracer.events, os.path.join(trace_dir, f"{key}.jsonl"))
    with open(os.path.join(trace_dir, f"{key}.metrics.json"), "w") as handle:
        json.dump(
            obs.metrics.deterministic_snapshot(), handle, indent=2, sort_keys=True
        )
    return result


def _retry_job(
    spec: RunSpec,
    first_error: _JobError,
    trace_dir: Optional[str],
    retries: int,
) -> RunResult:
    """Re-execute a failed job with exponential backoff.

    Runs serially in the parent (crashes are rare, so the lost
    parallelism is negligible) and returns the recovered result with
    its ``attempts`` count stamped in; raises ``RuntimeError`` once the
    attempt budget is exhausted.
    """
    error = first_error
    attempt = 1
    for delay in retry_delays(retries):
        _log.warning(
            "job %s failed on attempt %d (%s); retrying in %.3fs",
            spec.label(), attempt, error.error, delay,
        )
        time.sleep(delay)
        attempt += 1
        outcome = _execute_indexed((0, spec, trace_dir))[1]
        if not isinstance(outcome, _JobError):
            return dataclasses.replace(outcome, attempts=attempt)
        error = outcome
    raise RuntimeError(
        f"job {error.label} failed after {attempt} attempt(s): {error.error}"
    )


def run_specs(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    base_seed: Optional[int] = None,
    on_error: str = "raise",
    trace_dir: Optional[str] = None,
    retries: int = DEFAULT_RETRIES,
) -> "list[RunResult]":
    """Execute a batch of jobs; results come back in request order.

    * ``jobs`` — worker processes (see :func:`resolve_jobs`).
    * ``cache`` — optional :class:`ResultCache`; hits skip execution,
      fresh results are persisted.
    * ``base_seed`` — when given, every spec is re-seeded as
      ``hash(base_seed, spec)`` before execution (replicated sweeps).
    * ``on_error`` — ``"raise"`` propagates a worker crash;
      ``"none"`` logs it and maps the crashed job's result to ``None``
      (:func:`run_sweep` uses it to hand crashes to crash-tolerant
      experiments such as resilience, where an unmitigated run is
      *allowed* to die and scores zero retention); ``"retry"``
      re-executes a failed job up to ``retries`` more times with
      deterministic exponential backoff (:func:`retry_delays`) before
      giving up with the usual ``RuntimeError``.  The attempt count of
      every job is reported in ``RunResult.attempts``.
    * ``trace_dir`` — when given, every executed job runs with
      observability on and writes ``<spec_key>.jsonl`` +
      ``<spec_key>.metrics.json`` into the directory (worker-side, so
      it works across the pool).  Tracing changes no simulated result.
      The cache is bypassed while tracing — a cache hit would produce
      no trace, and a traced batch is asking for traces.

    Identical specs are executed once and fanned back out to every
    requesting position.
    """
    if on_error not in ("raise", "none", "retry"):
        raise ValueError(
            f"on_error must be 'raise', 'none' or 'retry', got {on_error!r}"
        )
    if trace_dir is not None:
        cache = None
    ordered = list(specs)
    if base_seed is not None:
        ordered = [spec.with_derived_seed(base_seed) for spec in ordered]
    jobs = resolve_jobs(jobs)

    results: "dict[int, RunResult]" = {}
    # Deduplicate: first position of each distinct spec runs, the rest
    # share its result.
    first_position: "dict[RunSpec, int]" = {}
    duplicates: "dict[int, int]" = {}
    pending: "list[tuple[int, RunSpec, Optional[str]]]" = []
    for index, spec in enumerate(ordered):
        if spec in first_position:
            duplicates[index] = first_position[spec]
            continue
        first_position[spec] = index
        if cache is not None:
            hit = cache.get(spec)
            if hit is not None:
                results[index] = hit
                continue
        pending.append((index, spec, trace_dir))

    if pending:
        needs_predictor = any(s.balancer in SMART_BALANCERS for _, s, _ in pending)
        if jobs > 1 and len(pending) > 1:
            if needs_predictor:
                _warm_shared_state()
            with multiprocessing.Pool(
                processes=min(jobs, len(pending)),
                initializer=_warm_shared_state if needs_predictor else None,
            ) as pool:
                for index, result in pool.imap_unordered(
                    _execute_indexed, pending, chunksize=1
                ):
                    results[index] = result
        else:
            for item in pending:
                results[item[0]] = _execute_indexed(item)[1]
        for index, spec, _ in pending:
            outcome = results[index]
            if isinstance(outcome, _JobError):
                if on_error == "raise":
                    raise RuntimeError(
                        f"job {outcome.label} failed: {outcome.error}"
                    )
                if on_error == "retry":
                    recovered = _retry_job(spec, outcome, trace_dir, retries)
                    results[index] = recovered
                    if cache is not None:
                        cache.put(spec, recovered)
                    continue
                _log.warning("job %s failed: %s", outcome.label, outcome.error)
                results[index] = None
            elif cache is not None:
                cache.put(spec, outcome)

    for index, source in duplicates.items():
        results[index] = results[source]
    return [results[index] for index in range(len(ordered))]


def run_spec(
    spec: RunSpec,
    cache: Optional[ResultCache] = None,
) -> RunResult:
    """Convenience wrapper: one job, serial, optionally cached."""
    return run_specs([spec], jobs=1, cache=cache)[0]


@dataclasses.dataclass(frozen=True)
class SweepExperiment:
    """One experiment: the jobs it needs and the report it builds.

    ``specs(scale)`` enumerates the jobs (possibly none, for an
    experiment that computes everything in ``build``);
    ``build(scale, results)`` assembles the report from a
    ``RunSpec -> RunResult`` mapping.  Keeping the two sides pure lets
    :func:`run_sweep` union jobs from several experiments into one pool
    and share duplicated runs between them.
    """

    experiment_id: str
    specs: Callable[..., Sequence[RunSpec]]
    build: Callable[..., object]
    #: A job of this experiment that crashes reaches ``build`` as
    #: ``None`` instead of failing the sweep.
    tolerate_crashes: bool = False


def run_sweep(
    experiments: Sequence[SweepExperiment],
    scale,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    base_seed: Optional[int] = None,
    trace_dir: Optional[str] = None,
) -> "list[object]":
    """Run several experiments' jobs through one shared pool.

    Returns one built report per experiment, in input order.  ``jobs``,
    ``cache``, ``base_seed`` and ``trace_dir`` are forwarded to
    :func:`run_specs`.  A crashed job raises ``RuntimeError`` unless
    every experiment that lists it tolerates crashes.
    """
    per_experiment: "list[list[RunSpec]]" = [
        list(experiment.specs(scale)) for experiment in experiments
    ]
    union: "list[RunSpec]" = []
    seen: "set[RunSpec]" = set()
    for spec_list in per_experiment:
        for spec in spec_list:
            if spec not in seen:
                seen.add(spec)
                union.append(spec)
    results = run_specs(
        union, jobs=jobs, cache=cache, base_seed=base_seed,
        on_error="none", trace_dir=trace_dir,
    )
    # run_specs returns results positionally for the specs it was
    # handed, so builders can look up by the identities they emitted
    # even when the engine re-seeded the actual runs.
    table: Mapping[RunSpec, RunResult] = dict(zip(union, results))
    for experiment, spec_list in zip(experiments, per_experiment):
        if experiment.tolerate_crashes:
            continue
        for spec in spec_list:
            if table[spec] is None:
                raise RuntimeError(
                    f"job {spec.label()} of experiment "
                    f"{experiment.experiment_id!r} failed"
                )
    return [experiment.build(scale, table) for experiment in experiments]
