"""One benchmark process: set up, warm up, run a workload, check it.

Started by ``run.py`` as a fresh interpreter (so import and predictor
training are paid inside the measured set-up), with ``src`` on
``PYTHONPATH``.  Prints one JSON object on its last stdout line.

Roles:

``setup``
    Import, train the default predictor and build the first spec's
    ``System``; stop at the entry of ``System.run`` and report the
    monotonic clock there.
``measure``
    The same set-up, then one discarded warm-up run, then closed-loop
    runs of every seeded instance, round robin, for ``--seconds``.
    With ``--trace 1`` each untraced run is followed by a traced run of
    the same spec (:class:`layers.LayerTrace`).

Every run's result is checked (:func:`check_result`); a run that raises
or fails a check counts as failed.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: a default-sized pool
# competes with the single-threaded simulator for the host's cores.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import WORKLOADS  # noqa: E402

#: Relative tolerance of the conservation checks.
REL_TOL = 1e-9
#: :func:`calibrate`'s duration on the reference host: the 2-vCPU Xeon
#: VM of ``NOTES.md`` in its fast phases.
CAL_REF_S = 0.015


class _StopAtRun(Exception):
    """Raised at ``System.run`` entry by the ``setup`` role."""


class RunClock:
    """Times every ``System.run`` (the untraced end-to-end measurement)."""

    def __init__(self, system_cls, stop_at_first: bool) -> None:
        self.first_entry_monotonic: "float | None" = None
        self.last_wall_s = 0.0
        original = system_cls.run
        clock = self

        def run(system, *args, **kwargs):
            if clock.first_entry_monotonic is None:
                clock.first_entry_monotonic = time.monotonic()
                if stop_at_first:
                    raise _StopAtRun
            t0 = time.perf_counter()
            result = original(system, *args, **kwargs)
            clock.last_wall_s = time.perf_counter() - t0
            return result

        system_cls.run = run


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_result(result, spec) -> "list[str]":
    """Physical invariants every run must satisfy; returns violations."""
    problems = []
    epochs = result.epochs
    if len(epochs) != spec.n_epochs:
        problems.append(f"{len(epochs)} epochs, expected {spec.n_epochs}")
    if _rel(sum(e.instructions for e in epochs), result.instructions) > REL_TOL:
        problems.append("sum of epoch instructions != run instructions")
    if _rel(sum(e.energy_j for e in epochs), result.energy_j) > REL_TOL:
        problems.append("sum of epoch energy != run energy")
    if _rel(sum(c.energy_j for c in result.core_stats), result.energy_j) > REL_TOL:
        problems.append("sum of core_stats energy != run energy")
    if result.degenerate_epochs:
        problems.append(f"{result.degenerate_epochs} degenerate epoch(s)")
    if _rel(result.duration_s, spec.n_epochs * spec.config.epoch_s) > REL_TOL:
        problems.append("simulated duration != epochs x epoch_s")
    if not result.ips_per_watt > 0:
        problems.append("non-positive ips_per_watt")
    return problems


def host_metadata() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {var: os.environ[var] for var in THREAD_PINS},
    }


class Session:
    """The seeded specs of one invocation and their checked runs."""

    def __init__(self, workload, seed: int) -> None:
        from repro.runner.engine import execute_spec
        from repro.runner.serialize import metrics_digest
        from repro.runner.spec import RunSpec

        self.execute_spec = execute_spec
        self.metrics_digest = metrics_digest
        self.specs = [
            RunSpec(n_epochs=workload.n_epochs, seed=s, **workload.spec)
            for s in workload.seeds(seed)
        ]
        self.digests: "list[str | None]" = [None] * len(self.specs)
        self.results: "list[object]" = [None] * len(self.specs)
        self.attempted = 0
        self.failed = 0
        self.errors: "list[str]" = []

    def run(self, index: int, clock: RunClock, trace=None):
        """One checked run; returns ``(result, build_s, run_s)`` or None."""
        spec = self.specs[index]
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            if trace is None:
                result = self.execute_spec(spec)
            else:
                with trace:
                    result = self.execute_spec(spec)
            total = time.perf_counter() - t0
            problems = check_result(result, spec)
            digest = self.metrics_digest(result)
        except Exception:  # a crashed run is a failed run, not a crash
            self.failed += 1
            self.errors.append(f"{spec.label()}: {traceback.format_exc()}")
            return None
        if self.digests[index] is None:
            self.digests[index] = digest
            self.results[index] = result
        elif digest != self.digests[index]:
            problems.append(
                f"digest {digest[:16]} != first run's {self.digests[index][:16]}"
            )
        if problems:
            self.failed += 1
            self.errors.append(f"{spec.label()}: " + "; ".join(problems))
            return None
        run_s = clock.last_wall_s
        return result, total - run_s, run_s


def calibrate() -> float:
    """Seconds a fixed CPU-bound Python + numpy loop takes right now.

    The host this benchmark was tuned on drifts by up to 2x in speed
    over minutes (neighbours on shared cores; it shows in CPU time, not
    as steal).  A small interpreter-and-small-array loop slows down by
    the same factor, so every host time below is scaled by
    ``CAL_REF_S / calibrate()`` measured next to it: reported times
    are seconds on a host where this loop takes ``CAL_REF_S``.
    """
    rng = random.Random(1)
    table: "dict[int, float]" = {}
    weights = np.linspace(0.0, 1.0, 300)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(12000):
        x = rng.random()
        table[i & 4095] = x
        acc += x * table.get((i * 7) & 4095, 0.0)
        if i % 8 == 0:
            acc += float(np.cumsum(weights * x)[-1])
            np.add.at(weights, [1, 2, 3], 0.0)
    return time.perf_counter() - t0


def _setup(workload, seed: int, stop_at_first: bool):
    """Import, train, install the run clock; returns the pieces."""
    from repro.core.training import default_predictor
    from repro.kernel.simulator import System

    clock = RunClock(System, stop_at_first)
    t0 = time.perf_counter()
    default_predictor()
    train_s = time.perf_counter() - t0
    return clock, train_s, Session(workload, seed)


def role_setup(workload, seed: int) -> dict:
    clock, train_s, session = _setup(workload, seed, stop_at_first=True)
    try:
        session.execute_spec(session.specs[0])
    except _StopAtRun:
        pass
    speed = CAL_REF_S / calibrate()
    return {
        "first_run_monotonic": clock.first_entry_monotonic,
        "speed": speed,
        "predictor_train_s": train_s * speed,
    }


def _median(values: "list[float]") -> float:
    return statistics.median(values) if values else 0.0


def role_measure(workload, seed: int, seconds: float, traced: bool) -> dict:
    clock, train_s, session = _setup(workload, seed, stop_at_first=False)
    # Warm-up: one discarded (but checked) run before any timed run.
    session.run(0, clock)
    first_entry = clock.first_entry_monotonic
    if traced:
        from layers import LayerTrace

    n = len(session.specs)
    rates: "list[float]" = []
    raw_rates: "list[float]" = []
    speeds: "list[float]" = []
    build_s: "list[float]" = []
    layer_runs: "list[dict]" = []
    overheads: "list[float]" = []
    peak_rss_mb = 0.0
    runs = 0
    cal_before = calibrate()
    setup_speed = CAL_REF_S / cal_before
    start = time.perf_counter()
    deadline = start + seconds
    # Round robin over the seeded specs until the time is up, but at
    # least once through all of them (the J_E figure needs every spec).
    while runs < n or time.perf_counter() < deadline:
        index = runs % n
        spec = session.specs[index]
        out = session.run(index, clock)
        traced_out = trace = None
        if out is not None and traced:
            trace = LayerTrace()
            traced_out = session.run(index, clock, trace)
        cal_after = calibrate()
        speed = 2.0 * CAL_REF_S / (cal_before + cal_after)
        cal_before = cal_after
        if out is not None:
            speeds.append(speed)
            raw_rates.append(spec.n_epochs / out[2])
            rates.append(spec.n_epochs / (out[2] * speed))
            build_s.append(out[1] * speed)
        if traced_out is not None:
            layer_runs.append(run_layers(trace, traced_out[0], speed))
            overheads.append(traced_out[2] / out[2] - 1.0)
        runs += 1
        if runs == n:
            # Peak RSS over set-up, warm-up and one run of every spec:
            # a fixed amount of work, so host speed cannot move it.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured_s = time.perf_counter() - start

    results = [r for r in session.results if r is not None]
    instructions = sum(r.instructions for r in results)
    energy = sum(r.energy_j for r in results)
    out = {
        "first_run_monotonic": first_entry,
        "speed": setup_speed,
        "predictor_train_s": train_s * setup_speed,
        "attempted": session.attempted,
        "failed": session.failed,
        "errors": session.errors[:5],
        "digests": session.digests,
        "timed_runs": len(rates),
        "measured_s": measured_s,
        # Medians over runs: bursts of host contention hit a minority
        # of runs and leave the median alone.
        "epochs_per_s": _median(rates),
        "raw_epochs_per_s": _median(raw_rates),
        "host_speed": _median(speeds),
        "ips_per_watt": instructions / energy if energy > 0 else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "meta": host_metadata(),
    }
    if traced:
        layers = {
            name: _median([run[name] for run in layer_runs])
            for name in (layer_runs[0] if layer_runs else {})
        }
        layers["runner.predictor_train_s"] = out["predictor_train_s"]
        layers["runner.build_s"] = _median(build_s)
        layers["trace.overhead_frac"] = _median(overheads)
        out["layers"] = layers
    return out


def run_layers(trace, result, speed: float) -> dict:
    """Per-layer metrics of one traced run; host times scaled by ``speed``."""
    self_s = defaultdict(float, {k: t * speed for k, t in trace.self_s.items()})
    calls = trace.calls
    counts = trace.counts

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den > 0 else 0.0

    phases = {name: t * speed for name, t in result.phase_times}
    resilience = result.resilience
    scenario = result.scenario or {}
    governor = result.governor or {}

    def health(attr: str) -> int:
        return getattr(resilience, attr) if resilience is not None else 0

    anneals = calls["annealer.anneal"]
    loop_other = self_s["kernel.run"]
    return {
        "kernel.period_s": self_s["kernel.period"],
        "kernel.periods": calls["kernel.period"],
        "kernel.us_per_task_period": ratio(
            self_s["kernel.period"], counts["kernel.task_periods"], 1e6
        ),
        "kernel.apply_placement_s": self_s["kernel.apply_placement"],
        "kernel.migrations": result.migrations,
        "kernel.loop_other_s": loop_other,
        "sensing.build_view_s": self_s["sensing.build_view"],
        "sensing.views": counts["sensing.views"],
        "sensing.task_views": counts["sensing.task_views"],
        "sensing.us_per_task_view": ratio(
            self_s["sensing.build_view"], counts["sensing.task_views"], 1e6
        ),
        "core.rebalance_s": self_s["core.rebalance"],
        "core.sense_s": phases.get("sense", 0.0),
        "core.predict_s": phases.get("predict", 0.0),
        "core.balance_s": phases.get("balance", 0.0),
        "predict.matrix_build_s": self_s["predict.matrix_build"],
        "annealer.anneal_s": self_s["annealer.anneal"],
        "annealer.runs": anneals,
        "annealer.iterations": counts["annealer.iterations"],
        "annealer.us_per_iteration": ratio(
            self_s["annealer.anneal"], counts["annealer.iterations"], 1e6
        ),
        "annealer.accept_ratio": ratio(
            counts["annealer.accepted"], counts["annealer.iterations"]
        ),
        "annealer.adopted_frac": ratio(counts["annealer.adopted"], anneals),
        "governor.search_s": self_s["governor.search"],
        "governor.candidates_evaluated": counts["governor.candidates_evaluated"],
        "governor.candidates_per_epoch": ratio(
            counts["governor.candidates_evaluated"], calls["governor.search"]
        ),
        "governor.inner_anneals": counts["governor.inner_anneals"],
        "governor.opp_changes": governor.get("opp_changes", 0),
        "adaptation.observe_s": self_s["adaptation.observe"],
        "adaptation.model_updates": health("model_updates"),
        "faults.injected": health("faults_injected"),
        "faults.samples_rejected": health("samples_rejected"),
        "faults.fallback_rows_used": health("fallback_rows_used"),
        "scenario.on_period_s": self_s["scenario.on_period"],
        "scenario.task_extras_s": self_s["scenario.task_extras"],
        "scenario.requests": scenario.get("requests", 0),
        "scenario.slo_miss_rate": scenario.get("slo_miss_rate", 0.0),
        "scenario.latency_p99_ms": (scenario.get("latency_p99_s") or 0.0) * 1e3,
        "trace.residual_frac": ratio(trace.self_s["kernel.run"], trace.run_wall_s),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.role == "setup":
        out = role_setup(workload, args.seed)
    else:
        out = role_measure(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
