"""End-to-end benchmark of the simulator: host speed and simulated J_E.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload paper-hmp128 --seed 1 --seconds 20 --trace 0

Runs full ``RunSpec`` jobs through ``repro.runner.execute_spec``,
serially, in closed loop (a run starts when the previous one ends).
Set-up is measured in fresh interpreters: several ``setup`` processes
plus the ``measure`` process each report the time from their launch to
the first ``System.run``, and the median is ``setup_s``.  Host times
are scaled by the host speed a calibration loop measures next to them
(``worker.calibrate``).

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer split with ``--trace 1``.  Lines before it
give the metrics by name and unit, the per-spec digests and the host
metadata.  Exits non-zero without a result when the package cannot be
set up.  Workloads and metrics are described in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

#: Fresh ``setup`` processes per invocation (the ``measure`` process
#: adds one more ``setup_s`` sample).
SETUP_PROCESSES = 6
#: Hard wall-clock limit of one invocation, children included.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "epochs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ips_per_watt": "instr/J",
}
LAYER_UNITS = {
    "runner.predictor_train_s": "s",
    "runner.build_s": "s",
    "kernel.period_s": "s",
    "kernel.periods": "count",
    "kernel.us_per_task_period": "us",
    "kernel.apply_placement_s": "s",
    "kernel.migrations": "count",
    "kernel.loop_other_s": "s",
    "sensing.build_view_s": "s",
    "sensing.views": "count",
    "sensing.task_views": "count",
    "sensing.us_per_task_view": "us",
    "core.rebalance_s": "s",
    "core.sense_s": "s",
    "core.predict_s": "s",
    "core.balance_s": "s",
    "predict.matrix_build_s": "s",
    "annealer.anneal_s": "s",
    "annealer.runs": "count",
    "annealer.iterations": "count",
    "annealer.us_per_iteration": "us",
    "annealer.accept_ratio": "frac",
    "annealer.adopted_frac": "frac",
    "governor.search_s": "s",
    "governor.candidates_evaluated": "count",
    "governor.candidates_per_epoch": "count",
    "governor.inner_anneals": "count",
    "governor.opp_changes": "count",
    "adaptation.observe_s": "s",
    "adaptation.model_updates": "count",
    "faults.injected": "count",
    "faults.samples_rejected": "count",
    "faults.fallback_rows_used": "count",
    "scenario.on_period_s": "s",
    "scenario.task_extras_s": "s",
    "scenario.requests": "count",
    "scenario.slo_miss_rate": "frac",
    "scenario.latency_p99_ms": "ms",
    "trace.overhead_frac": "frac",
    "trace.residual_frac": "frac",
}


class SetupError(RuntimeError):
    """The package could not be imported, trained or built."""


def _child(args: "list[str]", started: float) -> dict:
    """Run one worker process to completion; return its JSON result."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    budget = DEADLINE_S - (time.monotonic() - started)
    if budget <= 0:
        raise SetupError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=budget,
        )
    except subprocess.TimeoutExpired as exc:
        raise SetupError(f"worker {args[0]} timed out") from exc
    if proc.returncode != 0:
        raise SetupError(
            f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise SetupError(f"no package source under {os.path.join(ROOT, 'src')}")
    common = ["--workload", workload, "--seed", str(seed)]
    setup_s = []
    train_s = []

    def timed(role_args: "list[str]") -> dict:
        launched = time.monotonic()
        out = _child(role_args, started)
        setup_s.append((out["first_run_monotonic"] - launched) * out["speed"])
        train_s.append(out["predictor_train_s"])
        return out

    # Set-up samples on both sides of the measurement, so one burst of
    # host contention cannot cover all of them.
    half = SETUP_PROCESSES // 2
    for _ in range(half):
        timed(["setup", *common])
    out = timed(
        ["measure", *common, "--seconds", str(seconds), "--trace", str(int(trace))]
    )
    for _ in range(SETUP_PROCESSES - half):
        timed(["setup", *common])
    out["setup_s"] = statistics.median(setup_s)
    if trace:
        out["layers"]["runner.predictor_train_s"] = statistics.median(train_s)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end RunSpec benchmark (see NOTES.md)."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"e2ebench: set-up failed: {exc}", file=sys.stderr)
        return 2

    attempted = out["attempted"]
    failed = out["failed"]
    for error in out["errors"]:
        print(f"e2ebench: failed run: {error}", file=sys.stderr)
    if args.trace:
        units = LAYER_UNITS
        values = out["layers"]
    else:
        units = END_TO_END_UNITS
        values = {name: out[name] for name in units}
    print("meta " + json.dumps(out["meta"], sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed}: {attempted} run(s), "
        f"{out['timed_runs']} timed in {out['measured_s']:.1f} s"
    )
    print(f"failed_run_frac {failed / attempted:.6g}")
    print(
        f"host_speed {out['host_speed']:.4g} (host times are scaled by it); "
        f"unscaled epochs_per_s {out['raw_epochs_per_s']:.6g}"
    )
    print("digests " + " ".join(d[:16] if d else "-" for d in out["digests"]))
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
