"""No decision reads the clock.

Algorithm 1's only bound is its iteration cap, so a run's simulated
metrics must not depend on how fast the host is.  Each spec below runs
once as it is and once with ``time.perf_counter`` advancing an hour per
read, as if every timed step of the host took that long; the two
digests must be equal.  The clock reads left in a run are telemetry
(spans, the balancer's wall time per epoch, the adaptation
controller's ``elapsed_s``), which :func:`metrics_digest` leaves out.

The specs are the stock hmp:128 run, the ``two_level`` governor and
openloop with combined faults and adaptation, from
``test_annealer_digests``.

The searches themselves read no clock at all: :func:`anneal` on each of
its paths, and the ``two_level`` search, run to the end with every
clock of the ``time`` module raising.
"""

import itertools
import time

import pytest

from repro.core.annealing import SAConfig, anneal, default_iteration_cap
from repro.governor import strategies
from repro.runner.engine import execute_spec
from repro.runner.serialize import metrics_digest
from test_annealer_digests import SPECS
from test_noop_scan import sparse_problem

#: Seconds the patched clock advances per read.
SKEW_S = 3600.0

#: Every clock the ``time`` module offers.
CLOCKS = [
    f"{name}{suffix}"
    for name in ("time", "monotonic", "perf_counter", "process_time", "thread_time")
    for suffix in ("", "_ns")
]


def stop_clocks(patch):
    """Make every clock of the ``time`` module raise while ``patch``
    is active."""

    def read():
        raise AssertionError("a search read the clock")

    for name in CLOCKS:
        patch.setattr(time, name, read)


@pytest.mark.parametrize(
    "name", ["paper_hmp128", "two_level", "openloop_faults_adaptation"]
)
def test_digest_does_not_depend_on_host_speed(name, monkeypatch):
    spec = SPECS[name]
    normal = metrics_digest(execute_spec(spec))
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: SKEW_S * next(ticks))
    assert metrics_digest(execute_spec(spec)) == normal


@pytest.mark.parametrize(
    "n_cores, n_threads", [(128, 256), (4, 8)], ids=["scan", "loop"]
)
def test_anneal_reads_no_clock(n_cores, n_threads, monkeypatch):
    """The scan over no-op runs (hmp:128 × 256) and the per-move loop
    (dvfsquad's 4 × 8) each run to the cap."""
    objective, allocation = sparse_problem(n_cores, n_threads, seed=4)
    with monkeypatch.context() as patch:
        stop_clocks(patch)
        result = anneal(objective, allocation, SAConfig())
    assert result.iterations == default_iteration_cap(n_cores, n_threads)


def test_two_level_reads_no_clock(monkeypatch):
    """A real epoch's ``two_level`` search, its inner anneals, final
    anneal and screen included, decides the same without a clock."""
    contexts = []

    def capture(ctx):
        contexts.append(ctx)
        return strategies.two_level(ctx)

    monkeypatch.setitem(strategies.STRATEGIES, "two_level", capture)
    execute_spec(SPECS["two_level"])
    ctx = contexts[-1]
    want = strategies.two_level(ctx)
    with monkeypatch.context() as patch:
        stop_clocks(patch)
        got = strategies.two_level(ctx)
    assert (got.changes, got.levels, got.candidates_evaluated) == (
        want.changes,
        want.levels,
        want.candidates_evaluated,
    )
    assert got.sa_result.best_value == want.sa_result.best_value
