"""Steady periods: the memoised CFS period must change nothing.

``SoaKernel.simulate_period`` re-applies the increments of the last
replayable period while its key (structure version, demand version,
period length) holds and no task's slice would sub-step
(``docs/kernel.md``, "Steady periods").  These tests hold that memo to
the full computation: a kernel whose memo never hits must give the
stock kernel's digest on every run family that can invalidate it, and
the stock kernel must actually replay where the periods are steady and
never where they are not.  The mutation that proves a corrupted memo
reaches the digest lives in ``test_soa_mutation.py``.
"""

import pytest

from reference_kernel import NoReplayKernel, kernel_engine, reference_kernel
from repro.hardware.platform import quad_hmp
from repro.kernel.balancers.base import NullBalancer
from repro.kernel.cfs import CACHE_WARMUP_S
from repro.kernel.simulator import SimulationConfig, System
from repro.kernel.soa import SoaKernel
from repro.kernel.task import TaskState
from repro.runner.engine import execute_spec
from repro.runner.serialize import metrics_digest
from repro.runner.spec import RunSpec
from repro.workload.characteristics import COMPUTE_PHASE
from repro.workload.thread import steady_thread


def run(spec, engine_cls=SoaKernel):
    """(digest, replayed periods, periods) of one spec on ``engine_cls``."""
    engines = []

    class Recording(engine_cls):
        def __init__(self, system):
            super().__init__(system)
            engines.append(self)

    with kernel_engine(Recording):
        result = execute_spec(spec)
    (engine,) = engines
    periods = spec.n_epochs * spec.config.periods_per_epoch
    return metrics_digest(result), engine.steady_periods, periods


BIGLITTLE = dict(platform="biglittle", workload="MTMI", threads=4, seed=1)

#: name -> (spec, whether its periods can replay).  Each family moves
#: an input of the period that the memo key or the replay check must
#: catch.
SPECS = {
    # The paper's shape: steady between decisions.
    "quad-smartbalance": (
        RunSpec(platform="quad", workload="MTMI", threads=8,
                balancer="smartbalance", n_epochs=40, seed=100),
        True,
    ),
    # Migration warm-ups decay across periods without a version bump.
    "biglittle-gts": (
        RunSpec(platform="biglittle", workload="MTMI", threads=8,
                balancer="gts", n_epochs=20, seed=100),
        True,
    ),
    # OPP switches change core types mid-run.
    "dvfsquad-two-level": (
        RunSpec(platform="dvfsquad", workload="MTMI", threads=8,
                governor="two_level", n_epochs=10, seed=1),
        True,
    ),
    # Barrier stops move with ``set_barrier_stop``, which bumps no
    # version: only the per-period slice-limit check sees them.
    "barrier": (
        RunSpec(scenario="barrier:groups=1,members=3,intervals=3,"
                "interval_minstr=8", n_epochs=12, **BIGLITTLE),
        True,
    ),
    # Arrivals, exits, hotplug and throttling.
    "openloop-combined-adapt": (
        RunSpec(scenario="openloop", faults="combined", adaptation=True,
                n_epochs=20, **BIGLITTLE),
        True,
    ),
    # Thermal steps and SMT co-runs are never memoised.
    "thermal": (
        RunSpec(platform="quad", workload="MTMI", threads=8, n_epochs=8,
                seed=1, config=SimulationConfig(thermal_enabled=True)),
        False,
    ),
    "smt": (
        RunSpec(scenario="smt:cores=half,corunners=2", n_epochs=8,
                **BIGLITTLE),
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_no_replay_kernel_gives_the_same_digest(name):
    spec, replays = SPECS[name]
    digest, steady, _ = run(spec)
    full_digest, full_steady, _ = run(spec, NoReplayKernel)
    assert full_steady == 0
    assert digest == full_digest
    # The comparison has teeth only where the stock kernel replayed.
    assert (steady > 0) == replays


def test_paper_shape_replays_most_periods():
    """Quad MTMI x 8 under SmartBalance decides once per 60 ms epoch
    and runs steady queues in between: 86% of its periods replay."""
    spec, _ = SPECS["quad-smartbalance"]
    _, steady, periods = run(spec)
    assert steady >= 0.8 * periods


@pytest.mark.parametrize("name", ["thermal", "smt"])
def test_thermal_and_smt_periods_never_replay(name):
    spec, _ = SPECS[name]
    _, steady, periods = run(spec)
    assert periods > 0
    assert steady == 0


def test_exit_mid_warm_up_leaves_no_warm_up():
    """A thread that retires its last instruction before its migration
    warm-up has decayed drops the rest of it: an exited thread never
    runs again, so the periods after its exit replay instead of taking
    the full path for the rest of the run, and the digest stays the
    reference kernel's."""

    def build():
        system = System(
            quad_hmp(),
            [
                steady_thread("short", COMPUTE_PHASE, total_instructions=1e6),
                steady_thread("long", COMPUTE_PHASE),
            ],
            NullBalancer(),
        )
        system.migrate(system.tasks[0], 2)
        return system

    system = build()
    engine = system.engine
    engine.simulate_period(system.config.period_s)
    assert system.tasks[0].state is TaskState.EXITED
    assert engine.total_busy[0] < CACHE_WARMUP_S
    assert engine.warmup[0] == 0.0

    system = build()
    digest = metrics_digest(system.run(n_epochs=1))
    # The exit period is warm and the next one has a new key; every
    # later period replays.
    periods = system.config.periods_per_epoch
    assert system.engine.steady_periods == periods - 2
    with reference_kernel():
        reference = build()
    assert digest == metrics_digest(reference.run(n_epochs=1))
