"""Differential equivalence: batched sensing vs the scalar oracle.

``System.build_view`` reads a sensing window in one batch: one mask
over the counter and power arrays fixes which slots take a noise draw
and in what order, one ``gauss`` call per masked slot, numpy for the
clip, the cycle-total repair, the power floor and the derived rates,
then one per-owner fault pass.  ``reference_sensing.py`` (the test
oracle) reads the same window one owner at a time, the way the scalar
code always did.  The batch promises bit identity with it.

Every spec below runs with ``System.build_view`` wrapped: at every view
the oracle builds the view first, the sensing and fault-injector state
is rewound, and the batched view is built from the same state.  The two
views must be equal field for field (``==`` and ``repr``, so an int
``0`` for a float ``0.0`` counts as a difference; the PMU blocks by
dtype, shape and bytes, see ``sensed_tasks.comparable``), and they must
leave the sensing RNG, both fault-injector RNGs, the stuck-at latch
table and the injection counts in the same state.  A view carries no
counter readings, so the sense phase's measured rule (busy time and a
positive ``ips`` in the PMU block, ``gather_tasks``' mask) is also held
to the rule it stands for: busy time and a positive instruction count
in the oracle's noisy reading.

The sensed specs run SmartBalance or a variant.  SmartBalance at
``periods_per_epoch=1`` reads a view every period, as the kernel
baselines call their balancer, so stuck-at latches are re-read each
period.  The baselines (vanilla, GTS, IKS) read no sensors: their views
must match the oracle's and leave every one of those states untouched.
"""

from dataclasses import replace

import pytest

import reference_sensing
from repro.core.sensing import gather_tasks
from repro.faults import SCENARIOS
from repro.hardware.sensors import IDEAL_NOISE, NoiseModel
from repro.kernel.simulator import SimulationConfig, System
from repro.kernel.task import TaskState
from repro.kernel.view import PMU_COLUMNS
from repro.runner.engine import execute_spec
from repro.runner.spec import RunSpec
from sensed_tasks import comparable


def _state(system):
    """Everything a view may consume: RNG streams, latches, tallies."""
    state = [system.sensing._rng.getstate()]
    faults = system.faults
    if faults is not None:
        state += [
            faults._sensor_rng.getstate(),
            faults._migration_rng.getstate(),
            dict(faults._stuck),
            replace(faults.counts),
        ]
    return state


def _restore(system, state) -> None:
    system.sensing._rng.setstate(state[0])
    faults = system.faults
    if faults is not None:
        faults._sensor_rng.setstate(state[1])
        faults._migration_rng.setstate(state[2])
        faults._stuck = dict(state[3])
        faults.counts = replace(state[4])


def run_checked(monkeypatch, spec, sensed=True):
    """Run ``spec`` with every view checked; returns one record per view:
    (tids in the view, number of pending tasks, tids of exited tasks,
    number of tasks that ran but read no instructions).  An unsensed
    view must leave the sensing and fault state as it was."""
    batched = System.build_view
    records = []

    def build_view(system, window_s):
        assert system.balancer.reads_sensors is sensed
        before = _state(system)
        noisy = {}
        expected = reference_sensing.build_view(system, window_s, noisy)
        expected_state = _state(system)
        _restore(system, before)
        view = batched(system, window_s)
        assert comparable(view) == comparable(expected)
        assert _state(system) == expected_state
        if sensed:
            assert view.pmu.dtype == float
            assert view.pmu.shape == (len(view.tasks), len(PMU_COLUMNS))
            with pytest.raises(ValueError):
                view.pmu[:1] = 0.0
        else:
            assert view.pmu is None
            assert expected_state == before and not noisy
        users = gather_tasks(view)
        ran_dark = 0
        for task, measured in zip(users.records, users.measured.tolist()):
            block = noisy.get(task.tid)
            ran = task.busy_time_s > 0
            retired = block is not None and block.instructions > 0
            assert measured == (ran and retired), task
            ran_dark += ran and block is not None and not retired
        states = [t.state for t in system.tasks]
        records.append(
            (
                {t.tid for t in view.tasks},
                states.count(TaskState.PENDING),
                {t.tid for t in system.tasks if t.state is TaskState.EXITED},
                ran_dark,
            )
        )
        return view

    monkeypatch.setattr(System, "build_view", build_view)
    execute_spec(spec)
    assert records, "no view was built"
    return records


def spec(**kwargs):
    base = dict(workload="MTMI", platform="quad", threads=6, n_epochs=3, seed=3)
    base.update(kwargs)
    return RunSpec(**base)


NOISE_SPECS = {
    "ideal_counters": spec(config=SimulationConfig(counter_noise=IDEAL_NOISE)),
    "ideal_power": spec(config=SimulationConfig(power_noise=IDEAL_NOISE)),
    "ideal_both": spec(
        config=SimulationConfig(counter_noise=IDEAL_NOISE, power_noise=IDEAL_NOISE)
    ),
    # Wide sigmas so both clips bind often, at different bounds.
    "unequal_clips": spec(
        n_epochs=30,
        config=SimulationConfig(
            counter_noise=NoiseModel(sigma=0.4, clip=0.1),
            power_noise=NoiseModel(sigma=0.3, clip=0.6),
            periods_per_epoch=1,
        ),
    ),
    "os_noise_tasks": spec(config=SimulationConfig(os_noise_tasks=4)),
    "thermal": spec(
        platform="biglittle", config=SimulationConfig(thermal_enabled=True)
    ),
    "two_level": spec(platform="dvfsquad", threads=8, governor="two_level"),
    "tpeq_barrier": spec(
        platform="biglittle", threads=4, balancer="tpeq", scenario="barrier",
        n_epochs=6,
    ),
    "slo_openloop": spec(
        platform="biglittle", threads=4, balancer="slo", scenario="openloop",
        n_epochs=6,
    ),
    "hmp128": spec(
        platform="hmp:128", threads=256, n_epochs=10,
        config=SimulationConfig(periods_per_epoch=1),
    ),
}


@pytest.mark.parametrize("name", sorted(NOISE_SPECS))
def test_batched_view_matches_oracle(monkeypatch, name):
    run_checked(monkeypatch, NOISE_SPECS[name])


@pytest.mark.parametrize("preset", SCENARIOS)
def test_fault_presets_match_oracle(monkeypatch, preset):
    """A view every period, so stuck-at latches are re-read.  Under
    sensor faults a dropout zeroes the instruction register of a task
    that ran, which the measured mask must report as no measurement."""
    records = run_checked(
        monkeypatch,
        spec(
            platform="biglittle", faults=preset, n_epochs=40,
            config=SimulationConfig(periods_per_epoch=1),
        ),
    )
    if preset in ("sensor", "combined"):
        assert sum(ran_dark for *_, ran_dark in records) > 0


@pytest.mark.parametrize("preset", (None,) + SCENARIOS)
@pytest.mark.parametrize("balancer", ["vanilla", "gts", "iks"])
def test_baselines_take_no_sensor_read(monkeypatch, balancer, preset):
    """A baseline's view carries only the OS part: no draw from the
    sensing or fault RNGs, no latch, no injection."""
    records = run_checked(
        monkeypatch,
        spec(platform="biglittle", balancer=balancer, faults=preset, n_epochs=4),
        sensed=False,
    )
    assert len(records) == 40


def test_faults_with_defences_and_adaptation_match_oracle(monkeypatch):
    run_checked(
        monkeypatch,
        spec(
            platform="biglittle", threads=4, scenario="openloop",
            faults="combined", adaptation=True, n_epochs=8,
        ),
    )


def test_openloop_pending_and_exited_tasks(monkeypatch):
    """Pending threads are left out of the view, a thread that exited
    inside the window is in it once more, and one that had exited by
    the previous view is gone; all of it must keep the draw order."""
    records = run_checked(
        monkeypatch,
        spec(platform="biglittle", threads=4, scenario="openloop", n_epochs=8),
    )
    assert any(pending > 0 for _, pending, _, _ in records)
    dead_before = set()
    final_views = 0
    for tids, _, exited, _ in records:
        assert not tids & dead_before
        final_views += len(tids & (exited - dead_before))
        dead_before = exited
    assert final_views > 0
