"""Only threads that can still run are sensed, placed and migrated.

Linux's ``do_exit`` takes a dead task off its run queue and out of
load tracking, and a thread that has not been forked yet sits on no
CPU.  Two contracts follow, checked across the scenario families that
start and retire threads:

* **Views and placements** — a view lists a thread up to and including
  the window it exits in, never later, so no ``TaskView`` and no
  placement a balancer returns names a thread that had already exited
  when the previous view was built.  Checked for every balancer on
  every family, clean and under the combined fault preset.
* **Hotplug evacuation** — unplugging a core moves only its arrived,
  live threads; a pending thread is re-placed without a migration, an
  exited one is left where it died.  ``RunResult.migrations`` counts
  exactly the migration events.
"""

import pytest

from repro.kernel.simulator import System
from repro.kernel.task import TaskState
from repro.obs import ObsContext
from repro.obs import events as obs_events
from repro.runner.engine import execute_spec
from repro.runner.spec import RunSpec

#: Short scenarios whose threads arrive and exit within a few epochs.
FAMILY_STRINGS = {
    "openloop": "openloop:slo_ms=15,work_minstr=2",
    "barrier": "barrier:groups=1,members=3,intervals=3,interval_minstr=8",
    "smt": "smt:cores=half,corunners=2",
}

#: Each family's scenario-aware variant joins the stock balancers.
VARIANT = {"openloop": "slo", "barrier": "tpeq"}

CASES = [
    (family, balancer, faults)
    for family in FAMILY_STRINGS
    for balancer in ("smartbalance", VARIANT.get(family), "gts", "vanilla", "iks")
    if balancer is not None
    for faults in (None, "combined")
]


def _exited(system) -> "set[int]":
    return {t.tid for t in system.tasks if t.state is TaskState.EXITED}


@pytest.mark.parametrize(
    "family, balancer, faults",
    CASES,
    ids=[f"{f}-{b}-{x or 'clean'}" for f, b, x in CASES],
)
def test_no_view_or_placement_names_a_dead_thread(
    monkeypatch, family, balancer, faults
):
    build_view = System.build_view
    apply_placement = System.apply_placement
    # Tids already exited when the previous view was built.
    state = {"dead": set(), "gone": set(), "views": 0}

    def checked_view(system, window_s):
        view = build_view(system, window_s)
        state["gone"] = state["dead"]
        state["dead"] = _exited(system)
        named = {t.tid for t in view.tasks} & state["gone"]
        assert not named, f"view {view.epoch_index} lists dead tids {named}"
        state["views"] += 1
        return view

    def checked_placement(system, placement):
        named = set(placement) & state["gone"]
        assert not named, f"placement names dead tids {sorted(named)}"
        return apply_placement(system, placement)

    monkeypatch.setattr(System, "build_view", checked_view)
    monkeypatch.setattr(System, "apply_placement", checked_placement)
    execute_spec(
        RunSpec(
            workload="MTMI", platform="biglittle", threads=4,
            balancer=balancer, scenario=FAMILY_STRINGS[family],
            faults=faults, n_epochs=8, seed=1,
        )
    )
    assert state["views"] >= 8
    if family != "smt":
        # Threads did exit, so the check had dead threads to exclude.
        assert state["gone"]


@pytest.mark.parametrize("balancer", ["smartbalance", "vanilla"])
def test_hotplug_moves_only_live_threads(monkeypatch, balancer):
    set_core_online = System._set_core_online
    states_at: "dict[float, dict[int, TaskState]]" = {}

    def recording(system, core_id, online):
        states_at[system.time_s] = {t.tid: t.state for t in system.tasks}
        set_core_online(system, core_id, online)

    monkeypatch.setattr(System, "_set_core_online", recording)
    obs = ObsContext()
    result = execute_spec(
        RunSpec(
            workload="MTMI", platform="biglittle", threads=4,
            balancer=balancer, scenario="openloop", faults="hotplug",
            n_epochs=12, seed=0,
        ),
        obs=obs,
    )
    migrations = [
        e for e in obs.tracer.events if e["type"] == obs_events.MIGRATION
    ]
    hotplug = [e for e in migrations if e["cause"] == "hotplug"]
    assert hotplug, "the unplugged core held no live thread"
    for event in hotplug:
        state = states_at[event["t_s"]][event["tid"]]
        assert state in (TaskState.ACTIVE, TaskState.BLOCKED), (
            f"hotplug migrated tid {event['tid']} while {state.value}"
        )
    assert result.migrations == len(migrations)
