"""Tests for the SystemView observable boundary."""

from dataclasses import FrozenInstanceError, asdict, astuple, dataclass, replace

import pytest

from repro.hardware.counters import DerivedRates
from repro.hardware.platform import big_little_octa, quad_hmp
from repro.kernel.balancers.base import NullBalancer
from repro.kernel.simulator import SimulationConfig, System
from repro.kernel.view import CoreView, TaskView, new_record
from repro.runner.engine import execute_spec
from repro.runner.spec import RunSpec
from repro.scenarios.runtime import ScenarioRuntime
from repro.workload.synthetic import imb_threads


def view_for(platform=None, n_threads=4, os_tasks=0):
    system = System(
        platform or quad_hmp(),
        imb_threads("MTMI", n_threads),
        NullBalancer(),
        SimulationConfig(os_noise_tasks=os_tasks),
    )
    system.run(n_epochs=2)
    return system.build_view(window_s=0.12)


class TestSystemViewHelpers:
    def test_user_tasks_filter(self):
        view = view_for(os_tasks=3)
        assert len(view.tasks) == 7
        assert len(view.user_tasks) == 4
        assert all(t.is_user for t in view.user_tasks)

    def test_tasks_on_core(self):
        view = view_for(n_threads=8)
        for core_id in range(4):
            members = view.tasks_on_core(core_id)
            assert all(t.core_id == core_id for t in members)
        total = sum(len(view.tasks_on_core(c)) for c in range(4))
        assert total == len(view.tasks)

    def test_placement_consistent_with_tasks(self):
        view = view_for()
        for task in view.tasks:
            assert view.placement[task.tid] == task.core_id

    def test_core_views_cover_platform(self):
        view = view_for(platform=big_little_octa(), n_threads=4)
        assert len(view.cores) == 8
        clusters = {c.cluster for c in view.cores}
        assert clusters == {"A15big", "A7little"}

    def test_has_measurement_semantics(self):
        view = view_for()
        for task in view.tasks:
            assert task.has_measurement == (
                task.busy_time_s > 0 and task.counters.instructions > 0
            )

    def test_core_power_ordering_plausible(self):
        """Loaded big cores read more power than the idle/sleeping
        leftovers."""
        view = view_for(n_threads=8)
        huge = view.core(0)
        small = view.core(3)
        assert huge.power_w > small.power_w

    def test_window_metadata(self):
        view = view_for()
        assert view.window_s == pytest.approx(0.12)
        assert view.epoch_index >= 0


class TestTaskCoreType:
    """A task reports the OS-visible type of its core — the one its
    CoreView reports: a governor's operating point is visible, a
    firmware throttle is not."""

    @staticmethod
    def views_of(monkeypatch, spec):
        """Run ``spec``; return its views, each with whether a throttle
        was live on some core while it was built."""
        recorded = []
        build_view = System.build_view

        def recording(system, window_s):
            view = build_view(system, window_s)
            throttled = any(
                queue.core.core_type != view.core(queue.core.core_id).core_type
                for queue in system.runqueues
            )
            recorded.append((view, throttled))
            return view

        monkeypatch.setattr(System, "build_view", recording)
        return recorded, execute_spec(spec)

    @staticmethod
    def assert_consistent(view):
        for task in view.tasks:
            assert task.core_type == view.core(task.core_id).core_type

    def test_thermal_throttle_is_invisible(self, monkeypatch):
        recorded, result = self.views_of(
            monkeypatch,
            RunSpec(
                workload="MTMI", platform="biglittle", threads=6,
                faults="thermal", n_epochs=12, seed=1,
            ),
        )
        assert result.resilience.throttle_events >= 1
        assert any(throttled for _, throttled in recorded)
        for view, _ in recorded:
            self.assert_consistent(view)
            for task in view.tasks:
                assert task.core_type == view.platform[task.core_id].core_type

    def test_governor_operating_point_is_visible(self, monkeypatch):
        recorded, result = self.views_of(
            monkeypatch,
            RunSpec(
                workload="MTMI", platform="dvfsquad", threads=8,
                governor="two_level", n_epochs=6, seed=1,
            ),
        )
        assert result.governor["opp_changes"] >= 1
        scaled = [
            view
            for view, _ in recorded
            if any(
                task.core_type != view.platform[task.core_id].core_type
                for task in view.tasks
            )
        ]
        assert scaled, "no view taken after an OPP change"
        for view, _ in recorded:
            self.assert_consistent(view)


class TestNewRecord:
    """``new_record(cls, row, extras)`` builds the record that
    ``cls(*row, **extras)`` builds, and fails where it fails."""

    @pytest.fixture(scope="class")
    def view(self):
        return view_for(n_threads=6)

    @staticmethod
    def assert_same_record(built, constructed):
        assert type(built) is type(constructed)
        assert built == constructed
        assert repr(built) == repr(constructed)
        assert asdict(built) == asdict(constructed)
        assert list(vars(built)) == list(vars(constructed))

    @staticmethod
    def task_row(task):
        """The TaskView fields build_view passes by position."""
        return tuple(vars(task).values())[:12]

    def test_matches_constructor(self, view):
        for task in view.tasks:
            rates = new_record(DerivedRates, astuple(task.rates))
            self.assert_same_record(rates, DerivedRates(*astuple(task.rates)))
            assert hash(rates) == hash(task.rates)
            row = self.task_row(task)
            self.assert_same_record(new_record(TaskView, row), TaskView(*row))
        for core in view.cores:
            row = tuple(vars(core).values())
            self.assert_same_record(new_record(CoreView, row), CoreView(*row))

    def test_replace_and_frozen(self, view):
        row = self.task_row(view.tasks[0])
        built = new_record(TaskView, row)
        moved = replace(built, core_id=3, progress_frac=0.5)
        assert moved == replace(TaskView(*row), core_id=3, progress_frac=0.5)
        assert (built.core_id, built.progress_frac) == (row[2], None)
        with pytest.raises(FrozenInstanceError):
            built.core_id = 2
        with pytest.raises(FrozenInstanceError):
            built.rates.ipc = 0.0

    @pytest.mark.parametrize(
        "extras", [{"bogus": 1}, {"tid": 5}, {"allowed_cores": None}]
    )
    def test_bad_extras_raise_like_the_constructor(self, view, extras):
        row = self.task_row(view.tasks[0])
        with pytest.raises(TypeError):
            TaskView(*row, **extras)
        with pytest.raises(TypeError):
            new_record(TaskView, row, extras)

    def test_wrong_value_counts_raise(self, view):
        row = astuple(view.tasks[0].rates)
        with pytest.raises(TypeError):
            new_record(DerivedRates, row + (1.0,))
        with pytest.raises(TypeError):
            new_record(DerivedRates, row[:-1])

    def test_post_init_is_refused(self):
        @dataclass(frozen=True)
        class Checked:
            value: float

            def __post_init__(self):
                if self.value < 0:
                    raise ValueError("negative")

        with pytest.raises(TypeError, match="__post_init__"):
            new_record(Checked, (1.0,))

    @pytest.mark.parametrize(
        "extras", [{"bogus": 1.0}, {"tid": 5}, {"utilization": 0.5}]
    )
    def test_build_view_rejects_bad_scenario_extras(self, extras):
        """A scenario observable that is no TaskView field, or one that
        build_view sets itself, fails the view with TypeError."""

        class Extras(ScenarioRuntime):
            def task_extras(self, system):
                return {0: dict(extras)}

        system = System(
            quad_hmp(), imb_threads("MTMI", 2), NullBalancer(), scenario=Extras()
        )
        with pytest.raises(TypeError):
            system.build_view(window_s=0.006)

    def test_build_view_applies_scenario_extras(self):
        class Slack(ScenarioRuntime):
            def task_extras(self, system):
                return {1: {"slo_slack_frac": 0.25}}

        system = System(
            quad_hmp(), imb_threads("MTMI", 2), NullBalancer(), scenario=Slack()
        )
        system.run(n_epochs=1)
        view = system.build_view(window_s=0.06)
        assert [t.slo_slack_frac for t in view.tasks] == [None, 0.25]
        assert [t.progress_frac for t in view.tasks] == [None, None]
        task = view.tasks[1]
        assert task == TaskView(*self.task_row(task), slo_slack_frac=0.25)
