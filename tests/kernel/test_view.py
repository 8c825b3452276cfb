"""Tests for the SystemView observable boundary."""

import pytest

from reference_sensing import SensingNullBalancer
from repro.hardware.counters import DerivedRates
from repro.hardware.platform import big_little_octa, quad_hmp
from repro.kernel.balancers.base import NullBalancer
from repro.kernel.simulator import SimulationConfig, System
from repro.kernel.view import CoreView, TaskView
from repro.runner.engine import execute_spec
from repro.runner.spec import RunSpec
from repro.scenarios.runtime import ScenarioRuntime
from repro.workload.synthetic import imb_threads


def view_for(platform=None, n_threads=4, os_tasks=0, balancer=None):
    """A view after two epochs of an unbalanced run, sensed unless a
    ``balancer`` that reads no sensors is given."""
    system = System(
        platform or quad_hmp(),
        imb_threads("MTMI", n_threads),
        balancer or SensingNullBalancer(),
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

    def test_core_views_cover_platform(self):
        view = view_for(platform=big_little_octa(), n_threads=4)
        assert [c.core_id for c in view.cores] == list(range(8))
        clusters = {view.platform[c.core_id].cluster for c in view.cores}
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
        huge = view.cores[0]
        small = view.cores[3]
        assert huge.power_w > small.power_w

    def test_window_metadata(self):
        view = view_for()
        assert view.window_s == pytest.approx(0.12)
        assert view.epoch_index >= 0


class TestUnsensedView:
    def test_os_part_equals_the_sensed_views(self):
        """The same run seen with and without the PMU read: every OS
        field agrees, and the PMU fields of the unsensed view are
        ``None``, not zero placeholders a balancer could take for a
        measurement."""
        pmu = {"counters": None, "rates": None, "power_w": None}
        sensed = view_for(os_tasks=2)
        unsensed = view_for(os_tasks=2, balancer=NullBalancer())
        assert [t._replace(**pmu) for t in sensed.tasks] == list(unsensed.tasks)
        assert [
            c._replace(power_w=None, counters=None) for c in sensed.cores
        ] == list(unsensed.cores)
        assert all(t.has_measurement for t in sensed.tasks)
        assert not any(t.has_measurement for t in unsensed.tasks)


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
                queue.core.core_type != view.cores[queue.core.core_id].core_type
                for queue in system.runqueues
            )
            recorded.append((view, throttled))
            return view

        monkeypatch.setattr(System, "build_view", recording)
        return recorded, execute_spec(spec)

    @staticmethod
    def assert_consistent(view):
        for task in view.tasks:
            assert task.core_type == view.cores[task.core_id].core_type

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
    """Every record build_view makes is a new immutable tuple, built by
    its own constructor as ``cls(*row, **extras)``."""

    @staticmethod
    def records_of(view):
        for task in view.tasks:
            yield task
            yield task.rates
        yield from view.cores

    @staticmethod
    def task_row(task):
        """The TaskView fields build_view passes by position."""
        return tuple(task)[:12]

    @pytest.fixture(scope="class")
    def view(self):
        return view_for(n_threads=6)

    @pytest.fixture(scope="class", params=["clean", "scenario_extra"])
    def any_view(self, request, view):
        if request.param == "clean":
            return view

        class Slack(ScenarioRuntime):
            def task_extras(self, system):
                return {1: {"slo_slack_frac": 0.25}}

        system = System(
            quad_hmp(), imb_threads("MTMI", 6), SensingNullBalancer(),
            scenario=Slack(),
        )
        system.run(n_epochs=2)
        view = system.build_view(window_s=0.12)
        assert view.tasks[1].slo_slack_frac == 0.25
        return view

    def test_records_are_immutable_and_own_no_dict(self, any_view):
        """No record owns a ``__dict__``: a record with one costs an
        extra GC-tracked object, which pushed an hmp:64 view past
        CPython's gen-0 threshold of 700 allocations."""
        assert (len(any_view.tasks), len(any_view.cores)) == (6, 4)
        for record in self.records_of(any_view):
            assert not hasattr(record, "__dict__"), type(record).__name__
            for name in (record._fields[0], "not_a_field"):
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)

    def test_matches_constructor(self, view):
        """build_view's positional rows land in the named fields: each
        record is its own class rather than a bare tuple, its rates are
        those of its own counters, and each core's record carries that
        core's id and nominal type."""
        for task in view.tasks:
            assert type(task) is TaskView
            assert type(task.rates) is DerivedRates
            assert task == TaskView(**task._asdict())
            assert task.rates == task.counters.derive_rates()
            assert task.core_type == view.cores[task.core_id].core_type
        for core_id, core in enumerate(view.cores):
            assert type(core) is CoreView
            assert core == CoreView(**core._asdict())
            assert core.core_id == core_id
            assert core.core_type == view.platform[core_id].core_type

    def test_replace_and_frozen(self, view):
        """``_replace`` is how code changes a record's fields: it returns
        a changed copy and leaves the record, and its rates, as built."""
        task = view.tasks[0]
        row = self.task_row(task)
        moved = task._replace(core_id=3, progress_frac=0.5)
        assert moved == TaskView(*row[:2], 3, *row[3:], progress_frac=0.5)
        assert (task.core_id, task.progress_frac) == (row[2], None)
        assert moved._replace(core_id=row[2], progress_frac=None) == task
        with pytest.raises(AttributeError):
            task.core_id = 2
        with pytest.raises(AttributeError):
            task.rates.ipc = 0.0

    @pytest.mark.parametrize(
        "extras", [{"bogus": 1}, {"tid": 5}, {"allowed_cores": None}]
    )
    def test_bad_extras_raise_like_the_constructor(self, view, extras):
        """A bad scenario extra fails build_view with the constructor's
        own TypeError, which names the offending field."""
        with pytest.raises(TypeError) as constructed:
            TaskView(*self.task_row(view.tasks[0]), **extras)
        (field,) = extras
        assert field in str(constructed.value)

        class Extras(ScenarioRuntime):
            def task_extras(self, system):
                return {0: dict(extras)}

        system = System(
            quad_hmp(), imb_threads("MTMI", 2), NullBalancer(), scenario=Extras()
        )
        with pytest.raises(TypeError) as built:
            system.build_view(window_s=0.006)
        assert str(built.value) == str(constructed.value)

    def test_wrong_value_counts_raise(self, view):
        """A row one value too long or too short fails the constructor
        instead of shifting fields: DerivedRates has no defaults, and
        TaskView's start after ``busy_time_s``."""
        rates = tuple(view.tasks[0].rates)
        with pytest.raises(TypeError):
            DerivedRates(*rates, 1.0)
        with pytest.raises(TypeError):
            DerivedRates(*rates[:-1])
        task = tuple(view.tasks[0])
        with pytest.raises(TypeError):
            TaskView(*task, 1.0)
        with pytest.raises(TypeError):
            TaskView(*task[:10])

    @pytest.mark.parametrize(
        "extras",
        [{"bogus": 1.0}, {"tid": 5}, {"utilization": 0.5}, {"allowed_cores": None}],
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
        assert task == TaskView(*task[:12], slo_slack_frac=0.25)
