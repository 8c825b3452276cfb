"""Tests for the SystemView observable boundary."""

import numpy as np
import pytest

from reference_sensing import SensingNullBalancer
from repro.core.sensing import gather_tasks
from repro.faults import scenario
from repro.hardware.counters import COUNT_FIELDS, CounterBlock, DerivedRates
from repro.hardware.platform import big_little_octa, quad_hmp
from repro.hardware.sensors import IDEAL_NOISE
from repro.kernel.balancers.base import NullBalancer
from repro.kernel.simulator import SimulationConfig, System
from repro.kernel.view import PMU_COLUMNS, CoreView, TaskView
from repro.runner.engine import execute_spec
from repro.runner.factories import make_balancer
from repro.runner.spec import RunSpec
from repro.scenarios.runtime import ScenarioRuntime
from repro.workload.synthetic import imb_threads
from sensed_tasks import sensed_tasks

IPS = PMU_COLUMNS.index("ips")


def run_for(platform=None, n_threads=4, os_tasks=0, balancer=None, **config):
    """A system after two epochs of an unbalanced run, and its view,
    sensed unless a ``balancer`` that reads no sensors is given."""
    system = System(
        platform or quad_hmp(),
        imb_threads("MTMI", n_threads),
        balancer or SensingNullBalancer(),
        SimulationConfig(os_noise_tasks=os_tasks, **config),
    )
    system.run(n_epochs=2)
    return system, system.build_view(window_s=0.12)


def view_for(**kwargs):
    return run_for(**kwargs)[1]


class TestSystemViewHelpers:
    def test_user_tasks_filter(self):
        """The sense phase gathers the user threads only."""
        view = view_for(os_tasks=3)
        assert len(view.tasks) == 7
        users = gather_tasks(view).records
        assert len(users) == 4
        assert users == tuple(t for t in view.tasks if t.is_user)

    def test_core_views_cover_platform(self):
        view = view_for(platform=big_little_octa(), n_threads=4)
        assert [c.core_id for c in view.cores] == list(range(8))
        clusters = {view.platform[c.core_id].cluster for c in view.cores}
        assert clusters == {"A15big", "A7little"}

    def test_measured_rule(self):
        """A task is measured when it ran and retired instructions in
        the window: busy time and a positive ``ips`` in its PMU row.
        Sensor noise scales a count but never zeroes it, so that is the
        true count here.  Every task ran in the last window of the run,
        and none in the empty window before the first."""
        system, view = run_for(os_tasks=3)
        instructions = system.engine.t_cnt[:, COUNT_FIELDS.index("instructions")]
        for task, ips in zip(view.tasks, view.pmu[:, IPS].tolist()):
            ran = task.busy_time_s > 0
            assert (ran and ips > 0) == (ran and instructions[task.tid] > 0)
            assert ran and ips > 0
        users = gather_tasks(view)
        assert len(users) == 4 and users.measured.all()
        fresh = System(quad_hmp(), imb_threads("MTMI", 4), SensingNullBalancer())
        first = fresh.build_view(window_s=0.0)
        assert first.tasks and not gather_tasks(first).measured.any()

    def test_core_power_ordering_plausible(self):
        """Loaded big cores draw more power than the idle/sleeping
        leftovers (the engine's true window power: a view carries no
        core power)."""
        system, _ = run_for(n_threads=8)
        engine = system.engine
        power = engine.q_epoch_energy / engine.q_epoch_time
        assert power[0] > power[3] > 0

    def test_window_metadata(self):
        view = view_for()
        assert view.window_s == pytest.approx(0.12)
        assert view.epoch_index >= 0


class TestPmuBlock:
    """A sensed view's PMU part is one read-only float64 block with a
    row per task; a baseline's view has none."""

    def test_sensed_block(self):
        view = view_for(os_tasks=2)
        pmu = view.pmu
        assert pmu.dtype == np.float64
        assert pmu.shape == (len(view.tasks), len(PMU_COLUMNS)) == (6, 11)
        assert PMU_COLUMNS == (*DerivedRates._fields, "power_w")
        before = pmu.tobytes()
        for write in (
            lambda: pmu.__setitem__((0, 0), 1.0),
            lambda: pmu.__setitem__(slice(None), 0.0),
            lambda: pmu.__imul__(2.0),
        ):
            with pytest.raises(ValueError):
                write()
        assert pmu.tobytes() == before

    @pytest.mark.parametrize("name", ["vanilla", "gts", "iks"])
    def test_baselines_have_no_block(self, name):
        system, view = run_for(
            platform=big_little_octa(), n_threads=6, balancer=make_balancer(name)
        )
        assert not system.balancer.reads_sensors
        assert view.pmu is None
        assert view.tasks and not gather_tasks(view).measured.any()

    def test_views_compare_by_identity(self):
        """``==`` on a view is ``is``: a field-wise ``==`` over the block
        would raise, and one that skipped it would hide a difference."""
        view = view_for()
        assert view == view
        assert view != view_for()


class TestUnsensedView:
    def test_os_part_equals_the_sensed_views(self):
        """The same run seen with and without the PMU read: every OS
        field agrees, and the unsensed view has no PMU block, not zero
        placeholders a balancer could take for a measurement."""
        sensed = view_for(os_tasks=2)
        unsensed = view_for(os_tasks=2, balancer=NullBalancer())
        assert sensed.tasks == unsensed.tasks
        assert sensed.pmu is not None and unsensed.pmu is None
        assert gather_tasks(sensed).measured.all()
        assert not gather_tasks(unsensed).measured.any()

    def test_core_records_equal_the_unsensed_views(self):
        """A core record is OS part only: at every view of a thermal run
        under combined faults, which corrupt the core readings, take a
        core offline and throttle another, a sensed view's cores are an
        unsensed view's."""
        config = SimulationConfig(
            thermal_enabled=True,
            faults=scenario("combined", seed=2, n_cores=4, duration_s=0.6),
        )
        systems = [
            System(quad_hmp(), imb_threads("MTMI", 6), balancer, config)
            for balancer in (SensingNullBalancer(), NullBalancer())
        ]
        offline_views = 0
        for _ in range(10):
            for system in systems:
                system.run(n_epochs=1)
            sensed, unsensed = (s.build_view(window_s=0.06) for s in systems)
            assert sensed.cores == unsensed.cores
            offline_views += not all(core.online for core in sensed.cores)
        assert offline_views > 0
        assert systems[0].faults.counts.sensor_dropouts > 0


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
        """Every record a view holds: its task and core records and
        each record-valued field of them (none today)."""
        for record in (*view.tasks, *view.cores):
            yield record
            yield from (value for value in record if hasattr(value, "_fields"))

    @staticmethod
    def task_row(task):
        """The TaskView fields build_view passes by position."""
        return tuple(task)[:9]

    @pytest.fixture(scope="class")
    def ideal_run(self):
        """A sensed run whose noise-free readings are the true counts."""
        return run_for(
            n_threads=6, counter_noise=IDEAL_NOISE, power_noise=IDEAL_NOISE
        )

    @pytest.fixture(scope="class")
    def view(self, ideal_run):
        return ideal_run[1]

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

    def test_no_held_object_owns_a_dict(self, any_view):
        """Every value a view's records hold is a record, a number, a
        string, a frozenset, ``None`` or a core type the platform owns
        and the view only shares: none of its own owns a ``__dict__``.
        A counter snapshot per task and per core, each a dataclass
        with one, was 384 extra objects in a sensed hmp:128 view."""
        shared = {id(core.core_type) for core in any_view.platform}
        for record in self.records_of(any_view):
            for value in record:
                if id(value) not in shared:
                    assert not hasattr(value, "__dict__"), (
                        type(record).__name__,
                        type(value).__name__,
                    )

    def test_matches_constructor(self, ideal_run):
        """build_view's positional rows land in the named fields: each
        record is its own class rather than a bare tuple, its rates are
        those of its own counters (noise-free here, so the true ones),
        and each core's record carries that core's id and nominal
        type."""
        system, view = ideal_run
        assert len(TaskView._fields) == 11
        for task, sensed in zip(view.tasks, sensed_tasks(view)):
            truth = CounterBlock(*system.engine.t_cnt[task.tid].tolist())
            assert type(task) is TaskView
            assert task == TaskView(**task._asdict())
            assert sensed.rates == truth.derive_rates()
            assert task.core_type == view.cores[task.core_id].core_type
        for core_id, core in enumerate(view.cores):
            assert type(core) is CoreView
            assert core == CoreView(**core._asdict())
            assert core.core_id == core_id
            assert core.core_type == view.platform[core_id].core_type

    def test_replace_and_frozen(self, view):
        """``_replace`` is how code changes a record's fields: it returns
        a changed copy and leaves the record, and the PMU block, as
        built."""
        task = view.tasks[0]
        row = self.task_row(task)
        moved = task._replace(core_id=3, progress_frac=0.5)
        assert moved == TaskView(*row[:2], 3, *row[3:], progress_frac=0.5)
        assert (task.core_id, task.progress_frac) == (row[2], None)
        assert moved._replace(core_id=row[2], progress_frac=None) == task
        with pytest.raises(AttributeError):
            task.core_id = 2
        with pytest.raises(ValueError):
            view.pmu[0, PMU_COLUMNS.index("ipc")] = 0.0

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
        rates = tuple(view.pmu[0, :-1].tolist())
        with pytest.raises(TypeError):
            DerivedRates(*rates, 1.0)
        with pytest.raises(TypeError):
            DerivedRates(*rates[:-1])
        task = tuple(view.tasks[0])
        with pytest.raises(TypeError):
            TaskView(*task, 1.0)
        with pytest.raises(TypeError):
            TaskView(*task[:7])

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
        assert task == TaskView(*task[:9], slo_slack_frac=0.25)
