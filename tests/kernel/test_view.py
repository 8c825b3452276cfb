"""Tests for the SystemView observable boundary."""

import pytest

from repro.hardware.platform import big_little_octa, quad_hmp
from repro.kernel.balancers.base import NullBalancer
from repro.kernel.simulator import SimulationConfig, System
from repro.runner.engine import execute_spec
from repro.runner.spec import RunSpec
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
