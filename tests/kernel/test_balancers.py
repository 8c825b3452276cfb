"""Tests for the baseline balancers (vanilla, GTS, IKS)."""

import pytest

from repro.hardware.platform import big_little_octa, build_platform, quad_hmp
from repro.hardware.features import ARM_BIG, ARM_LITTLE
from repro.hardware import power as power_model
from repro.kernel.balancers.base import NullBalancer
from repro.kernel.balancers.gts import GtsBalancer
from repro.kernel.balancers.iks import IksBalancer
from repro.kernel.balancers.vanilla import VanillaBalancer
from repro.kernel.view import CoreView, SystemView, TaskView


def make_view(platform, placements, utils=None):
    """Build a minimal SystemView from tid -> core_id placements."""
    utils = utils or {}
    tasks = []
    for tid, core_id in placements.items():
        tasks.append(
            TaskView(
                tid=tid,
                name=f"t{tid}",
                core_id=core_id,
                core_type=platform[core_id].core_type,
                weight=1.0,
                is_user=True,
                utilization=utils.get(tid, 0.5),
                busy_time_s=0.0,
            )
        )
    cores = []
    for core in platform:
        t = core.core_type
        cores.append(
            CoreView(
                core_id=core.core_id,
                core_type=t,
                idle_power_w=power_model.idle_power(t).total_w,
                sleep_power_w=power_model.sleep_power(t),
            )
        )
    return SystemView(
        epoch_index=1,
        time_s=0.06,
        window_s=0.06,
        platform=platform,
        tasks=tuple(tasks),
        cores=tuple(cores),
    )


class TestNullBalancer:
    def test_never_moves(self):
        view = make_view(quad_hmp(), {0: 0, 1: 0, 2: 0})
        assert NullBalancer().rebalance(view) is None


class TestVanillaBalancer:
    def test_balanced_counts_untouched(self):
        view = make_view(quad_hmp(), {0: 0, 1: 1, 2: 2, 3: 3})
        assert VanillaBalancer().rebalance(view) is None

    def test_pulls_from_overloaded_core(self):
        view = make_view(quad_hmp(), {0: 0, 1: 0, 2: 0, 3: 0})
        placement = VanillaBalancer().rebalance(view)
        assert placement
        counts = {c: 0 for c in range(4)}
        for tid in range(4):
            counts[placement.get(tid, 0)] += 1
        assert max(counts.values()) == 1

    def test_capability_unaware(self):
        """8 equal tasks end up 2 per core regardless of core type."""
        view = make_view(quad_hmp(), {i: 0 for i in range(8)})
        placement = VanillaBalancer().rebalance(view) or {}
        counts = {c: 0 for c in range(4)}
        for tid in range(8):
            counts[placement.get(tid, 0)] += 1
        assert sorted(counts.values()) == [2, 2, 2, 2]

    def test_no_ping_pong_with_fewer_tasks_than_cores(self):
        """Singleton queues must not be shuffled among idle cores."""
        view = make_view(quad_hmp(), {0: 0, 1: 1})
        assert VanillaBalancer().rebalance(view) is None

    def test_invalid_imbalance_pct_rejected(self):
        with pytest.raises(ValueError):
            VanillaBalancer(imbalance_pct=0.5)


class TestGtsBalancer:
    def test_requires_two_clusters(self):
        view = make_view(quad_hmp(), {0: 0})
        with pytest.raises(ValueError, match="two clusters"):
            GtsBalancer().rebalance(view)

    def test_high_util_task_up_migrates(self):
        platform = big_little_octa()
        little = platform.clusters["A7little"][0].core_id
        view = make_view(platform, {0: little}, utils={0: 0.9})
        placement = GtsBalancer().rebalance(view)
        assert placement is not None
        target = platform[placement[0]]
        assert target.core_type.name == ARM_BIG.name

    def test_low_util_task_down_migrates(self):
        platform = big_little_octa()
        big = platform.clusters["A15big"][0].core_id
        view = make_view(platform, {0: big}, utils={0: 0.1})
        placement = GtsBalancer().rebalance(view)
        assert placement is not None
        target = platform[placement[0]]
        assert target.core_type.name == ARM_LITTLE.name

    def test_hysteresis_band_keeps_placement(self):
        platform = big_little_octa()
        big = platform.clusters["A15big"][0].core_id
        view = make_view(platform, {0: big}, utils={0: 0.5})
        assert GtsBalancer().rebalance(view) is None

    def test_spreads_within_cluster(self):
        platform = big_little_octa()
        big0 = platform.clusters["A15big"][0].core_id
        view = make_view(
            platform, {i: big0 for i in range(4)}, utils={i: 0.5 for i in range(4)}
        )
        placement = GtsBalancer().rebalance(view) or {}
        cores = {placement.get(tid, big0) for tid in range(4)}
        big_ids = {c.core_id for c in platform.clusters["A15big"]}
        assert cores <= big_ids
        assert len(cores) > 1

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            GtsBalancer(up_threshold=0.2, down_threshold=0.5)


class TestIksBalancer:
    def test_requires_two_equal_clusters(self):
        platform = build_platform(
            [(ARM_BIG, 2), (ARM_LITTLE, 4)], cluster_per_type=True
        )
        view = make_view(platform, {0: 0})
        with pytest.raises(ValueError, match="equal cluster sizes"):
            IksBalancer().rebalance(view)

    def test_low_util_pair_runs_on_little(self):
        platform = big_little_octa()
        big0 = platform.clusters["A15big"][0].core_id
        view = make_view(platform, {0: big0}, utils={0: 0.1})
        placement = IksBalancer().rebalance(view)
        assert placement is not None
        assert platform[placement[0]].core_type.name == ARM_LITTLE.name

    def test_high_util_pair_switches_up(self):
        platform = big_little_octa()
        balancer = IksBalancer()
        little0 = platform.clusters["A7little"][0].core_id
        view = make_view(platform, {0: little0}, utils={0: 0.9})
        placement = balancer.rebalance(view)
        assert placement is not None
        assert platform[placement[0]].core_type.name == ARM_BIG.name

    def test_tasks_stay_within_their_pair(self):
        platform = big_little_octa()
        balancer = IksBalancer()
        little = platform.clusters["A7little"]
        view = make_view(
            platform,
            {0: little[0].core_id, 1: little[1].core_id},
            utils={0: 0.9, 1: 0.9},
        )
        placement = balancer.rebalance(view) or {}
        pairs = balancer._build_pairs(view)
        pair_of = {}
        for index, (big, small) in enumerate(pairs):
            pair_of[big] = index
            pair_of[small] = index
        assert pair_of[placement[0]] == pair_of[little[0].core_id]
        assert pair_of[placement[1]] == pair_of[little[1].core_id]


class TestPlacementValidation:
    def test_unknown_task_rejected(self):
        view = make_view(quad_hmp(), {0: 0})
        with pytest.raises(ValueError, match="unknown task"):
            NullBalancer().validate_placement(view, {99: 0})

    def test_invalid_core_rejected(self):
        view = make_view(quad_hmp(), {0: 0})
        with pytest.raises(ValueError, match="invalid core"):
            NullBalancer().validate_placement(view, {0: 7})
