"""Linaro In-Kernel Switcher (IKS) — secondary comparator.

IKS (paper reference [23]) pairs each big core with a little core into
a *virtual core*; only one member of each pair is active at a time, and
the kernel switches the pair between its big and little halves based on
the pair's aggregate utilisation — a coarse, cluster-granular ancestor
of GTS.  Table 1 of the paper lists IKS as utilisation-aware but with
no per-thread awareness and no support for >2 core types.

The implementation keeps tasks pinned to their virtual core (pair) and
only moves them between the pair's two members, emulating the
cpufreq-driven switch.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.balancers.base import LoadBalancer, Placement
from repro.kernel.view import SystemView

#: Pair utilisation above which the big half is activated, and below
#: which the pair drops back to the little half (hysteresis band).
SWITCH_UP_THRESHOLD = 0.60
SWITCH_DOWN_THRESHOLD = 0.30


class IksBalancer(LoadBalancer):
    """Per-pair big/little switching on aggregate utilisation."""

    name = "iks"
    interval_periods = 1

    def __init__(
        self,
        up_threshold: float = SWITCH_UP_THRESHOLD,
        down_threshold: float = SWITCH_DOWN_THRESHOLD,
    ) -> None:
        if not 0.0 < down_threshold < up_threshold <= 1.0:
            raise ValueError(
                "thresholds must satisfy 0 < down < up <= 1, got "
                f"down={down_threshold}, up={up_threshold}"
            )
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self._pairs: Optional[list[tuple[int, int]]] = None
        #: Active half per pair index: True = big half active.
        self._big_active: list[bool] = []

    def _build_pairs(self, view: SystemView) -> list[tuple[int, int]]:
        """Pair the i-th big core with the i-th little core."""
        if self._pairs is not None:
            return self._pairs
        clusters = view.platform.clusters
        if len(clusters) != 2:
            raise ValueError(
                "IKS supports exactly two clusters (big.LITTLE); platform "
                f"{view.platform.name!r} has {len(clusters)}"
            )

        def capacity(name: str) -> float:
            core = clusters[name][0]
            return core.core_type.freq_mhz * core.core_type.issue_width

        big_name, little_name = sorted(clusters, key=capacity, reverse=True)
        bigs = [c.core_id for c in clusters[big_name]]
        littles = [c.core_id for c in clusters[little_name]]
        if len(bigs) != len(littles):
            raise ValueError(
                f"IKS needs equal cluster sizes, got {len(bigs)} big / "
                f"{len(littles)} little"
            )
        self._pairs = list(zip(bigs, littles))
        self._big_active = [False] * len(self._pairs)
        return self._pairs

    def rebalance(self, view: SystemView) -> Optional[Placement]:
        pairs = self._build_pairs(view)
        core_to_pair = {}
        for index, (big, little) in enumerate(pairs):
            core_to_pair[big] = index
            core_to_pair[little] = index

        pair_util = [0.0] * len(pairs)
        # Per pair: the (tid, core_id) of each task on it.
        pair_tasks: list[list[tuple[int, int]]] = [[] for _ in pairs]
        for task in view.tasks:
            pair = core_to_pair[task.core_id]
            pair_util[pair] += task.utilization * task.weight
            pair_tasks[pair].append((task.tid, task.core_id))

        placement: Placement = {}
        for index, (big, little) in enumerate(pairs):
            if self._big_active[index]:
                if pair_util[index] < self.down_threshold:
                    self._big_active[index] = False
            else:
                if pair_util[index] > self.up_threshold:
                    self._big_active[index] = True
            active = big if self._big_active[index] else little
            for tid, current in pair_tasks[index]:
                if current != active:
                    placement[tid] = active
        return placement or None
