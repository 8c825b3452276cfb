"""Tests for the sense phase and the Eq. 4-7 estimation identities.

The per-core aggregates of Eqs. 6–7 (:func:`estimate_cores`) feed no
decision, so they live here, over a view's PMU block.
"""

from dataclasses import dataclass

import pytest

from reference_sensing import SensingNullBalancer
from repro.core.balancer import SmartBalance
from repro.core.estimation import feature_matrix
from repro.core.sensing import gather_tasks
from repro.hardware.counters import CounterBlock
from repro.hardware import microarch
from repro.hardware.features import CoreType
from repro.hardware.platform import quad_hmp
from repro.hardware.sensors import NoiseModel
from repro.kernel.simulator import SimulationConfig, System
from repro.kernel.view import PMU_COLUMNS, SystemView
from repro.workload.characteristics import COMPUTE_PHASE
from repro.workload.synthetic import imb_threads
from sensed_tasks import sensed_tasks

IDEAL = SimulationConfig(
    counter_noise=NoiseModel(sigma=0.0), power_noise=NoiseModel(sigma=0.0)
)


def sensed_view(n_threads=4, os_tasks=0, n_epochs=2):
    config = SimulationConfig(
        counter_noise=NoiseModel(sigma=0.0),
        power_noise=NoiseModel(sigma=0.0),
        os_noise_tasks=os_tasks,
    )
    system = System(
        quad_hmp(), imb_threads("MTMI", n_threads), SensingNullBalancer(), config
    )
    system.run(n_epochs=n_epochs)
    return system, system.build_view(window_s=n_epochs * 0.06)


@dataclass(frozen=True)
class CoreEstimate:
    """Eqs. 6–7 aggregates for one core over one epoch."""

    core_id: int
    #: Eq. 6 — mean of member threads' measured IPS.
    ips_avg: float
    #: Eq. 7 — mean of member threads' measured power (W).
    power_avg: float
    n_threads: int


_IPS = PMU_COLUMNS.index("ips")
_POWER = PMU_COLUMNS.index("power_w")


def estimate_cores(view: SystemView) -> dict[int, CoreEstimate]:
    """Per-core Eq. 6/7 estimates from the measured user threads of
    ``view``, read from its PMU block."""
    groups: dict[int, list[tuple[float, float]]] = {}
    readings = view.pmu[:, [_IPS, _POWER]].tolist()
    for task, (ips, power_w) in zip(view.tasks, readings):
        if task.is_user and task.busy_time_s > 0 and ips > 0:
            groups.setdefault(task.core_id, []).append((ips, power_w))
    estimates = {}
    for core_id, threads in groups.items():
        n = len(threads)
        estimates[core_id] = CoreEstimate(
            core_id=core_id,
            ips_avg=sum(ips for ips, _ in threads) / n,
            power_avg=sum(power_w for _, power_w in threads) / n,
            n_threads=n,
        )
    return estimates


def measured(view, users_only=True):
    """The measured tasks of ``view``, each with its PMU readings."""
    return [
        task
        for task in sensed_tasks(view)
        if task.has_measurement and (task.is_user or not users_only)
    ]


class TestSense:
    def test_all_user_threads_observed(self):
        _, view = sensed_view(4)
        assert len(gather_tasks(view)) == 4
        assert len(measured(view)) == 4

    def test_kernel_threads_excluded(self):
        """decide() balances user threads only (marked at sched_fork),
        though the kernel threads are measured too."""
        _, view = sensed_view(2, os_tasks=3)
        user_tids = {task.tid for task in view.tasks if task.is_user}
        assert len(user_tids) == 2 and len(measured(view, users_only=False)) == 5
        decision = SmartBalance().decide(view)
        assert set(decision.matrices.tids) == user_tids

    def test_idle_and_sleep_power_vectors(self):
        _, view = sensed_view(2)
        assert len(view.cores) == 4
        for core in view.cores:
            assert 0 < core.sleep_power_w < core.idle_power_w

    def test_eq4_ips_identity(self):
        """ips_ij = sum(I) / sum(tau) — verified against ground truth."""
        system, view = sensed_view(4)
        for obs in measured(view):
            truth = CounterBlock(*system.engine.t_cnt[obs.tid].tolist())
            expected = truth.instructions / truth.busy_time_s
            assert obs.rates.ips == pytest.approx(expected, rel=1e-9)

    def test_eq5_power_identity(self):
        """p_ij = sum(energy) / sum(tau)."""
        system, view = sensed_view(4)
        for obs in measured(view):
            truth = CounterBlock(*system.engine.t_cnt[obs.tid].tolist())
            expected = system.engine.epoch_energy[obs.tid] / truth.busy_time_s
            assert obs.power_w == pytest.approx(expected, rel=1e-9)


class TestEstimateCores:
    def test_eq6_eq7_are_member_averages(self):
        _, view = sensed_view(8)
        estimates = estimate_cores(view)
        assert sum(e.n_threads for e in estimates.values()) == 8
        for core_id, estimate in estimates.items():
            members = [t for t in measured(view) if t.core_id == core_id]
            assert estimate.n_threads == len(members)
            assert estimate.ips_avg == pytest.approx(
                sum(t.rates.ips for t in members) / len(members)
            )
            assert estimate.power_avg == pytest.approx(
                sum(t.power_w for t in members) / len(members)
            )

    def test_empty_core_absent(self):
        _, view = sensed_view(2)  # cores 2, 3 have no threads
        estimates = estimate_cores(view)
        assert set(estimates) == {0, 1}

    def test_kernel_and_unmeasured_threads_left_out(self):
        _, view = sensed_view(2, os_tasks=3)
        assert sum(e.n_threads for e in estimate_cores(view).values()) == 2
        fresh = System(quad_hmp(), imb_threads("MTMI", 4), SensingNullBalancer())
        assert estimate_cores(fresh.build_view(window_s=0.0)) == {}


def core_ips_from_counters(counters: CounterBlock, core_type: CoreType) -> float:
    """The paper's core-IPS identity: ``I_total · F / (cyBusy + cyIdle)``.

    The cross-check of Eq. 6 aggregation against raw core counters; no
    view carries core counters, so only this test evaluates it.
    """
    active_cycles = counters.cy_busy + counters.cy_idle
    if active_cycles <= 0:
        return 0.0
    return counters.instructions * core_type.freq_hz / active_cycles


class TestCoreIpsIdentity:
    def test_matches_counter_formula(self):
        """IPS_j = I_total * F / (cyBusy + cyIdle)."""
        from repro.hardware.features import BIG

        block = CounterBlock()
        perf = microarch.estimate(COMPUTE_PHASE, BIG)
        block.charge_execution(perf, BIG, 0.01, 0.3, 0.1)
        ips = core_ips_from_counters(block, BIG)
        assert ips == pytest.approx(perf.ipc * BIG.freq_hz, rel=1e-9)

    def test_zero_for_empty_counters(self):
        from repro.hardware.features import BIG

        assert core_ips_from_counters(CounterBlock(), BIG) == 0.0


class TestFeatureVector:
    def test_matches_observed_rates(self):
        _, view = sensed_view(2)
        obs = measured(view)[0]
        features = feature_matrix(gather_tasks(view))[0]
        assert features[0] == obs.core_type.freq_mhz
        assert features[-3] == pytest.approx(obs.rates.ipc)
        assert features[-2] == pytest.approx(obs.rates.stall_fraction)
        assert features[-1] == 1.0
