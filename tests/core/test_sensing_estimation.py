"""Tests for the sense phase and the Eq. 4-7 estimation identities."""

import pytest

from reference_sensing import SensingNullBalancer
from repro.core.balancer import SmartBalance
from repro.core.estimation import estimate_cores, feature_vector
from repro.hardware.counters import CounterBlock
from repro.hardware import microarch
from repro.hardware.features import CoreType
from repro.hardware.platform import quad_hmp
from repro.hardware.sensors import NoiseModel
from repro.kernel.simulator import SimulationConfig, System
from repro.workload.characteristics import COMPUTE_PHASE
from repro.workload.synthetic import imb_threads

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


def measured(tasks):
    return [task for task in tasks if task.has_measurement]


class TestSense:
    def test_all_user_threads_observed(self):
        _, view = sensed_view(4)
        assert len(view.user_tasks) == 4
        assert len(measured(view.user_tasks)) == 4

    def test_kernel_threads_excluded(self):
        """decide() balances user threads only (marked at sched_fork),
        though the kernel threads are measured too."""
        _, view = sensed_view(2, os_tasks=3)
        user_tids = {task.tid for task in view.user_tasks}
        assert len(user_tids) == 2 and len(measured(view.tasks)) == 5
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
        for obs in measured(view.user_tasks):
            truth = CounterBlock(*system.engine.t_cnt[obs.tid].tolist())
            expected = truth.instructions / truth.busy_time_s
            assert obs.rates.ips == pytest.approx(expected, rel=1e-9)

    def test_eq5_power_identity(self):
        """p_ij = sum(energy) / sum(tau)."""
        system, view = sensed_view(4)
        for obs in measured(view.user_tasks):
            truth = CounterBlock(*system.engine.t_cnt[obs.tid].tolist())
            expected = system.engine.epoch_energy[obs.tid] / truth.busy_time_s
            assert obs.power_w == pytest.approx(expected, rel=1e-9)


class TestEstimateCores:
    def test_eq6_eq7_are_member_averages(self):
        _, view = sensed_view(8)
        estimates = estimate_cores(view.user_tasks)
        for core_id, estimate in estimates.items():
            members = [
                t for t in measured(view.user_tasks) if t.core_id == core_id
            ]
            assert estimate.n_threads == len(members)
            assert estimate.ips_avg == pytest.approx(
                sum(t.rates.ips for t in members) / len(members)
            )
            assert estimate.power_avg == pytest.approx(
                sum(t.power_w for t in members) / len(members)
            )

    def test_empty_core_absent(self):
        _, view = sensed_view(2)  # cores 2, 3 have no threads
        estimates = estimate_cores(view.user_tasks)
        assert set(estimates) == {0, 1}


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
        obs = measured(view.user_tasks)[0]
        features = feature_vector(obs)
        assert features[0] == obs.core_type.freq_mhz
        assert features[-3] == pytest.approx(obs.rates.ipc)
        assert features[-2] == pytest.approx(obs.rates.stall_fraction)
        assert features[-1] == 1.0
