"""End-to-end integration tests across the full stack.

These exercise the headline claims on reduced scales: the closed loop
(simulated hardware -> noisy sensing -> estimation/prediction -> SA ->
migration -> CFS) must reproduce the paper's orderings.
"""

import pytest

from repro.core.balancer import SmartBalance
from repro.hardware.platform import big_little_octa, build_platform, quad_hmp
from repro.hardware.features import MEDIUM, SMALL
from repro.kernel.balancers.base import NullBalancer
from repro.kernel.balancers.gts import GtsBalancer
from repro.kernel.balancers.iks import IksBalancer
from repro.kernel.balancers.vanilla import VanillaBalancer
from repro.kernel.simulator import SimulationConfig, System
from repro.workload.parsec import benchmark, mix_threads
from repro.workload.synthetic import imb_threads

EPOCHS = 20


def run(platform, threads, balancer, seed=0):
    system = System(platform, threads, balancer, SimulationConfig(seed=seed))
    return system.run(n_epochs=EPOCHS)


class TestHeadlineOrderings:
    """The paper's main results, at reduced scale."""

    @pytest.mark.parametrize("config", ["HTHI", "MTMI", "LTLI"])
    def test_smart_beats_vanilla_on_imbs(self, config):
        platform = quad_hmp()
        vanilla = run(platform, imb_threads(config, 8), VanillaBalancer())
        smart = run(platform, imb_threads(config, 8), SmartBalance())
        assert smart.improvement_over(vanilla) > 10.0

    @pytest.mark.parametrize("bench", ["x264_L_bow", "bodytrack"])
    def test_smart_beats_vanilla_on_parsec(self, bench):
        platform = quad_hmp()
        vanilla = run(platform, benchmark(bench).threads(4), VanillaBalancer())
        smart = run(
            platform, benchmark(bench).threads(4), SmartBalance()
        )
        assert smart.improvement_over(vanilla) > 10.0

    def test_smart_beats_vanilla_on_mix(self):
        platform = quad_hmp()
        vanilla = run(platform, mix_threads("Mix6", 2), VanillaBalancer())
        smart = run(platform, mix_threads("Mix6", 2), SmartBalance())
        assert smart.improvement_over(vanilla) > 10.0

    def test_smart_competitive_with_gts_on_biglittle(self):
        platform = big_little_octa()
        threads = lambda: benchmark("x264_L_bow").threads(8)  # noqa: E731
        gts = run(platform, threads(), GtsBalancer())
        smart = run(platform, threads(), SmartBalance())
        assert smart.improvement_over(gts) > 5.0

    def test_gts_beats_iks(self):
        """GTS improved on IKS (paper Section 2) — our models must
        preserve that ordering on interactive workloads."""
        platform = big_little_octa()
        threads = lambda: imb_threads("MTMI", 8)  # noqa: E731
        iks = run(platform, threads(), IksBalancer())
        gts = run(platform, threads(), GtsBalancer())
        assert gts.ips_per_watt > 0.9 * iks.ips_per_watt

    def test_throughput_not_sacrificed_on_rate_limited_load(self):
        """SmartBalance must deliver (nearly) the demanded work."""
        platform = quad_hmp()
        vanilla = run(platform, imb_threads("MTMI", 8), VanillaBalancer())
        smart = run(platform, imb_threads("MTMI", 8), SmartBalance())
        assert smart.instructions > 0.85 * vanilla.instructions


class TestClosedLoopMechanics:
    def test_smart_consolidates_light_load(self):
        """Two light threads should abandon the Huge core entirely."""
        platform = quad_hmp()
        smart = run(platform, imb_threads("LTHI", 2), SmartBalance())
        huge = [c for c in smart.core_stats if c.core_type_name == "Huge"][0]
        total = smart.instructions
        assert huge.instructions < 0.25 * total

    def test_vanilla_strands_light_load_on_big_cores(self):
        """The baseline's defect: even distribution parks work on the
        power-hungry cores."""
        platform = quad_hmp()
        vanilla = run(platform, imb_threads("LTHI", 2), VanillaBalancer())
        huge = [c for c in vanilla.core_stats if c.core_type_name == "Huge"][0]
        assert huge.instructions > 0.0
        assert huge.energy_j > 0.5 * vanilla.energy_j

    def test_migrations_bounded(self):
        """The adoption gate keeps migration churn bounded."""
        platform = quad_hmp()
        smart = run(platform, imb_threads("MTMI", 8), SmartBalance())
        assert smart.migrations < 8 * EPOCHS / 2

    def test_custom_heterogeneous_platform_works(self):
        """SmartBalance generalises past big.LITTLE (3+ types)."""
        from repro.core.training import train_predictor
        from repro.hardware.features import HUGE

        platform = build_platform([(HUGE, 1), (MEDIUM, 2), (SMALL, 1)])
        predictor = train_predictor(platform.core_types, n_synthetic=50)
        smart = run(
            platform,
            imb_threads("MTMI", 6),
            SmartBalance(predictor=predictor),
        )
        vanilla = run(platform, imb_threads("MTMI", 6), VanillaBalancer())
        assert smart.improvement_over(vanilla) > 20.0

    def test_null_balancer_is_the_floor(self):
        platform = quad_hmp()
        null = run(platform, imb_threads("HTHI", 8), NullBalancer())
        smart = run(platform, imb_threads("HTHI", 8), SmartBalance())
        assert smart.ips_per_watt > null.ips_per_watt


class TestDynamicWorkloads:
    def test_late_arrivals_get_balanced(self):
        from repro.workload.thread import steady_thread
        from repro.workload.characteristics import COMPUTE_PHASE
        from repro.workload.demand import with_duty

        late_phase = with_duty(COMPUTE_PHASE, duty=0.3)
        threads = imb_threads("MTMI", 3) + [
            steady_thread("late", late_phase, arrival_s=0.3)
        ]
        platform = quad_hmp()
        system = System(platform, threads, SmartBalance())
        result = system.run(n_epochs=EPOCHS)
        late_stats = [t for t in result.task_stats if t.name == "late"][0]
        assert late_stats.instructions > 0.0

    def test_exiting_threads_free_capacity(self):
        from repro.workload.synthetic import imb_threads as make

        short = make("HTLI", 2, total_instructions=5e7)
        long = make("HTLI", 2, seed=1)
        platform = quad_hmp()
        system = System(platform, short + long, SmartBalance())
        result = system.run(n_epochs=EPOCHS)
        from repro.kernel.task import TaskState

        assert system.tasks[0].state is TaskState.EXITED
        assert result.instructions > 0.0


class TestReproducibility:
    def test_identical_runs_identical_results(self):
        platform = quad_hmp()

        def once():
            return run(
                platform, imb_threads("MTMI", 6), SmartBalance(), seed=3
            )

        a, b = once(), once()
        assert a.instructions == b.instructions
        assert a.energy_j == b.energy_j
        assert a.migrations == b.migrations
