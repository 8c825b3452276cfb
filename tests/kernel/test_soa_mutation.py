"""Mutation sanity: the equivalence digest actually has teeth.

A differential harness is vacuous if the fingerprint it compares is
insensitive to the state it claims to cover.  These tests perturb one
cell of one SoA array mid-epoch — by swapping in a ``SoaKernel``
subclass whose ``simulate_period`` mutates the arrays after a chosen
period, through the same substitution that installs the reference
kernel — and assert the run's :func:`metrics_digest` diverges from the
unperturbed one.  If a refactor ever stops folding an array into the
observable results, the corresponding test here fails even though
every equivalence test still (vacuously) passes.  One test corrupts the
memoised increments of a steady period instead, which only the periods
that replay them carry into the arrays.
"""

from reference_kernel import kernel_engine, reference_kernel
from repro.kernel.simulator import SimulationConfig, System
from repro.kernel.soa import SoaKernel
from repro.runner.factories import make_balancer, make_platform, make_workload
from repro.runner.serialize import metrics_digest

#: CounterBlock field order: the instructions column of the per-task
#: counter accumulator ``t_cnt``.
INSTR_COL = 3

N_EPOCHS = 2
PERTURB_PERIOD = 3  # mid-epoch: after some periods, before sensing


def build(balancer="vanilla"):
    return System(
        make_platform("quad"),
        make_workload("MTMI", 6, seed=0),
        make_balancer(balancer),
        SimulationConfig(seed=0),
    )


def digest(system):
    return metrics_digest(system.run(n_epochs=N_EPOCHS))


def perturbed_run(mutate, balancer="vanilla"):
    """(digest, engine) of a SoA run whose arrays ``mutate`` edits
    once, right after period ``PERTURB_PERIOD``."""

    class PerturbedKernel(SoaKernel):
        periods = 0

        def simulate_period(self, period_s):
            result = super().simulate_period(period_s)
            if self.periods == PERTURB_PERIOD:
                mutate(self)
            self.periods += 1
            return result

    with kernel_engine(PerturbedKernel):
        system = build(balancer)
    return digest(system), system.engine


def perturbed_digest(mutate, balancer="vanilla"):
    return perturbed_run(mutate, balancer)[0]


def reference_digest(balancer="vanilla"):
    with reference_kernel():
        system = build(balancer)
    return digest(system)


class TestMutationsDiverge:
    def test_clean_soa_matches_reference(self):
        """Baseline for the tests below: unperturbed runs agree."""
        assert digest(build()) == reference_digest()

    def test_counter_cell_perturbation_diverges(self):
        """+1e9 phantom instructions in one task's counter bank must
        reach the sensed view and change the balancer's decisions.
        Counters are only observable through sensing, so this runs
        under smartbalance — the balancer that predicts from them."""

        def mutate(engine):
            engine.t_cnt[0, INSTR_COL] += 1e9

        ref = reference_digest(balancer="smartbalance")
        assert perturbed_digest(mutate, balancer="smartbalance") != ref

    def test_progress_cell_perturbation_diverges(self):
        """Skipping one task half a billion instructions ahead shifts
        its phase/exit timing and the committed-work totals."""

        def mutate(engine):
            engine.progress[0] += 5e8

        assert perturbed_digest(mutate) != reference_digest()

    def test_energy_cell_perturbation_diverges(self):
        """A phantom joule in one task's energy accumulator must
        survive into the task stats."""

        def mutate(engine):
            engine.total_energy[0] += 1.0

        assert perturbed_digest(mutate) != reference_digest()

    def test_memoised_increment_perturbation_diverges(self):
        """Half a billion phantom instructions in task 0's memoised
        increment must reach the digest through the periods that
        replay it: the memo is applied, not bypassed."""
        replays = []

        def mutate(engine):
            assert engine._memo is not None, "no period was memoised"
            # The increment block is indexed (counter, task).
            engine._memo.S[INSTR_COL, 0] += 5e8
            replays.append(engine.steady_periods)

        digest, engine = perturbed_run(mutate)
        assert engine.steady_periods > replays[0], "the memo never replayed"
        assert digest != reference_digest()
