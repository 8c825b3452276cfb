"""Builder determinism and geometry for the three scenario families."""

from repro.scenarios import build_scenario
from repro.scenarios.builders import _ARRIVAL_WINDOW, _scenario_rng
from repro.workload.characteristics import COMPUTE_PHASE
from repro.workload.thread import steady_thread

#: One epoch of the default run geometry.
GEOMETRY = dict(period_s=0.005, periods_per_epoch=12, n_epochs=2)
HORIZON_S = (
    GEOMETRY["period_s"]
    * GEOMETRY["periods_per_epoch"]
    * GEOMETRY["n_epochs"]
)


def base_workload():
    return [steady_thread("base/0", COMPUTE_PHASE)]


def build(text, seed=1, base=None):
    return build_scenario(
        text, base if base is not None else base_workload(), seed, **GEOMETRY
    )


def thread_fingerprint(behaviors):
    # PhaseSchedule has identity equality; its segment tuple (frozen
    # dataclasses all the way down) carries the actual content.
    return [
        (b.name, b.arrival_s, b.total_instructions, b.schedule.segments)
        for b in behaviors
    ]


class TestDeterminism:
    def test_same_seed_same_threads(self):
        for text in (
            "openloop:pattern=diurnal",
            "barrier",
            "smt:corunners=3",
        ):
            a, _ = build(text, seed=7)
            b, _ = build(text, seed=7)
            assert thread_fingerprint(a) == thread_fingerprint(b), text

    def test_seed_changes_stream(self):
        a, _ = build("openloop", seed=1)
        b, _ = build("openloop", seed=2)
        assert thread_fingerprint(a) != thread_fingerprint(b)

    def test_base_workload_passes_through_untouched(self):
        base = base_workload()
        combined, _ = build("barrier", base=base)
        # Base behaviours first, in order, the very same objects — the
        # scenario RNG is derived independently of the base stream.
        assert combined[: len(base)] == base
        assert combined[0] is base[0]

    def test_scenario_rng_is_not_the_run_seed_stream(self):
        # sha256 derivation: the scenario stream differs from what
        # random.Random(seed) itself would produce.
        import random

        derived = _scenario_rng(42)
        raw = random.Random(42)
        assert [derived.random() for _ in range(4)] != [
            raw.random() for _ in range(4)
        ]


class TestOpenLoop:
    def test_requests_fit_the_arrival_window(self):
        combined, runtime = build("openloop:rate=200")
        reqs = [b for b in combined if b.name.startswith("req/")]
        window = HORIZON_S * _ARRIVAL_WINDOW
        assert reqs, "no requests generated"
        assert all(0.0 < b.arrival_s < window for b in reqs)
        arrivals = [b.arrival_s for b in reqs]
        assert arrivals == sorted(arrivals)

    def test_runtime_tracks_every_request(self):
        combined, runtime = build("openloop:rate=150,slo_ms=12")
        reqs = {b.name for b in combined if b.name.startswith("req/")}
        assert set(runtime._names) == reqs
        assert runtime.slo_s == 12e-3

    def test_spread_bounds_service_demand(self):
        combined, _ = build("openloop:rate=200,work_minstr=4,spread=0.25")
        for b in combined:
            if b.name.startswith("req/"):
                assert 3e6 <= b.total_instructions <= 5e6

    def test_patterns_share_the_family_shape(self):
        for pattern in ("poisson", "diurnal", "spike"):
            combined, _ = build(f"openloop:pattern={pattern},rate=150")
            assert any(b.name.startswith("req/") for b in combined), pattern


class TestBarrier:
    def test_group_geometry(self):
        combined, runtime = build(
            "barrier:groups=3,members=2,intervals=5,interval_minstr=10"
        )
        members = [b for b in combined if b.name.startswith("bar/")]
        assert len(members) == 6
        # Total work is exactly intervals x interval, so the final
        # barrier coincides with thread exit.
        assert all(b.total_instructions == 5 * 10e6 for b in members)
        assert len(runtime.groups) == 3
        for g, group in enumerate(runtime.groups):
            assert group.member_names == (f"bar/g{g}/m0", f"bar/g{g}/m1")
            assert group.interval_instr == 10e6
            assert group.n_intervals == 5

    def test_zero_imbalance_means_identical_members(self):
        combined, _ = build("barrier:groups=1,members=4,imbalance=0")
        schedules = {
            b.schedule.segments for b in combined if b.name.startswith("bar/")
        }
        assert len(schedules) == 1

    def test_imbalance_spreads_members(self):
        combined, _ = build("barrier:groups=1,members=4,imbalance=1")
        schedules = {
            b.schedule.segments for b in combined if b.name.startswith("bar/")
        }
        assert len(schedules) == 4


class TestSmt:
    def test_corunners_are_unbounded_memory_threads(self):
        combined, runtime = build("smt:cores=half,corunners=3")
        bg = [b for b in combined if b.name.startswith("smtbg/")]
        assert len(bg) == 3
        assert all(b.total_instructions is None for b in bg)
        assert runtime.corunner_names == tuple(b.name for b in bg)
        assert runtime.core_select == "half"

    def test_zero_corunners_allowed(self):
        combined, runtime = build("smt:corunners=0", base=base_workload())
        assert [b.name for b in combined] == ["base/0"]
        assert runtime.corunner_names == ()
