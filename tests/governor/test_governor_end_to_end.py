"""End-to-end governor runs: identity, gains, kernel equivalence.

Everything here goes through :func:`execute_spec` — the same path the
CLI, the sweep runner and the service use — so the contracts pinned
are the ones users get.
"""

import pytest

from reference_kernel import reference_kernel
from repro.governor import strategies
from repro.obs import ObsContext, build_report, render_report, validate_events
from repro.runner.engine import execute_spec
from repro.runner.serialize import metrics_digest
from repro.runner.factories import catalogue
from repro.runner.spec import RunSpec, SpecError
from repro.service.api import ApiError, spec_from_payload


def spec(governor="fixed", *, platform="dvfsquad", epochs=6):
    return RunSpec(
        workload="MTMI",
        platform=platform,
        threads=8,
        balancer="smartbalance",
        n_epochs=epochs,
        seed=0,
        governor=governor,
    )


class TestFixedIdentity:
    def test_fixed_is_byte_identical_to_default(self):
        """The default-off contract: governor='fixed' must reproduce
        the governor-free pipeline digest for digest."""
        default = execute_spec(spec())
        explicit = execute_spec(spec("fixed"))
        assert default.governor is None
        assert explicit.governor is None
        assert metrics_digest(default) == metrics_digest(explicit)

    def test_never_switching_governor_changes_nothing_physical(self):
        """pinned at the top (nominal) rung: the governor is active but
        every cluster stays at nominal, so no OPP change is ever
        queued and no core type is ever re-based."""
        result = execute_spec(spec("pinned:3"))
        assert result.governor is not None
        assert result.governor["opp_changes"] == 0


class TestGovernedRuns:
    @pytest.mark.parametrize("strategy", ["two_level"])
    def test_dynamic_strategy_switches_and_reports(self, strategy):
        result = execute_spec(spec(strategy))
        stats = result.governor
        assert stats is not None
        assert stats["strategy"] == strategy
        assert stats["epochs"] > 0
        assert stats["opp_changes"] > 0, "governor never left nominal V/f"
        assert stats["candidates_evaluated"] > 0
        assert stats["transition_energy_j"] > 0.0
        assert set(stats["levels"]) == {"Huge", "Big", "Medium", "Small"}

    @pytest.mark.parametrize("strategy", ["two_level"])
    def test_opp_hysteresis_gates_every_switch(self, strategy, monkeypatch):
        """The adoption gate charges ``OPP_MIN_IMPROVEMENT`` per switched
        cluster: priced out of reach, no OPP switch is ever adopted."""
        monkeypatch.setattr(strategies, "OPP_MIN_IMPROVEMENT", 1e9)
        assert execute_spec(spec(strategy)).governor["opp_changes"] == 0

    def test_two_level_beats_fixed_on_efficiency(self):
        fixed = execute_spec(spec())
        governed = execute_spec(spec("two_level"))
        assert governed.ips_per_watt > fixed.ips_per_watt

    def test_pinned_low_saves_power(self):
        fixed = execute_spec(spec())
        pinned = execute_spec(spec("pinned:0"))
        assert pinned.governor["opp_changes"] > 0
        assert pinned.average_power_w < fixed.average_power_w

    def test_governed_run_is_deterministic(self):
        first = execute_spec(spec("two_level"))
        second = execute_spec(spec("two_level"))
        assert metrics_digest(first) == metrics_digest(second)
        assert first.governor == second.governor

    def test_governor_survives_faults(self):
        """OPP re-basing composes with the fault layer (throttle faults
        rescale relative to the governed base type)."""
        faulted = RunSpec(
            workload="Mix1",
            platform="biglittle",
            threads=6,
            balancer="smartbalance",
            n_epochs=6,
            seed=3,
            faults="combined",
            governor="two_level",
        )
        first = execute_spec(faulted)
        second = execute_spec(faulted)
        assert first.governor is not None
        assert metrics_digest(first) == metrics_digest(second)


class TestTwoLevelConfigs:
    @pytest.fixture
    def two_level_context(self, monkeypatch):
        """The search context of a real ``two_level`` epoch."""
        contexts = []

        def capture(ctx):
            contexts.append(ctx)
            return strategies.two_level(ctx)

        monkeypatch.setitem(strategies.STRATEGIES, "two_level", capture)
        execute_spec(spec("two_level", epochs=2))
        return contexts[-1]

    @staticmethod
    def spy_configs(monkeypatch):
        """Every config ``strategies.anneal`` is called with, in order."""
        configs = []
        original = strategies.anneal

        def spy(objective, initial, config, **kwargs):
            configs.append(config)
            return original(objective, initial, config, **kwargs)

        monkeypatch.setattr(strategies, "anneal", spy)
        return configs

    def test_two_level_passes_the_config_through(
        self, two_level_context, monkeypatch
    ):
        """The final anneal gets ``ctx.sa_config`` itself and the screened
        inner ones share one reduced-iteration copy: ``e2ebench/layers.py``
        tells them apart by that identity."""
        ctx = two_level_context
        configs = self.spy_configs(monkeypatch)
        strategies.two_level(ctx)
        inner = [c for c in configs if c is not ctx.sa_config]
        assert len(inner) == min(
            len(strategies._candidate_levels(ctx)), strategies.SCREEN_TOP
        )
        assert all(c is inner[0] for c in inner)
        assert configs[len(inner)] is ctx.sa_config

    def test_two_level_fallback_gets_the_config_itself(
        self, two_level_context, monkeypatch
    ):
        """A joint winner that fails the OPP gate falls back to a
        placement-only anneal at the incumbent vector; that anneal, like
        the final one, gets ``ctx.sa_config`` itself."""
        ctx = two_level_context
        monkeypatch.setattr(strategies, "OPP_MIN_IMPROVEMENT", 1e9)
        configs = self.spy_configs(monkeypatch)
        outcome = strategies.two_level(ctx)
        n_candidates = len(strategies._candidate_levels(ctx))
        assert outcome.levels == ctx.current_levels
        assert outcome.candidates_evaluated == n_candidates + 1
        inner = min(n_candidates, strategies.SCREEN_TOP)
        assert len(configs) == inner + 2
        assert all(c is not ctx.sa_config for c in configs[:inner])
        assert all(c is ctx.sa_config for c in configs[inner:])


class TestKernelEquivalence:
    @pytest.mark.parametrize("strategy", ["two_level"])
    def test_soa_matches_reference_under_opp_changes(self, strategy):
        """The SoA engine's on_core_type_changed path must track
        mid-run OPP re-basing exactly."""
        with reference_kernel():
            reference = execute_spec(spec(strategy))
        soa = execute_spec(spec(strategy))
        assert reference.governor["opp_changes"] > 0
        assert metrics_digest(reference) == metrics_digest(soa)


class TestObservability:
    def test_trace_schema_and_report_section(self):
        obs = ObsContext()
        execute_spec(spec("two_level"), obs=obs)
        events = obs.tracer.events
        assert not validate_events(events)
        types = {e["type"] for e in events}
        assert "governor_decision" in types
        assert "opp_change" in types
        rendered = render_report(build_report(events))
        assert "Governor (joint placement + DVFS)" in rendered

    def test_governor_search_span_and_traced_digest(self):
        """Each governed decision is timed as ``span.governor_search``,
        and tracing leaves the simulated metrics byte-identical."""
        obs = ObsContext()
        traced = execute_spec(spec("two_level"), obs=obs)
        timings = obs.metrics.snapshot()["timings"]
        assert traced.governor["epochs"] == 5
        assert timings["span.governor_search"]["count"] == traced.governor["epochs"]
        untraced = execute_spec(spec("two_level"))
        assert metrics_digest(traced) == metrics_digest(untraced)

    def test_governor_summary_counts_match_stats(self):
        obs = ObsContext()
        result = execute_spec(spec("two_level"), obs=obs)
        report = build_report(obs.tracer.events)
        summary = report["governor"]
        assert summary["strategy"] == "two_level"
        assert summary["opp_switches"] == result.governor["opp_changes"]
        assert summary["final_levels"] == {
            cluster: level
            for cluster, level in result.governor["levels"].items()
            if level != 3  # unswitched clusters stayed at top: absent
        }


class TestServiceApi:
    def payload(self, **overrides):
        base = {
            "workload": "MTMI",
            "platform": "dvfsquad",
            "threads": 8,
            "balancer": "smartbalance",
            "n_epochs": 4,
        }
        base.update(overrides)
        return base

    def test_governor_accepted(self):
        parsed = spec_from_payload(self.payload(governor="two_level"))
        assert parsed.governor == "two_level"

    def test_pinned_pattern_accepted(self):
        assert spec_from_payload(self.payload(governor="pinned:1")).governor == "pinned:1"

    def test_default_is_fixed(self):
        assert spec_from_payload(self.payload()).governor == "fixed"

    def test_unknown_governor_rejected(self):
        with pytest.raises(ApiError):
            spec_from_payload(self.payload(governor="ondemand"))

    def test_malformed_pinned_rejected(self):
        with pytest.raises(ApiError, match="pinned"):
            spec_from_payload(self.payload(governor="pinned:low"))

    def test_governor_requires_smartbalance(self):
        with pytest.raises(ApiError, match="smartbalance"):
            spec_from_payload(
                self.payload(balancer="vanilla", governor="two_level")
            )

    def test_bare_pinned_rejected_with_field(self):
        """``pinned`` without a level used to pass validation and die in
        the worker; the catalogue lists it only as ``pinned:<level>``."""
        with pytest.raises(ApiError, match="needs a level") as excinfo:
            spec_from_payload(self.payload(governor="pinned"))
        assert excinfo.value.field == "governor"

    @pytest.mark.parametrize(
        "value, canonical",
        [(" fixed", "fixed"), ("pinned:01", "pinned:1")],
        ids=["padded_name", "padded_level"],
    )
    def test_non_canonical_spelling_rejected(self, value, canonical):
        """A second spelling would queue a job under a second spec key
        (and ``" fixed"`` would die in the worker as a governor)."""
        with pytest.raises(ApiError, match=f"as '{canonical}'") as excinfo:
            spec_from_payload(self.payload(governor=value))
        assert excinfo.value.field == "governor"


class TestSpecValidation:
    """A governor no worker could build fails at RunSpec construction."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"governor": "pinned"},
            {"governor": "warp"},
            {"governor": "pinned:-1"},
            {"governor": "two_level", "balancer": "vanilla"},
            {"governor": "two_level", "balancer": "tpeq"},
            {"governor": " fixed"},
            {"governor": "pinned:01"},
        ],
    )
    def test_unbuildable_governor_refused(self, overrides):
        with pytest.raises(SpecError) as excinfo:
            RunSpec(workload="MTMI", **overrides)
        assert excinfo.value.field == "governor"

    def test_catalogue_lists_only_standalone_strategies(self):
        names = catalogue()
        assert "pinned" not in names["governors"]
        assert names["governor_patterns"] == ["pinned:<level>"]
