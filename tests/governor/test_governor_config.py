"""GovernorConfig validation and CLI spec parsing."""

import pytest

from repro.governor import GOVERNOR_STRATEGIES, GovernorConfig, parse_governor, strategies
from repro.governor.config import N_POINTS, OPP_MIN_IMPROVEMENT
from repro.runner.factories import catalogue


class TestGovernorConfig:
    def test_defaults_valid(self):
        config = GovernorConfig(strategy="two_level")
        assert config.pinned_level is None
        assert N_POINTS == 4
        assert OPP_MIN_IMPROVEMENT > 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            GovernorConfig(strategy="turbo")

    def test_pinned_requires_level(self):
        with pytest.raises(ValueError, match="pinned_level"):
            GovernorConfig(strategy="pinned")

    def test_negative_pinned_level_rejected(self):
        with pytest.raises(ValueError, match="pinned_level"):
            GovernorConfig(strategy="pinned", pinned_level=-1)

    def test_level_without_pinned_strategy_rejected(self):
        with pytest.raises(ValueError, match="pinned_level"):
            GovernorConfig(strategy="two_level", pinned_level=2)


class TestParseGovernor:
    @pytest.mark.parametrize("name", ["fixed", "two_level"])
    def test_bare_strategies(self, name):
        assert name in GOVERNOR_STRATEGIES
        assert parse_governor(name).strategy == name

    def test_pinned_with_level(self):
        config = parse_governor("pinned:2")
        assert config.strategy == "pinned"
        assert config.pinned_level == 2

    def test_pinned_without_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            parse_governor("pinned")

    def test_pinned_bad_level_rejected(self):
        with pytest.raises(ValueError, match="pinned level"):
            parse_governor("pinned:lowest")

    def test_unknown_name_rejected(self):
        for name in ("ondemand", "coupled_anneal", "pinnedXYZ:1"):
            with pytest.raises(ValueError, match="unknown governor"):
                parse_governor(name)

    def test_whitespace_tolerated(self):
        assert parse_governor("  two_level ").strategy == "two_level"


def test_every_accepted_strategy_has_a_search():
    """A name ``parse_governor`` accepts but ``STRATEGIES`` lacks would
    validate and then raise ``KeyError`` at its first decision."""
    accepted = {
        parse_governor("pinned:0" if name == "pinned" else name).strategy
        for name in GOVERNOR_STRATEGIES
    }
    assert accepted - {"fixed"} == set(strategies.STRATEGIES)
    assert catalogue()["governors"] == ["fixed", "two_level"]
