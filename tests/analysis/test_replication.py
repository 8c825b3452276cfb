"""Tests for multi-seed replication and bootstrap intervals."""

import pytest

from repro.analysis.replication import bootstrap_ci, replicate
from repro.runner import RunSpec, run_specs


class TestBootstrapCi:
    def test_constant_sample_degenerate_interval(self):
        low, high = bootstrap_ci([5.0] * 10)
        assert low == high == 5.0

    def test_interval_brackets_mean(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        low, high = bootstrap_ci(values, seed=1)
        assert low <= 3.0 <= high

    def test_wider_confidence_wider_interval(self):
        values = [1.0, 4.0, 2.0, 8.0, 3.0, 6.0]
        n50 = bootstrap_ci(values, confidence=0.5, seed=2)
        n99 = bootstrap_ci(values, confidence=0.99, seed=2)
        assert (n99[1] - n99[0]) >= (n50[1] - n50[0])

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.5)


class TestReplicate:
    def test_deterministic_measure(self):
        result = replicate(lambda seed: float(seed), n_seeds=4, base_seed=10)
        assert result.values == (10.0, 11.0, 12.0, 13.0)
        assert result.mean == pytest.approx(11.5)
        assert result.n == 4

    def test_render_mentions_interval(self):
        result = replicate(lambda seed: 42.0, n_seeds=3)
        text = result.render(unit="%")
        assert "42" in text and "CI" in text

    def test_zero_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(lambda seed: 0.0, n_seeds=0)


class TestCompareWithReplication:
    def test_smart_vs_vanilla_interval_positive(self):
        """The headline claim holds across seeds: the whole confidence
        interval of the improvement lies above zero."""

        def spec(balancer, seed):
            return RunSpec(workload="MTMI", platform="quad", threads=8,
                           balancer=balancer, n_epochs=15, seed=seed)

        specs = [spec(b, seed) for seed in range(4) for b in ("vanilla", "smartbalance")]
        results = dict(zip(specs, run_specs(specs)))
        result = replicate(
            lambda seed: results[spec("smartbalance", seed)].improvement_over(
                results[spec("vanilla", seed)]
            ),
            n_seeds=4,
        )
        assert result.n == 4
        assert result.ci_low > 0.0
        assert result.mean > 20.0
