"""RunSpec identity: canonical form, cache keys, derived seeds."""

import dataclasses

import pytest

import repro
from repro.kernel.simulator import SimulationConfig
from repro.runner import RunSpec, config_fingerprint, derive_seed
from repro.runner.spec import SpecError, stable_hash


class TestCanonical:
    def test_canonical_is_json_primitive_only(self):
        spec = RunSpec(workload="MTMI")
        data = spec.canonical()

        def primitive(value):
            if isinstance(value, dict):
                return all(primitive(v) for v in value.values())
            if isinstance(value, (list, tuple)):
                return all(primitive(v) for v in value)
            return value is None or isinstance(value, (str, int, float, bool))

        assert primitive(data)

    def test_equal_specs_share_key_and_hash(self):
        a = RunSpec(workload="MTMI", threads=4, seed=3)
        b = RunSpec(workload="MTMI", threads=4, seed=3)
        assert a == b
        assert hash(a) == hash(b)
        assert a.spec_key() == b.spec_key()

    def test_every_spec_field_changes_the_key(self):
        base = RunSpec(workload="MTMI")
        variants = [
            RunSpec(workload="HTHI"),
            RunSpec(workload="MTMI", platform="biglittle"),
            RunSpec(workload="MTMI", threads=2),
            RunSpec(workload="MTMI", balancer="vanilla"),
            RunSpec(workload="MTMI", n_epochs=5),
            RunSpec(workload="MTMI", seed=1),
            RunSpec(workload="MTMI", workload_seed=9),
            RunSpec(workload="MTMI", faults="sensor"),
            RunSpec(workload="MTMI", faults="sensor", fault_seed=2),
            RunSpec(workload="MTMI", mitigations=False),
        ]
        keys = {base.spec_key()} | {v.spec_key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RunSpec(workload="MTMI", threads=0)
        with pytest.raises(ValueError):
            RunSpec(workload="MTMI", n_epochs=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("governor", 3, "governor must be a string, got 3"),
            ("governor", None, "governor must be a string, got None"),
            ("scenario", 3, "scenario must be a string, got 3"),
            ("threads", "4", "threads must be an integer, got '4'"),
            ("seed", False, "seed must be an integer, got False"),
            ("mitigations", 1, "mitigations must be a boolean, got 1"),
            ("fault_seed", 1.0, "fault_seed must be an integer or null, got 1.0"),
        ],
    )
    def test_wrongly_typed_value_refused(self, field, value, message):
        """Python callers get the job service's type check and text,
        also for a value equal to the field's default (``False == 0``)."""
        with pytest.raises(SpecError) as excinfo:
            RunSpec(workload="MTMI", **{field: value})
        assert excinfo.value.field == field
        assert str(excinfo.value) == message

    def test_label_mentions_the_essentials(self):
        label = RunSpec(
            workload="MTMI", threads=4, balancer="gts", faults="sensor"
        ).label()
        for token in ("MTMI", "x4", "gts", "faults=sensor"):
            assert token in label


class TestCacheKeyStaleness:
    """Satellite: a cache key must go stale with config or code."""

    def test_changed_config_field_changes_the_key(self):
        base = RunSpec(workload="MTMI")
        for change in (
            {"periods_per_epoch": 5},
            {"period_s": 0.012},
            {"os_noise_tasks": 2},
            {"thermal_enabled": True},
        ):
            varied = RunSpec(
                workload="MTMI",
                config=dataclasses.replace(SimulationConfig(), **change),
            )
            assert varied.spec_key() != base.spec_key(), change

    def test_config_seed_and_faults_do_not_leak_into_fingerprint(self):
        fp = config_fingerprint(SimulationConfig(seed=123))
        assert "seed" not in fp and "faults" not in fp
        assert fp == config_fingerprint(SimulationConfig(seed=456))

    def test_code_version_changes_the_key(self, monkeypatch):
        spec = RunSpec(workload="MTMI")
        before = spec.spec_key()
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert spec.spec_key() != before

    def test_stable_hash_is_order_insensitive(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})


class TestDerivedSeeds:
    def test_derivation_is_idempotent(self):
        spec = RunSpec(workload="MTMI", seed=0)
        once = spec.with_derived_seed(99)
        twice = once.with_derived_seed(99)
        assert once.seed == twice.seed
        assert once == twice

    def test_distinct_specs_decorrelate(self):
        seeds = {
            derive_seed(7, RunSpec(workload=w, threads=t))
            for w in ("MTMI", "HTHI", "LTLI")
            for t in (2, 4, 8)
        }
        assert len(seeds) == 9

    def test_base_seed_changes_the_derived_seed(self):
        spec = RunSpec(workload="MTMI")
        assert derive_seed(1, spec) != derive_seed(2, spec)

    def test_derived_seed_is_31_bit(self):
        for base in range(20):
            seed = derive_seed(base, RunSpec(workload="MTMI"))
            assert 0 <= seed < 2**31
