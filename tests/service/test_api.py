"""API schema validation: payload <-> RunSpec round trips and refusals."""

import dataclasses

import pytest

from repro.hardware.sensors import NoiseModel
from repro.kernel.simulator import SimulationConfig
from repro.runner import RunSpec, catalogue, workload_names
from repro.service.api import (
    ApiError,
    payload_from_spec,
    spec_from_payload,
    spec_to_dict,
    specs_from_request,
)


class TestRoundTrip:
    def test_default_spec_round_trips(self):
        spec = RunSpec(workload="MTMI", threads=4)
        assert spec_from_payload(payload_from_spec(spec)) == spec

    def test_custom_spec_round_trips(self):
        spec = RunSpec(
            workload="Mix3",
            platform="hmp:6",
            threads=2,
            balancer="gts",
            n_epochs=7,
            seed=42,
            workload_seed=7,
            faults="sensor",
            fault_seed=3,
            mitigations=False,
        )
        assert spec_from_payload(payload_from_spec(spec)) == spec

    def test_scenario_spec_round_trips(self):
        spec = RunSpec(
            workload="MTMI",
            platform="biglittle",
            threads=4,
            balancer="tpeq",
            scenario="barrier:groups=1,members=3,intervals=3",
        )
        assert spec_from_payload(payload_from_spec(spec)) == spec

    def test_custom_config_round_trips(self):
        config = dataclasses.replace(
            SimulationConfig(),
            periods_per_epoch=5,
            thermal_enabled=True,
            counter_noise=NoiseModel(sigma=0.1, clip=0.2),
        )
        spec = RunSpec(workload="MTMI", threads=2, config=config)
        payload = payload_from_spec(spec)
        # Only the diff from the default config goes over the wire.
        assert set(payload["config"]) == {
            "periods_per_epoch", "thermal_enabled", "counter_noise",
        }
        rebuilt = spec_from_payload(payload)
        assert rebuilt.spec_key() == spec.spec_key()

    def test_minimal_payload_gets_spec_defaults(self):
        spec = spec_from_payload({"workload": "MTMI"})
        reference = RunSpec(workload="MTMI")
        assert spec == reference

    def test_spec_to_dict_carries_config_fingerprint(self):
        spec = RunSpec(workload="MTMI", threads=2)
        data = spec_to_dict(spec)
        assert data["workload"] == "MTMI"
        assert "periods_per_epoch" in data["config"]


class TestRefusals:
    def test_non_object_payload(self):
        with pytest.raises(ApiError):
            spec_from_payload(["MTMI"])

    def test_unknown_spec_field(self):
        with pytest.raises(ApiError, match="unknown spec field"):
            spec_from_payload({"workload": "MTMI", "wrokload": "MTMI"})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("workload", "doom"),
            ("platform", "toaster"),
            ("platform", "hmp:zero"),
            ("platform", "hmp:0"),
            ("balancer", "magic"),
            ("faults", "asteroid"),
            ("scenario", "bogus:nope=1"),
            ("scenario", "openloop:rate=-5"),
            ("scenario", "barrier:members"),
        ],
    )
    def test_unknown_names_are_refused_with_field(self, field, value):
        payload = {"workload": "MTMI", field: value}
        with pytest.raises(ApiError) as excinfo:
            spec_from_payload(payload)
        assert excinfo.value.field == field
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "field,value",
        [
            ("threads", "four"),
            ("threads", True),
            ("threads", 0),
            ("n_epochs", 1.5),
            ("seed", None),
            ("workload_seed", "x"),
            ("mitigations", "yes"),
            ("scenario", 3),
        ],
    )
    def test_bad_types_are_refused(self, field, value):
        with pytest.raises(ApiError):
            spec_from_payload({"workload": "MTMI", field: value})

    def test_config_seed_is_owned_by_the_spec(self):
        with pytest.raises(ApiError, match="owned by the spec"):
            spec_from_payload({"workload": "MTMI", "config": {"seed": 1}})

    def test_config_unknown_field(self):
        with pytest.raises(ApiError, match="unknown config field"):
            spec_from_payload({"workload": "MTMI", "config": {"warp": 9}})

    def test_config_kernel_is_checked_by_the_config(self):
        with pytest.raises(ApiError, match="kernel must be") as excinfo:
            spec_from_payload({"workload": "MTMI", "config": {"kernel": "warp"}})
        assert excinfo.value.field == "config"

    def test_config_kernel_must_be_a_string(self):
        with pytest.raises(ApiError, match="a string") as excinfo:
            spec_from_payload({"workload": "MTMI", "config": {"kernel": 1}})
        assert excinfo.value.field == "kernel"

    def test_config_bad_noise_model(self):
        with pytest.raises(ApiError) as excinfo:
            spec_from_payload(
                {"workload": "MTMI", "config": {"counter_noise": {"omega": 1}}}
            )
        assert excinfo.value.field == "counter_noise"


class TestRequestEnvelope:
    def test_single_spec(self):
        specs, options = specs_from_request(
            {"spec": {"workload": "MTMI"}, "priority": 3, "timeout_s": 2}
        )
        assert len(specs) == 1 and specs[0].workload == "MTMI"
        assert options == {"priority": 3, "timeout_s": 2.0}

    def test_sweep_expands_in_order(self):
        specs, options = specs_from_request(
            {"specs": [{"workload": "MTMI"}, {"workload": "HTHI"}]}
        )
        assert [s.workload for s in specs] == ["MTMI", "HTHI"]
        assert options == {"priority": 0, "timeout_s": None}

    def test_spec_xor_specs(self):
        with pytest.raises(ApiError, match="exactly one"):
            specs_from_request({})
        with pytest.raises(ApiError, match="exactly one"):
            specs_from_request(
                {"spec": {"workload": "MTMI"}, "specs": [{"workload": "MTMI"}]}
            )

    def test_empty_sweep_refused(self):
        with pytest.raises(ApiError, match="non-empty"):
            specs_from_request({"specs": []})

    def test_unknown_envelope_field(self):
        with pytest.raises(ApiError, match="unknown request field"):
            specs_from_request({"spec": {"workload": "MTMI"}, "prio": 1})

    @pytest.mark.parametrize("priority", ["high", 1.5, True])
    def test_bad_priority(self, priority):
        with pytest.raises(ApiError):
            specs_from_request({"spec": {"workload": "MTMI"},
                                "priority": priority})

    @pytest.mark.parametrize("timeout", [0, -1, "fast", True])
    def test_bad_timeout(self, timeout):
        with pytest.raises(ApiError):
            specs_from_request({"spec": {"workload": "MTMI"},
                                "timeout_s": timeout})


class TestCatalogueConsistency:
    def test_every_catalogue_name_is_accepted(self):
        """The API and `repro list --json` share one source of truth:
        any name the catalogue advertises must validate."""
        names = catalogue()
        for workload in sorted(workload_names()):
            spec_from_payload({"workload": workload})
        for balancer in names["balancers"]:
            spec_from_payload({"workload": "MTMI", "balancer": balancer})
        for platform in names["platforms"]:
            spec_from_payload({"workload": "MTMI", "platform": platform})
        for fault in names["faults"]:
            spec_from_payload({"workload": "MTMI", "faults": fault})
        for governor in names["governors"]:
            spec_from_payload({"workload": "MTMI", "governor": governor})
