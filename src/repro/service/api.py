"""Request validation: JSON payloads <-> :class:`RunSpec`.

The service speaks the same vocabulary as the CLI: a job payload is
the JSON shape of a :class:`~repro.runner.spec.RunSpec`, validated
field by field from the spec's own knob table, with names checked
against :func:`repro.runner.factories.catalogue` — the same source of
truth ``repro list --json`` prints — so a spec the API accepts is
exactly a spec the runner can execute.

Validation errors raise :class:`ApiError` with an HTTP status and a
``field`` naming the offending key; the server maps them straight to
JSON error responses without ever calling into the simulator.
"""

from __future__ import annotations

from dataclasses import MISSING
from typing import Optional

from repro.hardware.sensors import NoiseModel
from repro.kernel.simulator import SimulationConfig
from repro.runner.spec import (
    KNOBS,
    Knob,
    RunSpec,
    SpecError,
    config_fingerprint,
    knob_type,
)


class ApiError(Exception):
    """A request the service refuses, with its HTTP status."""

    def __init__(self, message: str, status: int = 400,
                 field: Optional[str] = None) -> None:
        super().__init__(message)
        self.status = status
        self.field = field

    def to_dict(self) -> dict:
        payload = {"error": str(self)}
        if self.field is not None:
            payload["field"] = self.field
        return payload


#: ``SimulationConfig`` fields settable through the API.  ``seed`` and
#: ``faults`` are owned by the spec (same rule as ``RunSpec.config``).
CONFIG_FIELDS = {
    "period_s": float,
    "periods_per_epoch": int,
    "os_noise_tasks": int,
    "thermal_enabled": bool,
    "counter_noise": dict,
    "power_noise": dict,
    "kernel": str,
}

_JSON_TYPE_NAMES = {int: "an integer", str: "a string", bool: "a boolean"}


def _noise_model(data: object, key: str) -> NoiseModel:
    if not isinstance(data, dict):
        raise ApiError(f"{key} must be an object with sigma/clip", field=key)
    unknown = set(data) - {"sigma", "clip"}
    if unknown:
        raise ApiError(f"unknown {key} field(s) {sorted(unknown)}", field=key)
    try:
        return NoiseModel(**{k: float(v) for k, v in data.items()})
    except (TypeError, ValueError) as exc:
        raise ApiError(f"invalid {key}: {exc}", field=key) from None


def _config_from_payload(data: object) -> SimulationConfig:
    if not isinstance(data, dict):
        raise ApiError("config must be an object", field="config")
    unknown = set(data) - set(CONFIG_FIELDS)
    if unknown & {"seed", "faults"}:
        raise ApiError(
            "config.seed and config.faults are owned by the spec; set "
            "the top-level seed / faults fields instead",
            field="config",
        )
    if unknown:
        raise ApiError(f"unknown config field(s) {sorted(unknown)}",
                       field="config")
    kwargs: dict = {}
    for key, value in data.items():
        expected = CONFIG_FIELDS[key]
        if expected is dict:
            kwargs[key] = _noise_model(value, key)
        elif expected in (bool, str):
            if not isinstance(value, expected):
                raise ApiError(
                    f"{key} must be {_JSON_TYPE_NAMES[expected]}", field=key
                )
            kwargs[key] = value
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ApiError(f"{key} must be a number", field=key)
            kwargs[key] = expected(value)
    try:
        # Value checks (e.g. kernel in soa/reference) are the config's own.
        return SimulationConfig(**kwargs)
    except ValueError as exc:
        raise ApiError(f"invalid config: {exc}", field="config") from None


def _knob_value(name: str, spec_knob: Knob, value: object) -> object:
    """Type-check one payload value and its name against the catalogue."""
    base, nullable = knob_type(name)
    if base is SimulationConfig:
        return SimulationConfig() if value is None else _config_from_payload(value)
    if nullable and value is None:
        return None
    if not isinstance(value, base) or (base is not bool and isinstance(value, bool)):
        raise ApiError(
            f"{name} must be {_JSON_TYPE_NAMES[base]}"
            f"{' or null' if nullable else ''}, got {value!r}",
            field=name,
        )
    if spec_knob.choices and value not in spec_knob.choices:
        raise ApiError(
            f"unknown {name} {value!r}; one of {list(spec_knob.choices)}",
            field=name,
        )
    if spec_knob.known is not None:
        try:
            spec_knob.known(value)
        except ValueError as exc:
            raise ApiError(str(exc), field=name) from None
    return value


def spec_from_payload(payload: object) -> RunSpec:
    """Validate one job payload and build its :class:`RunSpec`.

    Every key is checked against the :class:`~repro.runner.spec.Knob`
    table and every name against the catalogue *before* touching the
    simulator, so a bad request costs microseconds, not a traceback in
    a worker process.
    """
    if not isinstance(payload, dict):
        raise ApiError("job spec must be a JSON object")
    unknown = set(payload) - {f.name for f, _ in KNOBS}
    if unknown:
        raise ApiError(f"unknown spec field(s) {sorted(unknown)}")
    values = {}
    for f, spec_knob in KNOBS:
        if f.name in payload:
            values[f.name] = _knob_value(f.name, spec_knob, payload[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ApiError(f"{f.name} is required", field=f.name)
    try:
        return RunSpec(**values)
    except SpecError as exc:
        raise ApiError(str(exc), field=exc.field) from None


def payload_from_spec(spec: RunSpec) -> dict:
    """The JSON payload that round-trips to ``spec``.

    ``payload_from_spec`` and :func:`spec_from_payload` are exact
    inverses (pinned by the API tests), which is what lets the client
    submit real :class:`RunSpec` objects over the wire.
    """
    payload = spec.canonical()
    default = config_fingerprint(SimulationConfig())
    payload["config"] = {
        key: value for key, value in payload["config"].items()
        if value != default[key]
    }
    if not payload["config"]:
        del payload["config"]
    return payload


def specs_from_request(body: object) -> "tuple[list[RunSpec], dict]":
    """Parse a ``POST /v1/jobs`` body.

    Accepts ``{"spec": {...}}`` or ``{"specs": [{...}, ...]}`` plus
    the per-request options ``priority`` (int, higher runs first) and
    ``timeout_s`` (positive number).  Returns the validated specs and
    an options dict.
    """
    if not isinstance(body, dict):
        raise ApiError("request body must be a JSON object")
    unknown = set(body) - {"spec", "specs", "priority", "timeout_s"}
    if unknown:
        raise ApiError(f"unknown request field(s) {sorted(unknown)}")
    if ("spec" in body) == ("specs" in body):
        raise ApiError('exactly one of "spec" or "specs" is required')

    if "spec" in body:
        raw_specs = [body["spec"]]
    else:
        raw_specs = body["specs"]
        if not isinstance(raw_specs, list) or not raw_specs:
            raise ApiError('"specs" must be a non-empty array', field="specs")

    priority = body.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ApiError("priority must be an integer", field="priority")

    timeout_s = body.get("timeout_s")
    if timeout_s is not None:
        if isinstance(timeout_s, bool) or not isinstance(timeout_s, (int, float)):
            raise ApiError("timeout_s must be a number", field="timeout_s")
        if timeout_s <= 0:
            raise ApiError("timeout_s must be positive", field="timeout_s")
        timeout_s = float(timeout_s)

    specs = [spec_from_payload(raw) for raw in raw_specs]
    return specs, {"priority": priority, "timeout_s": timeout_s}


def spec_to_dict(spec: RunSpec) -> dict:
    """Spec as shown in job-status responses (canonical identity)."""
    return spec.canonical()
