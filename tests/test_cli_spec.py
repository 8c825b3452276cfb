"""The CLI is generated from the RunSpec knob table and runs through it.

A command line and its equivalent :class:`RunSpec` must produce the
same run; ``submit`` must send exactly that spec; the flag set of each
subcommand is pinned (CI smoke jobs call these flags); and ``repro
list`` renders the same catalogue the service validates against.
"""

import argparse
import json

import pytest

import repro.cli
from repro.cli import build_parser, main, spec_from_args
from repro.runner.engine import execute_spec
from repro.runner.factories import catalogue
from repro.runner.serialize import metrics_dict
from repro.runner.spec import RunSpec
from repro.service.api import payload_from_spec, spec_from_payload

EQUIVALENT = [
    (
        ["--workload", "MTMI", "--threads", "4", "--epochs", "3",
         "--platform", "dvfsquad", "--governor", "two_level"],
        RunSpec(workload="MTMI", threads=4, n_epochs=3, platform="dvfsquad",
                governor="two_level"),
    ),
    (
        ["--workload", "MTMI", "--threads", "4", "--epochs", "3",
         "--platform", "biglittle", "--scenario", "openloop",
         "--faults", "combined", "--adapt"],
        RunSpec(workload="MTMI", threads=4, n_epochs=3, platform="biglittle",
                scenario="openloop", faults="combined", adaptation=True),
    ),
]


@pytest.mark.parametrize("flags,spec", EQUIVALENT)
def test_run_json_equals_execute_spec(flags, spec, capsys):
    assert main(["run", *flags, "--json"]) == 0
    from_cli = json.loads(capsys.readouterr().out)
    from_spec = json.loads(json.dumps(metrics_dict(execute_spec(spec))))
    assert from_cli == from_spec


@pytest.mark.parametrize("flags,spec", EQUIVALENT)
def test_submit_sends_the_same_spec(flags, spec):
    args = build_parser().parse_args(["submit", *flags])
    submitted = spec_from_args(args)
    assert submitted == spec
    assert spec_from_payload(payload_from_spec(submitted)) == spec


def test_cli_default_epochs_differ_from_spec_default():
    args = build_parser().parse_args(["run", "--workload", "MTMI"])
    assert spec_from_args(args) == RunSpec(workload="MTMI", n_epochs=40)


def _option_strings(command: str) -> "set[str]":
    parser = build_parser()
    sub = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        option
        for action in sub.choices[command]._actions
        for option in action.option_strings
    }


KNOB_FLAGS = {
    "--workload", "--platform", "--threads", "--epochs", "--seed",
    "--faults", "--fault-seed",
}
SMART_FLAGS = {
    "--balancer", "--no-mitigations", "--adapt", "--no-adapt",
    "--governor", "--scenario",
}


@pytest.mark.parametrize(
    "command,expected",
    [
        ("run", KNOB_FLAGS | SMART_FLAGS | {
            "-h", "--help", "--trace", "--trace-out", "--json",
        }),
        ("submit", KNOB_FLAGS | SMART_FLAGS | {
            "-h", "--help", "--host", "--port", "--priority", "--timeout",
            "--wait", "--follow", "--wait-timeout",
        }),
        ("compare", KNOB_FLAGS | {"-h", "--help"}),
        ("experiments", {
            "-h", "--help", "--scale", "--jobs", "--cache", "--cache-dir",
            "--base-seed", "--trace-dir",
        }),
    ],
)
def test_subcommand_flags_are_pinned(command, expected):
    assert _option_strings(command) == expected


def test_list_text_covers_the_catalogue(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    names = catalogue()
    for group in ("balancers", "governors", "governor_patterns", "faults"):
        for name in names[group]:
            assert name in out, f"{group}: {name} missing from `repro list`"


def test_bare_pinned_governor_exits_before_simulating(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("simulated an invalid spec")

    monkeypatch.setattr(repro.cli, "execute_spec", never)
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--workload", "MTMI", "--governor", "pinned"])
    assert "needs a level" in str(excinfo.value.code)
