"""The shipped Θ predictor and what a stock run leaves unimported.

``default_predictor`` loads ``repro/core/default_predictor.json``
instead of training.  The file must stay the exact output of
``python -m repro train`` (seed 7), so retraining here has to reproduce
it byte for byte; if it does not, the file is stale (or this host's
LAPACK rounds differently) and every digest pinned elsewhere describes
the shipped coefficients, not a fresh fit.
"""

import json
import os
import subprocess
import sys
import textwrap
from importlib import resources

import pytest

import repro
from repro.core import training
from repro.core.training import default_predictor, train_predictor
from repro.hardware.features import BUILTIN_TYPES


@pytest.fixture(scope="module")
def shipped_text():
    return resources.files("repro.core").joinpath("default_predictor.json").read_text()


def test_retraining_reproduces_the_shipped_file(shipped_text):
    model = train_predictor(tuple(BUILTIN_TYPES.values()), seed=7)
    assert json.dumps(model.to_dict(), indent=2) == shipped_text


def test_loaded_model_round_trips_to_the_shipped_file(shipped_text):
    assert json.dumps(default_predictor().to_dict(), indent=2) == shipped_text


def test_default_predictor_never_trains(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("default_predictor() trained a model")

    monkeypatch.setattr(training, "train_predictor", refuse)
    default_predictor.cache_clear()
    model = default_predictor()
    assert set(model.type_names) == set(BUILTIN_TYPES)
    assert len(model.theta) == len(BUILTIN_TYPES) * (len(BUILTIN_TYPES) - 1)
    assert default_predictor() is model


#: Imported only by runs that opt in to them (adaptation), by the
#: commands that write or read traces, or by the extension experiments
#: (the comparison optimizers and sparse virtual sensing).
UNUSED_BY_STOCK_RUNS = (
    "repro.adaptation",
    "repro.obs.export",
    "repro.obs.report",
    "repro.core.optimizers",
    "repro.core.virtual_sensing",
)

#: Two ways into a smartbalance run; ``run(adapt)`` is true on success.
_RUNNER = """
    from repro.runner.engine import execute_spec
    from repro.runner.spec import RunSpec

    def run(adapt):
        spec = RunSpec(workload="MTMI", threads=4, n_epochs=2, adaptation=adapt)
        return execute_spec(spec).ips_per_watt > 0
"""
_CLI = """
    from repro.cli import main

    def run(adapt):
        argv = ["run", "--workload", "MTMI", "--threads", "4", "--epochs", "2"]
        return main(argv + ["--adapt"] * adapt) == 0
"""


@pytest.mark.parametrize("entry", [_RUNNER, _CLI], ids=["runner", "cli"])
def test_stock_run_imports_no_unused_layer(entry):
    script = textwrap.dedent(entry) + textwrap.dedent(f"""
        import json, sys

        def loaded():
            return [m for m in {UNUSED_BY_STOCK_RUNS!r} if m in sys.modules]

        stock = run(False)
        before = loaded()
        adapted = run(True)
        print(json.dumps([stock, before, adapted, loaded()]))
    """)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    stock, before, adapted, after = json.loads(out.splitlines()[-1])
    assert stock and adapted
    assert before == []
    assert after == ["repro.adaptation"]
