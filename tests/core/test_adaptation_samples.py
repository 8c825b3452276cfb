"""The adaptation step's samples, against the per-record form.

``SmartBalance._adaptation_step`` reads each healthy thread's IPC and
power from the sense phase's columns and remembers its Eq. 8 features
for next epoch's cross-type sample.  :func:`record_samples` is the same
step as it read one record with its readings at a time
(``sensed_tasks.SensedTask``, ``scalar_matrices.feature_vector``).  Over
two epochs, the second with every thread moved to another core type,
the controller must receive the same pair and power samples, with
equal Python floats and features equal element for element.
"""

import numpy as np

from repro.adaptation.controller import PairSample, PowerSample
from repro.core.balancer import SmartBalance
from repro.core.config import SmartBalanceConfig
from repro.core.training import default_predictor
from repro.experiments.fig7 import synthetic_view
from scalar_matrices import feature_vector
from sensed_tasks import sensed_tasks, sensed_view


def record_samples(previous: dict, healthy) -> "tuple[list, list]":
    """The epoch's (pair samples, power samples) from records, updating
    ``previous`` (tid to (core-type name, features)) as the step does."""
    ipc_samples, power_samples = [], []
    for task in healthy:
        dst = task.core_type.name
        ipc = task.rates.ipc
        prev = previous.get(task.tid)
        if prev is not None and prev[0] != dst and ipc > 0:
            ipc_samples.append(PairSample(prev[0], dst, prev[1], ipc, None))
        if ipc > 0 and task.power_w > 0:
            power_samples.append(PowerSample(dst, ipc, task.power_w))
    for task in healthy:
        previous[task.tid] = (task.core_type.name, feature_vector(task))
    return ipc_samples, power_samples


def moved(view):
    """``view`` with every thread measured on the next core, so on
    another type, at that core's clock (``ips = ipc · f``)."""
    platform = view.platform
    tasks = []
    for task in sensed_tasks(view):
        core = platform[(task.core_id + 1) % len(platform)]
        rates = task.rates._replace(ips=task.rates.ipc * core.core_type.freq_hz)
        tasks.append(
            task._replace(core_id=core.core_id, core_type=core.core_type, rates=rates)
        )
    return sensed_view(tasks, view)


def same_samples(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        for name in a.__dataclass_fields__:
            x, y = getattr(a, name), getattr(b, name)
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            else:
                assert type(x) is type(y) and x == y, name


def test_samples_match_the_record_form():
    balancer = SmartBalance(
        default_predictor(), SmartBalanceConfig(adaptation=True)
    )
    controller = balancer.adaptation
    received = []
    observe = controller.observe_epoch

    def recording(ipc_samples, power_samples, **kwargs):
        received.append((list(ipc_samples), list(power_samples)))
        return observe(ipc_samples, power_samples, **kwargs)

    controller.observe_epoch = recording
    views = [synthetic_view(4, 8, seed=1)]
    views.append(moved(synthetic_view(4, 8, seed=2)))
    previous: dict = {}
    for view in views:
        balancer.decide(view)
        healthy = [t for t in sensed_tasks(view) if t.is_user and t.has_measurement]
        want = record_samples(previous, healthy)
        got = received[-1]
        same_samples(got[0], want[0])
        same_samples(got[1], want[1])
    assert len(received) == 2
    assert len(received[1][0]) == 8 and len(received[1][1]) == 8
    assert set(balancer._adapt_prev) == set(previous)
    for tid, (type_name, features) in previous.items():
        got_type, got_features = balancer._adapt_prev[tid]
        assert got_type == type_name
        assert got_features.tobytes() == features.tobytes()
