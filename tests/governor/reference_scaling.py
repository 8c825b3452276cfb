"""Reference copy of the governor's view normalisation, for differential
tests.

This is ``repro.governor.scaling.normalize_view`` as it was when each
task record carried its own rates and power: :func:`normalize_thread`
re-expresses one record at a time, and :func:`normalize_view` maps it
over the tasks.  It reads a view's tasks through
``sensed_tasks.SensedTask``, the record with its PMU readings, and
builds its result from them.  ``test_normalize_oracle.py`` requires
the normalisation in ``repro.governor.scaling`` to give the same
records, by ``==`` and ``repr``, and the same PMU block, byte for byte.

Keep it as it is: it is the specification, not code to optimise.
"""

from __future__ import annotations

from dataclasses import replace

from repro.governor.scaling import dynamic_ratio, freq_ratio
from repro.hardware import power as power_model
from repro.hardware.features import CoreType
from repro.kernel.view import SystemView
from sensed_tasks import SensedTask, sensed_tasks, sensed_view


def normalize_thread(task: SensedTask, nominal: CoreType) -> SensedTask:
    """Re-express one scaled-OPP measurement in the nominal frame.

    Identity when the task was already measured at nominal — the
    common case returns the (immutable) task itself.

    The inverse laws: ``ips_nom = ips / r`` (IPC invariant, so the
    clock identity ``ips_nom / ipc ≈ f_nom`` still holds and throttle
    faults stay detectable), ``util_nom = util · r`` (exact unless the
    thread saturated the slowed core, where the saturation clipped the
    information away), ``p_nom = (p − leak_opp) / s + leak_nom``
    (clamped non-negative; sensor noise can push the dynamic part
    below zero).
    """
    applied = task.core_type
    if applied == nominal:
        return task
    r = freq_ratio(nominal, applied)
    s = dynamic_ratio(nominal, applied)
    leak_applied = power_model.leakage_power(applied)
    leak_nominal = power_model.leakage_power(nominal)
    power_w = task.power_w
    if power_w > 0:
        power_w = max((power_w - leak_applied) / s + leak_nominal, 0.0)
    return task._replace(
        core_type=nominal,
        rates=task.rates._replace(ips=task.rates.ips / r),
        utilization=min(task.utilization * r, 1.0),
        power_w=power_w,
    )


def normalize_view(
    view: SystemView,
    nominal_by_core: "dict[int, CoreType]",
    nominal_idle_w: "tuple[float, ...]",
    nominal_sleep_w: "tuple[float, ...]",
) -> SystemView:
    """Normalise a whole sensed system view into the nominal frame.

    Returns ``view`` itself while every core runs its nominal type;
    otherwise every task and core is re-expressed at nominal, with the
    firmware idle/sleep power of the nominal types.
    """
    if all(core.core_type == nominal_by_core[core.core_id] for core in view.cores):
        return view
    tasks = [
        normalize_thread(t, nominal_by_core[t.core_id]) for t in sensed_tasks(view)
    ]
    cores = tuple(
        core._replace(
            core_type=nominal_by_core[core.core_id],
            idle_power_w=idle_w,
            sleep_power_w=sleep_w,
        )
        for core, idle_w, sleep_w in zip(view.cores, nominal_idle_w, nominal_sleep_w)
    )
    return sensed_view(tasks, replace(view, cores=cores))
