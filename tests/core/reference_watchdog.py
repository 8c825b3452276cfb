"""Reference copy of SmartBalance's predictor-divergence watchdog, for
differential tests.

This is ``SmartBalance._watchdog_update`` as it was when it walked the
healthy records one at a time, reading each thread's last smoothed IPS
prediction on the core it ran on through ``_last_prediction``.  It
reads each thread through ``sensed_tasks.SensedTask``, the record with
its PMU readings.  ``test_watchdog_columns.py`` requires the columnar watchdog to make
the same strikes, trips and recoveries as this copy.

Keep it as it is: it is the specification, not code to optimise.
"""

from __future__ import annotations

import statistics

from repro.core import balancer as balancer_module
from sensed_tasks import SensedTask


def last_prediction(balancer, task: SensedTask):
    row = balancer._smoothed_row.get(task.tid)
    smoothed = balancer._smoothed
    core = task.core_id
    if row is None or not 0 <= core < smoothed.shape[2]:
        return None
    return smoothed[0, row, core], smoothed[1, row, core]


def watchdog_update(balancer, healthy: "list[SensedTask]") -> None:
    """Advance ``balancer``'s watchdog one epoch (no trace events)."""
    errors = []
    for task in healthy:
        last = last_prediction(balancer, task)
        if last is None:
            continue
        predicted = last[0]
        if predicted > 0:
            errors.append(abs(task.rates.ips - predicted) / predicted)
    if not errors:
        return
    out_of_band = statistics.median(errors) > balancer_module.WATCHDOG_TOLERANCE
    if balancer._watchdog_tripped:
        if out_of_band:
            balancer._watchdog_recoveries = 0
        else:
            balancer._watchdog_recoveries += 1
            if balancer._watchdog_recoveries >= balancer_module.WATCHDOG_RECOVERY_EPOCHS:
                balancer._watchdog_tripped = False
                balancer._watchdog_recoveries = 0
    else:
        if out_of_band:
            balancer._watchdog_strikes += 1
            if balancer._watchdog_strikes >= balancer_module.WATCHDOG_TRIP_EPOCHS:
                balancer._watchdog_tripped = True
                balancer._watchdog_strikes = 0
                balancer.health.watchdog_trips += 1
        else:
            balancer._watchdog_strikes = 0
