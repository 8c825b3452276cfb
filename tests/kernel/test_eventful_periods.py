"""Eventful periods: the full path recomputes only what an event moved.

A period whose key moved (an arrival, an exit, a migration, hotplug, a
phase or core-type change) cannot replay, and ``SoaKernel._increments``
computes it in full.  Its per-task value rows are a function of each
task's phase, core type, warm-up level and, on SMT cores, co-runners,
so they are cached under the placement and demand versions (plus the
structure version when a core is SMT) and rebuilt only when one of
those moved or a warm-up is decaying.  An arrival or an exit alone
moves only the structure version and rebuilds no row.
"""

from reference_kernel import kernel_engine
from repro.kernel.soa import SoaKernel
from repro.runner.engine import execute_spec
from repro.runner.spec import RunSpec

#: The e2ebench openloop shape: request threads arrive and exit every
#: few periods, combined faults migrate, unplug and throttle cores.
OPENLOOP = RunSpec(
    platform="biglittle", workload="MTMI", threads=4, balancer="smartbalance",
    scenario="openloop", faults="combined", adaptation=True, n_epochs=20,
    seed=101,
)


class RowRecordingKernel(SoaKernel):
    """Records, per full period, the versions it began under, whether a
    warm-up was decaying and whether it rebuilt the value rows."""

    def __init__(self, system):
        super().__init__(system)
        self.full_periods = []
        self._in_increments = False
        self._rebuilt = False

    def _increments(self, period_s, any_warm, *args):
        before = (self._struct_ver, self._placement_ver, self._demand_ver)
        self._in_increments, self._rebuilt = True, False
        try:
            inc = super()._increments(period_s, any_warm, *args)
        finally:
            self._in_increments = False
        self.full_periods.append((before, any_warm, self._rebuilt))
        return inc

    def _lookup_rows(self, codes):
        # Called from _increments only to rebuild the rows (the phase
        # refresh in _apply looks up the changed tasks' demand).
        if self._in_increments:
            self._rebuilt = True
        return super()._lookup_rows(codes)


def recorded_full_periods(spec):
    engines = []

    class Recording(RowRecordingKernel):
        def __init__(self, system):
            super().__init__(system)
            engines.append(self)

    with kernel_engine(Recording):
        execute_spec(spec)
    (engine,) = engines
    assert not engine._any_smt
    return engine.full_periods


def test_rows_rebuild_only_when_placement_demand_or_warm_up_moved():
    rows_key = None  # (placement, demand) of the cached rows
    struct_only = 0
    rebuilds = 0
    for (struct, placement, demand), warm, rebuilt in recorded_full_periods(
        OPENLOOP
    ):
        if warm:
            # Warm rows are never cached: the warm-up level moves
            # every period.
            assert rebuilt
            rows_key = None
            continue
        if (placement, demand) == rows_key:
            assert not rebuilt, "rows rebuilt with their key unmoved"
            struct_only += 1
        else:
            assert rebuilt, "stale rows reused"
            rows_key = (placement, demand)
            rebuilds += 1
    # The spec has teeth: full periods whose only change was structural
    # (arrivals, exits, hotplug) reused the rows, and others rebuilt.
    assert struct_only >= 20
    assert rebuilds >= 1
