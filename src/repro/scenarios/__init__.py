"""repro.scenarios — workload scenarios beyond steady multiprogramming.

Three opt-in scenario families stress the balancer along axes the
paper's steady-state experiments do not reach:

* **openloop** — open-loop request traffic: seeded Poisson / diurnal /
  spike arrivals spawn short-lived latency-SLO threads mid-run, and
  per-request latency percentiles plus SLO-miss rate become
  first-class run metrics.
* **barrier** — barrier-synchronised thread groups (BSP-style): a
  group's makespan is set by its slowest member, rewarding balancers
  that equalise thread *progress* rather than load (the ``tpeq``
  variant in :mod:`repro.core.variants`).
* **smt** — SMT-style core sharing: selected cores co-run their
  runnable threads with characteristics-driven interference.

A scenario is selected by string (``--scenario barrier:groups=3``),
is part of a run's cached identity, and is strictly additive: a run
with ``scenario="none"`` is byte-identical to a run before this
package existed.
"""

from repro.scenarios.builders import build_scenario
from repro.scenarios.runtime import (
    BarrierRuntime,
    OpenLoopRuntime,
    ScenarioRuntime,
    SmtRuntime,
)
from repro.scenarios.spec import (
    SCENARIO_FAMILIES,
    ScenarioSpec,
    parse_scenario,
    scenario_catalogue,
)

__all__ = [
    "SCENARIO_FAMILIES",
    "BarrierRuntime",
    "OpenLoopRuntime",
    "ScenarioRuntime",
    "ScenarioSpec",
    "SmtRuntime",
    "build_scenario",
    "parse_scenario",
    "scenario_catalogue",
]
