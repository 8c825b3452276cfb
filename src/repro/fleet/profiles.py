"""Per-(request, platform) performance profiles — the fleet's predictors.

The node-level SmartBalance loop predicts per-(thread, core-type)
IPS/W from sensed counters (Eqs. 8/9); the fleet tier lifts the same
predict-then-optimize idea one level up and needs per-(request,
node-platform) predictions to route with.  Those come from here:

* ``simulated`` — every request slot is executed on every distinct
  node platform through the **real** sense→predict→balance simulator
  via :func:`repro.runner.run_specs` (deduplicated, cacheable and
  parallel across ``--jobs`` workers).  A node agent therefore embeds
  the same job executor the service tier runs — a fleet job costs what
  the full simulator says it costs on that platform.
* ``analytic`` — a closed-form, seeded stand-in with the same
  heterogeneity structure (different platforms expose different IPS/W
  fronts) at zero simulator cost, for fast unit tests of the routing
  and fault machinery.

Either way the result is a :class:`ProfileTable` mapping
``(slot, platform)`` to a :class:`JobProfile`, and the whole table is
a pure function of the :class:`~repro.fleet.spec.FleetSpec` — profile
phase worker counts cannot change any routed decision (the chaos
determinism suite pins jobs=1 == jobs=N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.fleet.spec import FleetSpec, _derive
from repro.kernel.metrics import RunResult
from repro.runner.spec import RunSpec


@dataclass(frozen=True)
class JobProfile:
    """What one request slot costs on one node platform."""

    duration_s: float
    instructions: float
    energy_j: float

    @property
    def ips_per_watt(self) -> float:
        return self.instructions / self.energy_j if self.energy_j > 0 else 0.0

    @property
    def ips(self) -> float:
        return self.instructions / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def power_w(self) -> float:
        return self.energy_j / self.duration_s if self.duration_s > 0 else 0.0


class ProfileTable:
    """``(slot, platform) -> JobProfile`` plus per-platform nominals."""

    def __init__(self, profiles: "dict[tuple[int, str], JobProfile]") -> None:
        self._profiles = profiles
        self._nominal: "dict[str, float]" = {}
        by_platform: "dict[str, list[float]]" = {}
        for (_, platform), profile in profiles.items():
            by_platform.setdefault(platform, []).append(profile.ips_per_watt)
        for platform, values in by_platform.items():
            self._nominal[platform] = sum(values) / len(values)

    def get(self, slot: int, platform: str) -> JobProfile:
        return self._profiles[(slot, platform)]

    def nominal_ips_per_watt(self, platform: str) -> float:
        """Mean profiled IPS/W of a platform — the sanity anchor the
        dispatcher checks reported telemetry against."""
        return self._nominal[platform]

    def __len__(self) -> int:
        return len(self._profiles)


def simulated_profiles(
    spec: FleetSpec,
    jobs: Optional[int] = None,
    cache=None,
) -> ProfileTable:
    """Profile every (slot, platform) pair through the sweep engine."""
    from repro.runner.engine import run_specs

    run_specs_list: "list[RunSpec]" = spec.profile_specs()
    results = run_specs(run_specs_list, jobs=jobs, cache=cache)
    return profile_table(spec, dict(zip(run_specs_list, results)))


def profile_table(
    spec: FleetSpec, results: "Mapping[RunSpec, RunResult]"
) -> ProfileTable:
    """The spec's profile table, read from executed profile-phase jobs
    (a ``RunSpec -> RunResult`` mapping covering
    :meth:`FleetSpec.profile_specs`)."""
    run_specs_list = iter(spec.profile_specs())
    profiles: "dict[tuple[int, str], JobProfile]" = {}
    for platform in spec.platforms:
        for slot in range(spec.distinct_jobs):
            result = results[next(run_specs_list)]
            profiles[(slot, platform)] = JobProfile(
                duration_s=result.duration_s,
                instructions=result.instructions,
                energy_j=result.energy_j,
            )
    return ProfileTable(profiles)


#: Baseline (IPS, Watt) operating points for the analytic stand-in.
#: Different platforms sit on different IPS/W fronts on purpose —
#: placement has to matter for the energy-aware router to beat
#: round-robin.
_ANALYTIC_BASES = {
    "quad": (2.4e9, 3.2),
    "biglittle": (3.0e9, 5.0),
}
_ANALYTIC_DEFAULT = (2.0e9, 4.0)


def analytic_profiles(spec: FleetSpec) -> ProfileTable:
    """Closed-form, seeded profiles (no simulator runs).

    Per (slot, platform): the platform's base operating point scaled
    by a deterministic per-pair factor in [0.7, 1.3] — heterogeneous
    enough that the energy-aware placement is non-trivial, cheap
    enough for unit tests.
    """
    profiles: "dict[tuple[int, str], JobProfile]" = {}
    epoch_s = 0.06  # the simulator's default epoch length
    for platform in spec.platforms:
        base_ips, base_w = _ANALYTIC_BASES.get(platform, _ANALYTIC_DEFAULT)
        for slot in range(spec.distinct_jobs):
            workload, slot_seed = spec.slot_identity(slot)
            h = _derive(slot_seed, "profile", platform, workload)
            ips_factor = 0.7 + 0.6 * ((h & 0xFFFF) / 0xFFFF)
            power_factor = 0.7 + 0.6 * (((h >> 16) & 0x7FFF) / 0x7FFF)
            duration = spec.n_epochs * epoch_s
            ips = base_ips * ips_factor
            watts = base_w * power_factor
            profiles[(slot, platform)] = JobProfile(
                duration_s=duration,
                instructions=ips * duration,
                energy_j=watts * duration,
            )
    return ProfileTable(profiles)


def build_profiles(
    spec: FleetSpec,
    jobs: Optional[int] = None,
    cache=None,
) -> ProfileTable:
    """The spec's profile table, per its ``profile`` mode."""
    if spec.profile == "analytic":
        return analytic_profiles(spec)
    return simulated_profiles(spec, jobs=jobs, cache=cache)
