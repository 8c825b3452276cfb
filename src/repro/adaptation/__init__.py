"""``repro.adaptation`` — closed-loop online model maintenance.

The offline-trained Eq. 8/9 predictors of :mod:`repro.core` go stale
when the runtime workload leaves the characterisation corpus.  This
package keeps them honest without giving up determinism:

* :mod:`~repro.adaptation.rls` — exponentially-weighted recursive
  least-squares updaters (batch-equivalent at ``forgetting=1``);
* :mod:`~repro.adaptation.drift` — Page–Hinkley detection of
  *sustained* prediction-error growth;
* :mod:`~repro.adaptation.registry` — versioned model snapshots with
  provenance, fingerprints and byte-identical rollback;
* :mod:`~repro.adaptation.controller` — the epoch hook the balancer
  drives: ingest → detect → gated re-fit → probation/rollback, plus
  the watchdog's repair-before-fallback handoff.

Everything is opt-in: with ``SmartBalanceConfig(adaptation=False)``
(the default) no controller is created and runs are byte-identical to
a build without this package.  The loop's tuning values are module
constants of :mod:`~repro.adaptation.controller`.
"""

from repro.adaptation.controller import (
    AdaptationController,
    EpochReport,
    PairSample,
    PowerSample,
    snapshot_summary,
)
from repro.adaptation.drift import PageHinkley
from repro.adaptation.registry import (
    ModelRegistry,
    ModelSnapshot,
    model_fingerprint,
)
from repro.adaptation.rls import RLSUpdater, batch_ridge

__all__ = [
    "AdaptationController",
    "EpochReport",
    "PairSample",
    "PowerSample",
    "snapshot_summary",
    "PageHinkley",
    "ModelRegistry",
    "ModelSnapshot",
    "model_fingerprint",
    "RLSUpdater",
    "batch_ridge",
]
