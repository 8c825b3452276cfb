"""Micro-benchmarks of the substrate hot paths.

Not a paper artifact — these guard the simulator's own performance
(the model evaluation and the kernel period every experiment sits on)
against regressions.
"""

from repro.hardware import microarch
from repro.hardware.features import BIG
from repro.hardware.microarch import _estimate_cached
from repro.hardware.platform import quad_hmp
from repro.kernel.balancers.base import NullBalancer
from repro.kernel.simulator import System
from repro.workload.characteristics import MEMORY_PHASE
from repro.workload.synthetic import imb_threads


def bench_microarch_estimate_uncached(benchmark):
    def estimate():
        _estimate_cached.cache_clear()
        return microarch.estimate(MEMORY_PHASE, BIG)

    perf = benchmark(estimate)
    assert perf.ipc > 0


def bench_microarch_estimate_cached(benchmark):
    microarch.estimate(MEMORY_PHASE, BIG)  # prime
    perf = benchmark(lambda: microarch.estimate(MEMORY_PHASE, BIG))
    assert perf.ipc > 0


def bench_full_system_epoch(benchmark):
    """One 60 ms epoch of the quad platform under no balancing."""
    system = System(quad_hmp(), imb_threads("MTMI", 8), NullBalancer())

    def epoch():
        return system._simulate_period()

    instructions, energy = benchmark(epoch)
    assert energy > 0
