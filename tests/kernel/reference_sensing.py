"""Reference sensing: the per-owner scalar oracle of ``System.build_view``.

The simulator reads a sensing window in one batch
(:meth:`repro.hardware.sensors.SensingInterface.read`, then one fault
pass and one vectorised rates formula).  This module states the same
read the readable way — one counter bank at a time, one
``random.gauss`` per non-zero register, the fault injector applied
inside each read — so the differential suite can hold the batched view
to it field for field:

* :func:`read_counters` returns a noisy copy of one
  :class:`~repro.hardware.counters.CounterBlock`, with the cycle-total
  repair and the owner's fault corruption;
* :func:`read_power` reads one power sensor;
* :func:`derive_rates` is the scalar form of
  :func:`repro.hardware.counters.derived_rates`;
* :func:`build_view` walks the tasks alive in the window (tid order)
  and then the cores (id order), exactly the draw order the batched
  read fixes.  It reads every task bank, core bank and power sensor,
  though a view carries only each task's rates and power (one
  :class:`~sensed_tasks.SensedTask` per task, whose records and rows
  make the view): the core readings' draws fix those of every later
  reading.  A task is alive
  in the window unless it is pending or exited without running in it:
  a thread only exits by retiring its last instruction, so one that
  exited inside the window has busy time there.  ``System`` states
  the same rule as a tid list it updates at arrivals and window
  resets; the differential suite holds the two statements to each
  other.  For a balancer that reads no sensors
  (``reads_sensors`` unset: vanilla, GTS, IKS) every owner skips its
  read: the rate and power fields are ``None``, so the view has no PMU
  block, and nothing is drawn or corrupted.

Both paths draw from the system's own sensing RNG and fault injector,
so a test compares them by restoring those states in between.
:class:`SensingNullBalancer` keeps the initial placement, like
:class:`~repro.kernel.balancers.base.NullBalancer`, but reads sensors,
for tests that inspect a sensed view of an unbalanced run.
"""

from __future__ import annotations

from typing import Optional

from repro.faults import FaultInjector
from repro.hardware import power as power_model
from repro.hardware.counters import CounterBlock, DerivedRates, counter_row
from repro.hardware.sensors import SensingInterface
from repro.kernel.balancers.base import NullBalancer
from repro.kernel.cfs import IDLE_TO_SLEEP_LATENCY_S
from repro.kernel.task import TaskState
from repro.kernel.view import CoreView, SystemView
from sensed_tasks import SensedTask, sensed_view


class SensingNullBalancer(NullBalancer):
    """Keeps the initial placement; its views carry the PMU part."""

    reads_sensors = True


def snapshot(block: CounterBlock) -> CounterBlock:
    """Return an independent copy of a block's counter values."""
    return CounterBlock(
        **{name: getattr(block, name) for name in block.__dataclass_fields__}
    )


def read_counters(
    sensing: SensingInterface,
    block: CounterBlock,
    owner: object = None,
    faults: Optional[FaultInjector] = None,
) -> CounterBlock:
    """Return a noisy snapshot of one counter block.

    Each of the eleven registers gets an independent draw in field
    order (a zero count takes none); the three cycle counters are then
    rescaled to the true total; ``busy_time_s`` is copied exactly; the
    fault injector, when given, corrupts the result under ``owner``.
    """
    noise = sensing.counter_noise
    sigma = noise.sigma
    if sigma == 0.0:
        noisy = snapshot(block)
    else:
        rng_gauss = sensing._rng.gauss
        lo = 1.0 - noise.clip
        hi = 1.0 + noise.clip

        def rd(value: float) -> float:
            if value == 0.0:
                return value
            factor = min(max(rng_gauss(1.0, sigma), lo), hi)
            return value * factor

        noisy = CounterBlock(
            cy_busy=rd(block.cy_busy),
            cy_idle=rd(block.cy_idle),
            cy_sleep=rd(block.cy_sleep),
            instructions=rd(block.instructions),
            mem_instructions=rd(block.mem_instructions),
            branch_instructions=rd(block.branch_instructions),
            branch_mispredicts=rd(block.branch_mispredicts),
            l1i_misses=rd(block.l1i_misses),
            l1d_misses=rd(block.l1d_misses),
            itlb_misses=rd(block.itlb_misses),
            dtlb_misses=rd(block.dtlb_misses),
            busy_time_s=block.busy_time_s,
        )
    true_cycles = block.cy_busy + block.cy_idle + block.cy_sleep
    noisy_cycles = noisy.cy_busy + noisy.cy_idle + noisy.cy_sleep
    if true_cycles > 0 and noisy_cycles > 0:
        scale = true_cycles / noisy_cycles
        noisy.cy_busy *= scale
        noisy.cy_idle *= scale
        noisy.cy_sleep *= scale
    if faults is not None:
        row = list(counter_row(noisy))
        faults.corrupt_counts(owner if owner is not None else id(block), row)
        noisy = CounterBlock(*row)
    return noisy


def read_power(
    sensing: SensingInterface,
    true_power_w: float,
    owner: object = None,
    faults: Optional[FaultInjector] = None,
) -> float:
    """Return a noisy reading from one power sensor."""
    reading = max(sensing.power_noise.apply(true_power_w, sensing._rng), 0.0)
    if faults is not None:
        reading = faults.corrupt_power(
            owner if owner is not None else "power-rail", reading
        )
    return reading


def derive_rates(block: CounterBlock) -> DerivedRates:
    """The paper's derived rates of one block, one scalar ratio each."""
    instr = block.instructions
    mem = block.mem_instructions
    branch = block.branch_instructions
    active_cycles = block.cy_busy + block.cy_idle

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    return DerivedRates(
        ipc=ratio(instr, active_cycles),
        mem_share=ratio(mem, instr),
        branch_share=ratio(branch, instr),
        branch_miss_rate=ratio(block.branch_mispredicts, branch),
        l1i_miss_rate=ratio(block.l1i_misses, instr),
        l1d_miss_rate=ratio(block.l1d_misses, mem),
        itlb_miss_rate=ratio(block.itlb_misses, instr),
        dtlb_miss_rate=ratio(block.dtlb_misses, mem),
        stall_fraction=ratio(block.cy_idle, active_cycles),
        ips=ratio(instr, block.busy_time_s),
    )


def build_view(
    system, window_s: float, noisy_counters: "Optional[dict]" = None
) -> SystemView:
    """The observable view of ``system``'s last window, owner by owner.

    ``noisy_counters``, when given, receives each sensed task's noisy
    counter block (tid to block): the reading its rates come from.
    """
    engine = system.engine
    sensing, faults = system.sensing, system.faults
    sensed = system.balancer.reads_sensors
    extras_by_tid: "dict[int, dict]" = (
        system.scenario.task_extras(system) if system.scenario is not None else {}
    )
    task_counters = engine.t_cnt.tolist()
    task_energy = engine.epoch_energy.tolist()
    utilization = engine.util.tolist()
    task_views = []
    for task in system.tasks:
        counters = CounterBlock(*task_counters[task.tid])
        if task.state is TaskState.PENDING or (
            task.state is TaskState.EXITED and counters.busy_time_s == 0
        ):
            continue
        owner = ("task", task.tid)
        busy = counters.busy_time_s
        rates = measured_power = None
        if sensed:
            noisy = read_counters(sensing, counters, owner, faults)
            if noisy_counters is not None:
                noisy_counters[task.tid] = noisy
            rates = derive_rates(noisy)
            if busy > 0:
                true_power = task_energy[task.tid] / busy
                measured_power = read_power(sensing, true_power, owner, faults)
            else:
                measured_power = 0.0
        task_views.append(
            SensedTask(
                tid=task.tid,
                name=task.name,
                core_id=task.core_id,
                core_type=system._base_cores[task.core_id].core_type,
                weight=task.weight,
                is_user=task.is_user,
                utilization=utilization[task.tid],
                rates=rates,
                power_w=measured_power,
                busy_time_s=busy,
                allowed_cores=task.behavior.allowed_cores,
                **extras_by_tid.get(task.tid, {}),
            )
        )
    core_counters = engine.c_cnt.tolist()
    core_energy = engine.q_epoch_energy.tolist()
    core_time = engine.q_epoch_time.tolist()
    temperature = engine.thermal_temp.tolist()
    core_views = []
    for queue in system.runqueues:
        core_id = queue.core.core_id
        owner = ("core", core_id)
        core_type = system._base_cores[core_id].core_type
        shallow_frac = min(IDLE_TO_SLEEP_LATENCY_S / system.config.period_s, 1.0)
        effective_idle = (
            shallow_frac * power_model.idle_power(core_type).total_w
            + (1.0 - shallow_frac) * power_model.sleep_power(core_type)
        )
        if sensed:
            # No view carries these readings; they are taken for their
            # draws, latches and faults.
            elapsed = core_time[core_id]
            avg_power = core_energy[core_id] / elapsed if elapsed > 0 else 0.0
            read_power(sensing, avg_power, owner, faults)
            read_counters(
                sensing, CounterBlock(*core_counters[core_id]), owner, faults
            )
        core_views.append(
            CoreView(
                core_id=core_id,
                core_type=core_type,
                idle_power_w=effective_idle,
                sleep_power_w=power_model.sleep_power(core_type),
                temperature_c=temperature[core_id],
                online=system._online[core_id],
            )
        )
    return sensed_view(
        task_views,
        SystemView(
            epoch_index=system._view_counter,
            time_s=system.time_s,
            window_s=window_s,
            platform=system.platform,
            tasks=(),
            cores=tuple(core_views),
        ),
        sensed,
    )
