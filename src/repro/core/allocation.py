"""Thread-to-core allocation representation.

Algorithm 1 manipulates the allocation Ψ "implemented as a
uni-dimensional array": a flat array of *slots*, ``slots_per_core``
consecutive slots per core, each slot holding a thread index or
``EMPTY``.  Swapping two slot positions either exchanges two threads
between cores, moves a thread to another core (swap with an empty
slot), or is a no-op within one core — exactly the move set the
paper's annealer perturbs.

:class:`Allocation` maintains the slot array together with the inverse
``thread -> core`` map and per-core occupancy, so the objective's
incremental evaluator can find affected cores in O(1).
"""

from __future__ import annotations

from typing import Sequence

#: Slot marker for "no thread".
EMPTY = -1


class Allocation:
    """A slot-array allocation of ``n_threads`` onto ``n_cores``."""

    def __init__(self, n_threads: int, n_cores: int, slots_per_core: int | None = None) -> None:
        if n_threads < 0:
            raise ValueError(f"n_threads must be >= 0, got {n_threads}")
        if n_cores < 1:
            raise ValueError(f"n_cores must be >= 1, got {n_cores}")
        if slots_per_core is None:
            # Enough headroom that any core can hold every thread —
            # the annealer must be able to reach all allocations.
            slots_per_core = max(n_threads, 1)
        if slots_per_core < 1:
            raise ValueError(f"slots_per_core must be >= 1, got {slots_per_core}")
        if slots_per_core * n_cores < n_threads:
            raise ValueError(
                f"{n_cores} cores x {slots_per_core} slots cannot hold "
                f"{n_threads} threads"
            )
        self.n_threads = n_threads
        self.n_cores = n_cores
        self.slots_per_core = slots_per_core
        self.slots: list[int] = [EMPTY] * (n_cores * slots_per_core)
        self._thread_slot: list[int] = [EMPTY] * n_threads

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_mapping(
        cls,
        thread_cores: Sequence[int],
        n_cores: int,
        slots_per_core: int | None = None,
    ) -> "Allocation":
        """Build from a ``thread index -> core id`` sequence: each
        thread takes its core's next free slot, as :meth:`place` would."""
        alloc = cls(len(thread_cores), n_cores, slots_per_core)
        per_core = alloc.slots_per_core
        slots = alloc.slots
        thread_slot = alloc._thread_slot
        next_free = list(range(0, n_cores * per_core, per_core))
        for thread, core in enumerate(thread_cores):
            if not 0 <= core < n_cores:
                raise IndexError(f"core {core} out of range")
            slot = next_free[core]
            if slot == (core + 1) * per_core:
                raise ValueError(f"core {core} has no free slot")
            next_free[core] = slot + 1
            slots[slot] = thread
            thread_slot[thread] = slot
        return alloc

    @classmethod
    def round_robin(cls, n_threads: int, n_cores: int) -> "Allocation":
        """The simulator's initial placement: thread i on core i mod n."""
        return cls.from_mapping([i % n_cores for i in range(n_threads)], n_cores)

    def copy(self) -> "Allocation":
        clone = Allocation.__new__(Allocation)
        clone.n_threads = self.n_threads
        clone.n_cores = self.n_cores
        clone.slots_per_core = self.slots_per_core
        clone.slots = list(self.slots)
        clone._thread_slot = list(self._thread_slot)
        return clone

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.slots)

    def slot_core(self, slot: int) -> int:
        """Core id owning a slot position."""
        if not 0 <= slot < len(self.slots):
            raise IndexError(f"slot {slot} out of range")
        return slot // self.slots_per_core

    def core_of(self, thread: int) -> int:
        """Core currently holding ``thread``."""
        slot = self._thread_slot[thread]
        if slot == EMPTY:
            raise ValueError(f"thread {thread} is not placed")
        return self.slot_core(slot)

    def threads_on(self, core: int) -> list[int]:
        """Threads currently on ``core`` (slot order)."""
        start = core * self.slots_per_core
        return [
            t for t in self.slots[start : start + self.slots_per_core] if t != EMPTY
        ]

    def mapping(self) -> list[int]:
        """The ``thread -> core`` list."""
        thread_slot = self._thread_slot
        if EMPTY in thread_slot:
            raise ValueError(f"thread {thread_slot.index(EMPTY)} is not placed")
        per_core = self.slots_per_core
        return [slot // per_core for slot in thread_slot]

    def is_complete(self) -> bool:
        """True when every thread is placed exactly once."""
        return all(slot != EMPTY for slot in self._thread_slot)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def place(self, thread: int, core: int) -> None:
        """Place an unplaced thread into a free slot on ``core``."""
        if not 0 <= thread < self.n_threads:
            raise IndexError(f"thread {thread} out of range")
        if not 0 <= core < self.n_cores:
            raise IndexError(f"core {core} out of range")
        if self._thread_slot[thread] != EMPTY:
            raise ValueError(f"thread {thread} already placed")
        start = core * self.slots_per_core
        for slot in range(start, start + self.slots_per_core):
            if self.slots[slot] == EMPTY:
                self.slots[slot] = thread
                self._thread_slot[thread] = slot
                return
        raise ValueError(f"core {core} has no free slot")

    def swap(self, pos_a: int, pos_b: int) -> tuple[int, int]:
        """Swap two slot positions (Algorithm 1's ``swap(Ψ, pos, pos_new)``).

        Returns the two affected core ids (equal for an intra-core
        swap).  Swapping two empty slots is a valid no-op.
        """
        core_a = self.slot_core(pos_a)
        core_b = self.slot_core(pos_b)
        ta, tb = self.slots[pos_a], self.slots[pos_b]
        self.slots[pos_a], self.slots[pos_b] = tb, ta
        if ta != EMPTY:
            self._thread_slot[ta] = pos_b
        if tb != EMPTY:
            self._thread_slot[tb] = pos_a
        return core_a, core_b

    def diff(self, other: "Allocation") -> dict[int, int]:
        """Threads whose core differs in ``other``: ``thread -> new core``.

        This is the migration set the kernel applies when the annealer
        returns an improved allocation.
        """
        if other.n_threads != self.n_threads:
            raise ValueError("allocations describe different thread sets")
        before, after = self.mapping(), other.mapping()
        return {
            thread: core
            for thread, (old, core) in enumerate(zip(before, after))
            if old != core
        }
