"""Per-layer self-time tracing from outside the package.

:class:`LayerTrace` wraps the public calls into each layer of the
stack for the duration of a ``with`` block and restores the originals
on exit, so untraced runs execute the unmodified code.  Every wrapped
call is a span on one stack; a span's *self* time is its duration minus
the durations of the spans it encloses.  Anneal runs nested in
``rebalance`` or in a governor strategy, ``MatrixBuilder.build`` nested
in ``rebalance`` and ``task_extras`` nested in ``build_view`` are
therefore charged once, to the innermost layer.  The root span is
``System.run``; its self time is the loop remainder
(``kernel.loop_other``).

Counts are read off arguments and return values (the ``SystemView`` a
``build_view`` returns, the ``SAResult`` of an anneal), never by
wrapping per-sensor calls, so tracing stays cheap.
"""

from __future__ import annotations

import time
from collections import defaultdict

from repro.adaptation.controller import AdaptationController
from repro.core import balancer as core_balancer
from repro.core.prediction import MatrixBuilder
from repro.governor import strategies as gov_strategies
from repro.kernel.simulator import System
from repro.kernel.soa import SoaKernel

#: The root span: one per ``System.run``.
RUN = "kernel.run"


class _Frame:
    __slots__ = ("name", "child_s", "data")

    def __init__(self, name: str, data) -> None:
        self.name = name
        self.child_s = 0.0
        self.data = data


class LayerTrace:
    """Accumulates self time, call counts and work counts per span."""

    def __init__(self) -> None:
        self.self_s: "dict[str, float]" = defaultdict(float)
        self.calls: "dict[str, int]" = defaultdict(int)
        self.counts: "dict[str, float]" = defaultdict(float)
        #: Summed wall time of the root ``System.run`` spans.
        self.run_wall_s = 0.0
        self._stack: "list[_Frame]" = []
        self._restore: "list[tuple[object, str, object]]" = []

    def _span(self, name: str, fn, args, kwargs=None, data=None):
        frame = _Frame(name, data)
        stack = self._stack
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            elapsed = time.perf_counter() - t0
            stack.pop()
            self.self_s[name] += elapsed - frame.child_s
            self.calls[name] += 1
            if stack:
                stack[-1].child_s += elapsed
            else:
                self.run_wall_s += elapsed

    def _set(self, owner, attr: str, value) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) until exit."""
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._restore.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        span = self._span

        def wrapper(*args, **kwargs):
            result = span(name, original, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        self._set(owner, attr, wrapper)

    # ------------------------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        counts = self.counts

        def count_period(args, result) -> None:
            counts["kernel.task_periods"] += int(args[0].active.sum())

        def count_view(args, view) -> None:
            counts["sensing.views"] += 1
            counts["sensing.task_views"] += len(view.tasks)

        self._wrap(System, "run", RUN)
        self._wrap(SoaKernel, "simulate_period", "kernel.period", count_period)
        self._wrap(System, "apply_placement", "kernel.apply_placement")
        self._wrap(System, "build_view", "sensing.build_view", count_view)
        self._wrap(MatrixBuilder, "build", "predict.matrix_build")
        self._wrap(AdaptationController, "observe_epoch", "adaptation.observe")
        for key, strategy in list(gov_strategies.STRATEGIES.items()):
            self._set(gov_strategies.STRATEGIES, key, self._strategy(strategy))
        for module in (core_balancer, gov_strategies):
            self._set(module, "anneal", self._anneal(module.anneal))

        original_init = System.__init__

        def init(system, *args, **kwargs):
            original_init(system, *args, **kwargs)
            self._instrument(system)

        self._set(System, "__init__", init)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------

    def _strategy(self, strategy):
        def search(ctx):
            # The context rides on the frame so nested anneals can tell
            # the inner (reduced-budget) runs from the final one.
            outcome = self._span("governor.search", strategy, (ctx,), data=ctx)
            self.counts["governor.candidates_evaluated"] += (
                outcome.candidates_evaluated
            )
            return outcome

        return search

    def _anneal(self, original):
        counts = self.counts

        def anneal(objective, initial, *args, **kwargs):
            stack = self._stack
            if stack and stack[-1].name == "governor.search":
                config = args[0] if args else kwargs.get("config")
                if config is not stack[-1].data.sa_config:
                    counts["governor.inner_anneals"] += 1
            result = self._span(
                "annealer.anneal", original, (objective, initial) + args, kwargs
            )
            counts["annealer.iterations"] += result.iterations
            counts["annealer.accepted"] += result.accepted_moves
            return result

        return anneal

    def _instrument(self, system) -> None:
        """Wrap the per-instance hooks of a freshly built System."""
        span = self._span
        calls = self.calls
        rebalance = system.balancer.rebalance

        def traced_rebalance(view):
            before = calls["annealer.anneal"]
            placement = span("core.rebalance", rebalance, (view,))
            if placement and calls["annealer.anneal"] > before:
                self.counts["annealer.adopted"] += 1
            return placement

        system.balancer.rebalance = traced_rebalance
        scenario = system.scenario
        if scenario is not None:
            on_period = scenario.on_period
            task_extras = scenario.task_extras
            scenario.on_period = lambda s: span(
                "scenario.on_period", on_period, (s,)
            )
            scenario.task_extras = lambda s: span(
                "scenario.task_extras", task_extras, (s,)
            )
