"""Shared experiment infrastructure.

Every experiment runs at a :class:`Scale`: ``QUICK`` keeps the
benchmark harness fast (CI-friendly), ``FULL`` matches the settings the
committed ``EXPERIMENTS.md`` numbers were produced with.  The shapes —
who wins, by roughly what factor — hold at both scales.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    """Experiment sizing knobs."""

    name: str
    #: Epochs simulated per run (60 ms each by default).
    n_epochs: int
    #: Per-benchmark thread counts (the paper uses 2, 4, 8).
    thread_counts: tuple[int, ...]
    #: IMB configurations evaluated (all nine at FULL).
    imb_configs: tuple[str, ...]
    #: PARSEC benchmarks evaluated in Fig. 4(b)/Fig. 5.
    parsec_benchmarks: tuple[str, ...]
    #: Table 3 mixes evaluated.
    mixes: tuple[str, ...]


QUICK = Scale(
    name="quick",
    n_epochs=12,
    thread_counts=(2, 8),
    imb_configs=("HTHI", "MTMI", "LTLI"),
    parsec_benchmarks=("x264_H_crew", "x264_L_bow", "bodytrack"),
    mixes=("Mix1", "Mix6"),
)

FULL = Scale(
    name="full",
    n_epochs=40,
    thread_counts=(2, 4, 8),
    imb_configs=(
        "HTHI", "HTMI", "HTLI",
        "MTHI", "MTMI", "MTLI",
        "LTHI", "LTMI", "LTLI",
    ),
    parsec_benchmarks=(
        "x264_H_crew", "x264_H_bow", "x264_L_crew", "x264_L_bow", "bodytrack",
    ),
    mixes=("Mix1", "Mix2", "Mix3", "Mix4", "Mix5", "Mix6"),
)


#: Scale lookup used by the CLI and the benchmark harness.
SCALES = {QUICK.name: QUICK, FULL.name: FULL}


def scale_by_name(name: str) -> Scale:
    """Resolve a scale name (``quick``/``full``)."""
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; known: {sorted(SCALES)}"
        ) from None
