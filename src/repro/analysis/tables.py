"""Plain-text table and bar-chart rendering.

The benchmark harness regenerates the paper's tables and figures as
text: tables as aligned ASCII grids, bar figures as horizontal ASCII
bar charts (one bar per benchmark/configuration, like the paper's
Figs. 4–5).
"""

from __future__ import annotations

from typing import Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    if not headers:
        raise ValueError("need at least one column")
    str_rows = [[_cell(v) for v in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: Optional[str] = None,
    unit: str = "",
    width: int = 50,
) -> str:
    """Render a horizontal ASCII bar chart (one bar per label)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if not labels:
        raise ValueError("need at least one bar")
    if width < 1:
        raise ValueError("width must be positive")
    peak = max(max(values), 1e-30)
    label_w = max(len(label) for label in labels)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    for label, value in zip(labels, values):
        bar = "#" * max(int(round(width * value / peak)), 0)
        lines.append(f"{label.ljust(label_w)} | {bar} {value:.4g}{unit}")
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
