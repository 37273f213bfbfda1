"""The one writer of result tables, and the number formatting it uses.

17 significant digits round-trip any double exactly, so reruns of a
deterministic computation produce byte-identical files.
"""

from __future__ import annotations

import math


def format_float(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def table_text(columns, rows, style: str = "csv") -> str:
    """A result table as LF-ended text: a header line and one ``,``-separated
    line per row (``csv``), or one block of ``column = value`` lines per row
    (``structured-text``).  Strings pass through; other cells go through
    :func:`format_float`."""
    cells = [[c if isinstance(c, str) else format_float(c) for c in row] for row in rows]
    if style == "structured-text":
        return "\n\n".join(
            "\n".join(f"{col} = {v}" for col, v in zip(columns, line)) for line in cells
        ) + "\n"
    return "\n".join(",".join(line) for line in [columns, *cells]) + "\n"
