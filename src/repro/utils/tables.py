"""Plain-text table rendering used by the experiment drivers.

Every experiment in :mod:`repro.experiments` reports its results as rows of a
table mirroring the corresponding table/figure in the paper.  This module
provides a single helper that renders those rows with aligned columns so that
reports are readable both in test output and on the experiment CLI's stdout
(see README.md, "Reproducing the paper").
"""

from __future__ import annotations

from typing import Iterable, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned plain-text table.

    All cells are converted with ``str``.  Column widths are computed from the
    widest cell in each column (including the header).
    """
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(format_row(list(headers)))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(format_row(row) for row in str_rows)
    return "\n".join(lines)
