"""Plain-text table formatting for benchmark output.

The benchmark harness prints the same rows/series the paper reports; this
module keeps that formatting in one place so every bench produces consistent,
easy-to-diff output.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def _format_cell(value: Cell, float_digits: int = 3) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        return f"{value:.{float_digits}f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: str = "",
    float_digits: int = 3,
) -> str:
    """Render an ASCII table with right-aligned numeric columns."""
    rendered_rows: List[List[str]] = [
        [_format_cell(cell, float_digits) for cell in row] for row in rows
    ]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))

    def render_row(cells: Sequence[str]) -> str:
        padded = [cells[i].rjust(widths[i]) if i < len(widths) else cells[i] for i in range(len(cells))]
        return "| " + " | ".join(padded) + " |"

    separator = "|-" + "-|-".join("-" * width for width in widths) + "-|"
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_row([str(h) for h in headers]))
    lines.append(separator)
    for row in rendered_rows:
        lines.append(render_row(row))
    return "\n".join(lines)
