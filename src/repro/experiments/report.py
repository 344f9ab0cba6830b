"""Plain-text rendering of figure results.

Every figure regenerates as a :class:`FigureResult`: a title, column
names, and rows.  ``render`` produces the aligned ASCII table the
benchmarks print — the same rows/series the paper's figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

__all__ = ["FigureResult", "render", "fmt"]


def fmt(value: Any) -> str:
    """Human-friendly cell formatting."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


@dataclass
class FigureResult:
    """One regenerated figure: metadata + a table of rows."""

    figure: str                      # e.g. "fig3"
    title: str                       # paper caption summary
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **cells: Any) -> None:
        self.rows.append(cells)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def row_where(self, **match: Any) -> Dict[str, Any]:
        """First row whose cells equal all of ``match`` (KeyError if none)."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        raise KeyError(f"no row matching {match} in {self.figure}")

    def __str__(self) -> str:
        return render(self)


def render(result: FigureResult) -> str:
    """Aligned ASCII table with title and notes."""
    cols: Sequence[str] = result.columns
    header = [c for c in cols]
    body = [[fmt(row.get(c)) for c in cols] for row in result.rows]
    widths = [len(h) for h in header]
    for line in body:
        for i, cell in enumerate(line):
            widths[i] = max(widths[i], len(cell))

    def join(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    out = [f"== {result.figure}: {result.title} =="]
    out.append(join(header))
    out.append(join(["-" * w for w in widths]))
    out.extend(join(line) for line in body)
    for note in result.notes:
        out.append(f"note: {note}")
    return "\n".join(out)
