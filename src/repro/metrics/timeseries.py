"""Time series of a running simulation.

:class:`ColumnarSeries` is an append-only columnar store (one shared
time column plus named float columns) that the
:class:`repro.obs.PeriodicSampler` fills with registry snapshots —
delivered packets, active flows, per-port queue depth, whatever was
registered.  Columns may appear mid-run (instruments registered late);
earlier rows are backfilled with NaN so every column always has one
value per row.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = ["ColumnarSeries"]


class ColumnarSeries:
    """Append-only columnar time series.

    One shared ``times`` list; each named column is a parallel list of
    floats.  Rows are appended via :meth:`append` with a full mapping of
    column values; columns unseen before are backfilled with NaN, and
    columns missing from a row get NaN for that row — so
    ``len(column) == len(times)`` always holds.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.columns: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    def append(self, t: float, values: Mapping[str, float]) -> None:
        """Add one row at time ``t``."""
        n = len(self.times)
        for name, value in values.items():
            col = self.columns.get(name)
            if col is None:
                col = [math.nan] * n
                self.columns[name] = col
            col.append(float(value))
        for name, col in self.columns.items():
            if len(col) == n:  # column absent from this row
                col.append(math.nan)
        self.times.append(t)

    # ------------------------------------------------------------------
    def column(self, name: str) -> List[float]:
        return self.columns[name]

    def names(self) -> List[str]:
        return sorted(self.columns)

    def rows(self) -> Iterator[Tuple[float, Dict[str, float]]]:
        """Yield ``(t, {column: value})`` per row, NaN cells omitted."""
        for i, t in enumerate(self.times):
            row = {
                name: col[i]
                for name, col in self.columns.items()
                if not math.isnan(col[i])
            }
            yield t, row

    def peak(self, name: str) -> Tuple[Optional[float], float]:
        """``(time, value)`` of the column's maximum (NaN-ignoring).

        Returns ``(None, nan)`` when the column has no finite values.
        """
        best_t: Optional[float] = None
        best_v = math.nan
        for t, v in zip(self.times, self.columns.get(name, [])):
            if math.isnan(v):
                continue
            if best_t is None or v > best_v:
                best_t, best_v = t, v
        return best_t, best_v

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ColumnarSeries({len(self.times)} rows x {len(self.columns)} cols)"
