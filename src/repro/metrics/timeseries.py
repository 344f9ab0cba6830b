"""Time series of a running simulation.

Two complementary shapes:

* :class:`ThroughputSeries` — a collector observer that bins delivered
  payload bytes into fixed windows and tracks the active-flow count at
  each transition — the raw material for "goodput over time" and
  "concurrency over time" plots, and a direct way to watch a run enter
  the unstable regime (goodput saturates while active flows climb).
  Attach it with :meth:`repro.metrics.collector.MetricsCollector.add_observer`
  (observers stack; tracers, auditors and telemetry sinks coexist).
* :class:`ColumnarSeries` — an append-only columnar store (one shared
  time column plus named float columns) that the
  :class:`repro.obs.PeriodicSampler` fills with registry snapshots.
  Columns may appear mid-run (instruments registered late); earlier
  rows are backfilled with NaN so every column always has one value
  per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.net.packet import Flow, Packet
from repro.sim.engine import EventLoop
from repro.sim.units import HEADER_BYTES

__all__ = ["ThroughputSeries", "Window", "ColumnarSeries"]


@dataclass(frozen=True)
class Window:
    """One completed time window."""

    start: float
    bytes_delivered: int
    flows_completed: int
    flows_arrived: int

    def goodput_bps(self, width: float) -> float:
        return self.bytes_delivered * 8.0 / width


class ThroughputSeries:
    """Collector observer binning delivery into fixed windows."""

    def __init__(self, env: EventLoop, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.env = env
        self.window = window
        self._bins: Dict[int, List[int]] = {}  # idx -> [bytes, done, arrived]
        self.active_flows = 0
        self.peak_active_flows = 0

    # -- observer interface ---------------------------------------------
    def flow_arrived(self, flow: Flow, now: float) -> None:
        self.active_flows += 1
        if self.active_flows > self.peak_active_flows:
            self.peak_active_flows = self.active_flows
        self._bin(now)[2] += 1

    def flow_completed(self, flow: Flow, now: float) -> None:
        if self.active_flows > 0:
            self.active_flows -= 1
        self._bin(now)[1] += 1

    def data_sent(self, pkt: Packet, first_time: bool) -> None:
        pass

    def data_delivered(self, pkt: Packet) -> None:
        self._bin(self.env.now)[0] += max(pkt.size - HEADER_BYTES, 0)

    def data_duplicate(self, pkt: Packet) -> None:
        pass  # goodput counts each packet once, at its first delivery

    def control_sent(self, pkt: Packet) -> None:
        pass

    # -- internals --------------------------------------------------------
    def _bin(self, now: float) -> List[int]:
        idx = int(now / self.window)
        cell = self._bins.get(idx)
        if cell is None:
            cell = [0, 0, 0]
            self._bins[idx] = cell
        return cell

    # -- queries ----------------------------------------------------------
    def windows(self) -> List[Window]:
        """All non-empty windows in time order."""
        out = []
        for idx in sorted(self._bins):
            b, done, arrived = self._bins[idx]
            out.append(Window(idx * self.window, b, done, arrived))
        return out

    def peak_goodput_bps(self) -> float:
        if not self._bins:
            return 0.0
        return max(b for b, _, _ in self._bins.values()) * 8.0 / self.window

    def total_bytes(self) -> int:
        return sum(b for b, _, _ in self._bins.values())


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
