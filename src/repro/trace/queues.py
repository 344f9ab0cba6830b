"""Queue-occupancy monitoring.

Samples the byte occupancy of selected ports on a fixed period.  The
paper's §2.3 argument — spraying plus full bisection keeps queueing out
of the core and pushes all contention to the receiver's last hop — is
directly observable with this monitor (see
``tests/trace/test_queue_monitor.py`` for the experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.net.port import Port
from repro.net.topology import Fabric
from repro.sim.engine import EventLoop

__all__ = ["QueueSample", "QueueMonitor"]


@dataclass(frozen=True)
class QueueSample:
    """Occupancy of one port at one instant."""

    time: float
    port_name: str
    hop_index: int
    bytes_queued: int
    pkts_queued: int


class QueueMonitor:
    """Periodic sampler over a set of ports."""

    def __init__(self, env: EventLoop, ports: Iterable[Port], period: float) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.env = env
        self.ports: List[Port] = list(ports)
        if not self.ports:
            raise ValueError("need at least one port to monitor")
        self.period = period
        self.samples: List[QueueSample] = []
        self._timer: Optional[list] = None

    @classmethod
    def over_fabric(cls, fabric: Fabric, period: float) -> "QueueMonitor":
        """Monitor every port in the fabric (host NICs and switches)."""
        return cls(fabric.env, fabric.all_ports(), period)

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._timer = self.env.schedule(self.period, self._tick)

    def stop(self) -> None:
        EventLoop.cancel(self._timer)
        self._timer = None

    def _tick(self) -> None:
        self.sample()
        self._timer = self.env.schedule(self.period, self._tick)

    def sample(self) -> None:
        now = self.env.now
        for port in self.ports:
            queued = len(port.queue)
            if queued == 0:
                continue  # empty queues are implicit; keeps memory bounded
            self.samples.append(
                QueueSample(now, port.name, port.hop_index, port.queue.bytes_queued, queued)
            )

    # ------------------------------------------------------------------
    def peak_bytes_by_hop(self) -> Dict[int, int]:
        """Max observed occupancy per hop class (the fabric's hop index)."""
        peaks: Dict[int, int] = {}
        for s in self.samples:
            if s.bytes_queued > peaks.get(s.hop_index, 0):
                peaks[s.hop_index] = s.bytes_queued
        return peaks

    def mean_bytes_by_hop(self) -> Dict[int, float]:
        """Mean occupancy per hop class over *non-empty* samples."""
        sums: Dict[int, int] = {}
        counts: Dict[int, int] = {}
        for s in self.samples:
            sums[s.hop_index] = sums.get(s.hop_index, 0) + s.bytes_queued
            counts[s.hop_index] = counts.get(s.hop_index, 0) + 1
        return {h: sums[h] / counts[h] for h in sums}
