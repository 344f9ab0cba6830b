"""Packet-drop accounting (Figures 5e and 5f).

The fabric counts drops per hop (two-tier: 1 = host NIC, 2 = ToR up,
3 = core, 4 = ToR down; see its ``hop_names``); :class:`DropStats`
snapshots those counters and names together with the injection totals
needed to express a drop *rate*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.metrics.collector import MetricsCollector
from repro.net.topology import Fabric, HOP_NAMES

__all__ = ["DropStats"]


@dataclass(frozen=True)
class DropStats:
    """Immutable snapshot of drop counters at the end of a run."""

    by_hop: Dict[int, int]
    total_drops: int
    pkts_injected: int
    pkts_retransmitted: int
    #: Hop index -> name of the fabric that ran, in traversal order.
    hop_names: Dict[int, str] = field(default_factory=HOP_NAMES.copy)

    @classmethod
    def from_run(cls, fabric: Fabric, collector: MetricsCollector) -> "DropStats":
        return cls(
            by_hop=dict(fabric.drops_by_hop),
            total_drops=fabric.drops_total,
            pkts_injected=collector.data_pkts_injected,
            pkts_retransmitted=collector.data_pkts_retransmitted,
            hop_names=dict(fabric.hop_names),
        )

    @property
    def drop_rate(self) -> float:
        """Drops / total packets injected (Fig. 5e's y-axis)."""
        sent = self.pkts_injected + self.pkts_retransmitted
        if sent <= 0:
            return 0.0
        return self.total_drops / sent

    @property
    def edge_drops(self) -> int:
        """First + last hop drops (where pFabric concentrates losses)."""
        hops = sorted(self.hop_names)
        return self.by_hop.get(hops[0], 0) + self.by_hop.get(hops[-1], 0)

    @property
    def fabric_drops(self) -> int:
        """Drops inside the fabric (every hop but the first and last)."""
        return sum(self.by_hop.get(h, 0) for h in sorted(self.hop_names)[1:-1])

    def rows(self):
        """(hop name, count) rows in hop order, for reports."""
        return [(name, self.by_hop.get(h, 0)) for h, name in sorted(self.hop_names.items())]

    def __str__(self) -> str:
        parts = ", ".join(f"{name}={count}" for name, count in self.rows())
        return f"DropStats(total={self.total_drops}, rate={self.drop_rate:.2e}, {parts})"
