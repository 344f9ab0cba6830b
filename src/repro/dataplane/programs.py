"""The built-in dataplane programs.

Two *reference* programs re-express the seed repository's queue classes
as match-action pipelines — the paper's commodity switch and pFabric's
custom silicon — and one *new* program (DCTCP-style ECN marking)
demonstrates that a plug-in needs nothing beyond the public stage API.

The reference programs also compile to the hand-optimized
``repro.net.queues`` classes when ``fused=True`` (the default at run
time, controlled by ``SimTuning.fused_dataplane``): the generic engine
is the semantic specification, the specialized class is the hot path,
and the determinism suite holds them byte-identical.
"""

from __future__ import annotations

from repro.net.packet import Packet, PacketType
from repro.net.queues import PFabricQueue, PriorityQueue
from repro.dataplane.program import DataplaneProgram, ProgramQueue

__all__ = ["CommodityProgram", "PFabricProgram", "DctcpEcnProgram"]


class CommodityProgram(DataplaneProgram):
    """The paper's commodity switch (§2.1): a few strict-priority FIFO
    bands over one shared byte budget, drop-tail on overflow.

    classify  -> the packet's ``priority`` field, clamped to the band
                 range;
    meter     -> nothing (commodity switches do not mark);
    evict     -> the incoming packet (drop-tail);
    schedule  -> lowest band first, FIFO within a band.
    """

    name = "commodity"

    def __init__(self, n_bands: int = 8) -> None:
        if n_bands < 1:
            raise ValueError("need at least one priority band")
        self.n_bands = n_bands

    def make_queue(self, capacity_bytes: int, *, fused: bool = True):
        if fused:
            return PriorityQueue(capacity_bytes, n_bands=self.n_bands)
        return ProgramQueue(self, capacity_bytes)

    def classify(self, pkt: Packet, q: ProgramQueue) -> int:
        band = pkt.priority
        if band < 0:
            return 0
        if band >= self.n_bands:
            return self.n_bands - 1
        return band

    # evict: inherited drop-tail.
    # schedule: inherited strict-priority FIFO.


class PFabricProgram(DataplaneProgram):
    """pFabric's specialized queue as a program.

    classify  -> single band (pFabric ignores priority bands; urgency
                 lives in ``remaining``);
    meter     -> nothing;
    evict     -> the least-urgent entry: max ``(remaining, stamp)``.
                 The incoming packet holds the newest stamp, so on an
                 urgency tie the *incoming* packet is dropped and older
                 buffered packets survive — exactly
                 ``PFabricQueue``'s ``max`` over its keys;
    schedule  -> starvation avoidance (paper footnote 1): the most
                 urgent entry — min ``(remaining, stamp)`` — selects a
                 flow; the earliest queued packet of that flow is
                 transmitted.
    """

    name = "pfabric"

    def make_queue(self, capacity_bytes: int, *, fused: bool = True):
        if fused:
            return PFabricQueue(capacity_bytes)
        return ProgramQueue(self, capacity_bytes)

    def evict(self, pkt: Packet, q: ProgramQueue) -> int:
        pkts = q.pkts
        stamps = q.stamps
        worst = 0
        worst_key = (pkts[0].remaining, stamps[0])
        for i in range(1, len(pkts)):
            key = (pkts[i].remaining, stamps[i])
            if key > worst_key:
                worst_key = key
                worst = i
        return worst

    def schedule(self, q: ProgramQueue) -> int:
        pkts = q.pkts
        stamps = q.stamps
        best = 0
        best_key = (pkts[0].remaining, stamps[0])
        for i in range(1, len(pkts)):
            key = (pkts[i].remaining, stamps[i])
            if key < best_key:
                best_key = key
                best = i
        flow = pkts[best].flow
        if flow is None:
            return best
        # List order is arrival order, so the first same-flow entry is
        # the earliest queued packet of the selected flow.
        for i, p in enumerate(pkts):
            if p.flow is flow:
                return i
        return best  # pragma: no cover - flow is in pkts by construction


class DctcpEcnProgram(DataplaneProgram):
    """DCTCP's switch side: commodity forwarding + ECN threshold marking.

    Identical to :class:`CommodityProgram` except for two stages:

    meter     -> a DATA packet arriving while the instantaneous buffer
                 occupancy is at or above the marking threshold ``K``
                 gets its ECN codepoint set (DCTCP paper §3.2: mark on
                 instantaneous queue length, not an average — the
                 low-threshold marking *is* the algorithm).  Control
                 packets are never marked: the 40-byte ACK band cannot
                 build a standing queue, and marking ACKs would feed
                 the sender's estimator noise from the reverse path;
    evict     -> the newest packet of the lowest-priority (highest)
                 band, i.e. per-class drop-tail on a strict-priority
                 scheduler rather than shared-buffer drop-tail.  DCTCP
                 deployments carry ACKs in a protected high-priority
                 class; modelling that here keeps 40-byte ACKs from
                 being tail-dropped behind a data burst (a lost final
                 ACK would otherwise force the sender to retransmit a
                 flow the receiver already completed).  For data-only
                 overflow the victim is the incoming packet itself, so
                 the behaviour degenerates to commodity drop-tail.

    There is deliberately no fused specialization: this program always
    runs on the generic :class:`ProgramQueue` engine, proving the
    plug-in path end to end (per-stage ledgers included).
    """

    name = "dctcp"

    def __init__(self, n_bands: int = 8, mark_threshold_bytes: int = 9_000) -> None:
        if n_bands < 1:
            raise ValueError("need at least one priority band")
        if mark_threshold_bytes < 0:
            raise ValueError("mark threshold must be >= 0")
        self.n_bands = n_bands
        self.mark_threshold_bytes = mark_threshold_bytes

    def classify(self, pkt: Packet, q: ProgramQueue) -> int:
        band = pkt.priority
        if band < 0:
            return 0
        if band >= self.n_bands:
            return self.n_bands - 1
        return band

    def meter(self, pkt: Packet, q: ProgramQueue) -> bool:
        if (
            pkt.ptype == PacketType.DATA
            and q.bytes_queued >= self.mark_threshold_bytes
        ):
            pkt.ecn = 1
            return True
        return False

    def evict(self, pkt: Packet, q: ProgramQueue) -> int:
        # List order is stamp order, so the newest entry of the highest
        # band is that band's last occurrence.
        bands = q.bands
        return len(bands) - 1 - bands[::-1].index(max(bands))
