"""The built-in dataplane programs.

Two *reference* programs express the paper's two switch models as
match-action pipelines — the commodity switch and pFabric's custom
silicon — and one more (DCTCP-style ECN marking) shows that a plug-in
needs nothing beyond the public stage API.  Every stage a program
overrides here is one C-level scan over the engine's ``bands`` column,
never a Python loop over the buffer.
"""

from __future__ import annotations

from operator import attrgetter, indexOf

from repro.net.packet import Packet, PacketType
from repro.dataplane.program import DataplaneProgram, ProgramQueue

__all__ = ["CommodityProgram", "PFabricProgram", "DctcpEcnProgram"]

_FLOW = attrgetter("flow")


def _evict_newest_of_highest_band(self, pkt: Packet, q: ProgramQueue) -> int:
    """The newest entry of the highest band: that band's last entry,
    because list order is arrival order."""
    bands = q.bands
    return len(bands) - 1 - bands[::-1].index(max(bands))


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

    classify  -> the packet's ``remaining`` value, its urgency rank
                 (fewer remaining un-ACKed packets = more urgent; the
                 pFabric agent stamps control packets 0);
    meter     -> nothing;
    evict     -> the least-urgent entry: max ``(remaining, arrival)``,
                 the last entry of the highest band.  The incoming
                 packet is the newest, so on an urgency tie the
                 *incoming* packet is dropped and older buffered
                 packets survive;
    schedule  -> starvation avoidance (paper footnote 1): the most
                 urgent entry — min ``(remaining, arrival)``, the first
                 entry of the lowest band — selects a flow; the
                 earliest queued packet of that flow is transmitted.
    """

    name = "pfabric"

    def classify(self, pkt: Packet, q: ProgramQueue) -> int:
        return pkt.remaining

    evict = _evict_newest_of_highest_band

    def schedule(self, q: ProgramQueue) -> int:
        bands = q.bands
        urgent = bands.index(min(bands))
        flow = q.pkts[urgent].flow
        if flow is None:
            return urgent
        return indexOf(map(_FLOW, q.pkts), flow)


class DctcpEcnProgram(CommodityProgram):
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
    """

    name = "dctcp"

    def __init__(self, n_bands: int = 8, mark_threshold_bytes: int = 9_000) -> None:
        super().__init__(n_bands)
        if mark_threshold_bytes < 0:
            raise ValueError("mark threshold must be >= 0")
        self.mark_threshold_bytes = mark_threshold_bytes

    def meter(self, pkt: Packet, q: ProgramQueue) -> bool:
        if (
            pkt.ptype == PacketType.DATA
            and q.bytes_queued >= self.mark_threshold_bytes
        ):
            pkt.ecn = 1
            return True
        return False

    evict = _evict_newest_of_highest_band
