"""Plain-loop reference models of the three built-in dataplane programs.

Each model states its program's rules the obvious way: a list of
``(packet, band, arrival)`` entries and a Python loop over it for every
victim and every departure, with the arrival number as the explicit
tie-break.  The engine's programs reach the same decisions through C
scans over its ``bands`` column; the tests drive a
:class:`~repro.dataplane.ProgramQueue` and its model side by side and
require the same drops, in the same order, and the same departures.

A model implements the port's queue protocol but declares no
``cut_through``, so a :class:`~repro.net.port.Port` over it pushes and
pops every packet.
"""

from __future__ import annotations

from repro.net.packet import PacketType


class ModelQueue:
    """Byte-budgeted buffer; subclasses supply the four stages."""

    def __init__(self, capacity_bytes):
        self.capacity_bytes = capacity_bytes
        self.entries = []  # [packet, band, arrival], in arrival order
        self.bytes_queued = 0
        self.arrivals = 0
        self.marked = 0

    @property
    def pkts(self):
        return [entry[0] for entry in self.entries]

    @property
    def pkts_queued(self):
        return len(self.entries)

    def __len__(self):
        return len(self.entries)

    def push(self, pkt):
        band = self.classify(pkt)
        if self.mark(pkt):
            self.marked += 1
        self.arrivals += 1
        self.entries.append([pkt, band, self.arrivals])
        self.bytes_queued += pkt.size
        dropped = []
        while self.bytes_queued > self.capacity_bytes:
            dropped.append(self._take(self.victim()))
        return dropped

    def pop(self):
        if not self.entries:
            return None
        return self._take(self.next_index())

    def peek(self):
        if not self.entries:
            return None
        return self.entries[self.next_index()][0]

    def _take(self, index):
        pkt = self.entries.pop(index)[0]
        self.bytes_queued -= pkt.size
        return pkt

    # -- stages --------------------------------------------------------
    def classify(self, pkt):
        raise NotImplementedError

    def mark(self, pkt):
        return False

    def victim(self):
        raise NotImplementedError

    def next_index(self):
        """Lowest band first; the earliest arrival within it."""
        return self.extreme(lambda key, best: key < best)

    def extreme(self, beats):
        """Index of the entry whose ``(band, arrival)`` beats all others."""
        best = 0
        for i, (_, band, arrival) in enumerate(self.entries):
            if beats((band, arrival), tuple(self.entries[best][1:])):
                best = i
        return best

    def newest_of_highest_band(self):
        """Max ``(band, arrival)``."""
        return self.extreme(lambda key, best: key > best)


class CommodityModel(ModelQueue):
    """Strict-priority FIFO bands, clamped; drop-tail."""

    def __init__(self, capacity_bytes, n_bands=8):
        super().__init__(capacity_bytes)
        self.n_bands = n_bands

    def classify(self, pkt):
        return min(max(pkt.priority, 0), self.n_bands - 1)

    def victim(self):
        return len(self.entries) - 1  # the incoming packet


class PFabricModel(ModelQueue):
    """Priority drop on ``remaining``, starvation-avoidance dequeue."""

    def classify(self, pkt):
        return pkt.remaining

    def victim(self):
        """The least urgent entry: max ``(remaining, arrival)``."""
        return self.newest_of_highest_band()

    def next_index(self):
        """The most urgent entry picks a flow; that flow's earliest
        queued packet departs."""
        urgent = super().next_index()
        flow = self.entries[urgent][0].flow
        if flow is None:
            return urgent
        for i, (pkt, _, _) in enumerate(self.entries):
            if pkt.flow is flow:
                return i
        raise AssertionError("the urgent packet's flow is queued")


class DctcpModel(CommodityModel):
    """Commodity bands; ECN mark on DATA at or above the threshold; the
    newest packet of the highest band is the victim."""

    def __init__(self, capacity_bytes, n_bands=8, mark_threshold_bytes=9_000):
        super().__init__(capacity_bytes, n_bands)
        self.mark_threshold_bytes = mark_threshold_bytes

    def mark(self, pkt):
        if pkt.ptype == PacketType.DATA and self.bytes_queued >= self.mark_threshold_bytes:
            pkt.ecn = 1
            return True
        return False

    def victim(self):
        return self.newest_of_highest_band()
