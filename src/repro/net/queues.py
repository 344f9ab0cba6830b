"""Per-port packet queues.

Two queue disciplines cover everything in the paper:

* :class:`PriorityQueue` — the commodity switch queue pHost and Fastpass
  assume: a handful of strict-priority FIFO bands sharing one small byte
  buffer, drop-tail on overflow.  ("they do provide some basic features:
  a few priority levels (typically 8-10)" — paper §2.1.)
* :class:`PFabricQueue` — pFabric's specialized queue: packets carry a
  `remaining` priority value (remaining un-ACKed packets of the flow);
  on overflow the *lowest-priority* (largest ``remaining``) packet in
  the buffer is evicted; dequeue picks the oldest packet of the flow
  with the most urgent packet (the starvation-avoidance rule from
  pFabric §3 / the footnote of the pHost paper).

pFabric buffers are tiny by design (36 kB ~ 24 full-size packets), so
PFabricQueue stays a flat list; what it avoids is interpreting a loop
over that list per packet — its scans are ``min``/``max``/``index``
calls over a parallel list of keys, which run in C.

Both classes declare ``cut_through = True``: pushing a packet that fits
into an empty queue and popping it again has no effect beyond handing
the packet back, so an idle :class:`~repro.net.port.Port` may skip the
queue entirely (PFabricQueue's arrival stamps only order the packets
buffered together, so skipping one stamp changes no decision).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.net.packet import Flow, Packet

__all__ = ["PriorityQueue", "PFabricQueue", "QueueFullError"]

class _ReadOnlyDropList(list):
    """The shared empty push() return, with the read-only contract
    *enforced*: a caller appending to (or otherwise mutating) the
    sentinel would silently corrupt every later "nothing dropped"
    return, so every mutator raises instead.  Still a ``list`` subclass
    — ``dropped == []``, truthiness, and iteration behave exactly like
    the plain literal the hot path used before."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(
            "push() returned the shared no-drop sentinel; it is read-only "
            "(copy it with list(...) if you need to mutate)"
        )

    append = extend = insert = remove = clear = sort = reverse = _refuse
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    pop = _refuse


#: Shared "nothing dropped" return — saves one list allocation per push
#: on the hot path.  Read-only by construction (see _ReadOnlyDropList).
_NO_DROP: List[Packet] = _ReadOnlyDropList()


class QueueFullError(RuntimeError):
    """Raised only by strict APIs in tests; data-path drops are returns."""


class PriorityQueue:
    """Strict-priority multi-band FIFO with a shared byte budget.

    ``push`` returns the list of dropped packets (the incoming packet,
    drop-tail, possibly empty), ``pop`` returns the next packet to
    serialize or None.
    """

    __slots__ = (
        "capacity_bytes",
        "bands",
        "bytes_queued",
        "pkts_queued",
        "_n_bands",
        "_lo",
    )

    #: An idle port may bypass this queue when it is empty.
    cut_through = True

    def __init__(self, capacity_bytes: int, n_bands: int = 8) -> None:
        if n_bands < 1:
            raise ValueError("need at least one priority band")
        self.capacity_bytes = capacity_bytes
        self._n_bands = n_bands
        # A band's deque is made on its first push: most ports only
        # ever see two or three of their bands.
        self.bands: List[Optional[Deque[Packet]]] = [None] * n_bands
        self.bytes_queued = 0
        # Maintained packet count: ports read queue occupancy on every
        # send for the high-water marks, so len() must not be O(bands).
        self.pkts_queued = 0
        # Lowest band that may be non-empty (pop scans from here instead
        # of from band 0 every time).
        self._lo = 0

    @property
    def n_bands(self) -> int:
        return self._n_bands

    def push(self, pkt: Packet) -> List[Packet]:
        """Enqueue; returns dropped packets (drop-tail: incoming only).

        The returned list is owned by the queue when empty — read-only.
        """
        if self.bytes_queued + pkt.size > self.capacity_bytes:
            return [pkt]
        band = pkt.priority
        if band < 0:
            band = 0
        elif band >= self._n_bands:
            band = self._n_bands - 1
        queue = self.bands[band]
        if queue is None:
            queue = self.bands[band] = deque()
        queue.append(pkt)
        if band < self._lo:
            self._lo = band
        self.bytes_queued += pkt.size
        self.pkts_queued += 1
        return _NO_DROP

    def pop(self) -> Optional[Packet]:
        if not self.pkts_queued:
            return None
        bands = self.bands
        i = self._lo
        while not bands[i]:
            i += 1
        self._lo = i
        pkt = bands[i].popleft()
        self.bytes_queued -= pkt.size
        self.pkts_queued -= 1
        return pkt

    def peek(self) -> Optional[Packet]:
        for band in self.bands:
            if band:
                return band[0]
        return None

    def __len__(self) -> int:
        return self.pkts_queued

    def __bool__(self) -> bool:
        return self.pkts_queued > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PriorityQueue({self.bytes_queued}/{self.capacity_bytes}B, "
            f"{len(self)} pkts)"
        )


class PFabricQueue:
    """pFabric's priority-drop / priority-dequeue queue.

    Priority of a packet is its ``remaining`` field (fewer remaining
    un-ACKed packets = more urgent), read once when the packet is
    queued.  Control/ACK packets are stamped ``remaining = 0`` by the
    pFabric agent, so they are effectively never dropped — mirroring
    pFabric's high-priority ACKs.

    Dequeue implements the starvation-avoidance rule: find the packet
    with the minimum ``remaining`` value, then transmit the *earliest
    arrived* packet belonging to that packet's flow (which may be a
    different, older packet stamped with a larger remaining value).

    Three parallel lists in arrival order hold the packets, their
    ``(remaining, arrival stamp)`` keys and their flows.  Stamps are
    unique, so ``max(keys)`` is the one least-urgent packet (largest
    remaining; on a tie the most recently arrived, so older packets
    survive) and ``min(keys)`` the one most urgent.
    """

    __slots__ = (
        "capacity_bytes",
        "pkts",
        "bytes_queued",
        "pkts_queued",
        "_arrival_seq",
        "_keys",
        "_flows",
    )

    #: An idle port may bypass this queue when it is empty.
    cut_through = True

    def __init__(self, capacity_bytes: int, n_bands: int = 8) -> None:
        # n_bands accepted (and ignored) so both queue types share a factory
        # signature.
        self.capacity_bytes = capacity_bytes
        self.pkts: List[Packet] = []
        self.bytes_queued = 0
        self.pkts_queued = 0  # == len(pkts); attribute so ports read it O(1)
        self._arrival_seq = 0
        self._keys: List[Tuple[int, int]] = []  # (remaining, stamp), parallel to pkts
        self._flows: List[Optional[Flow]] = []  # pkt.flow, parallel to pkts

    def push(self, pkt: Packet) -> List[Packet]:
        """Enqueue with priority-aware eviction; returns dropped packets.

        The returned list is owned by the queue when empty — read-only.
        """
        self._arrival_seq += 1
        self.pkts.append(pkt)
        keys = self._keys
        keys.append((pkt.remaining, self._arrival_seq))
        self._flows.append(pkt.flow)
        self.bytes_queued += pkt.size
        self.pkts_queued += 1
        if self.bytes_queued <= self.capacity_bytes:
            return _NO_DROP
        dropped: List[Packet] = []
        while self.bytes_queued > self.capacity_bytes and keys:
            dropped.append(self._take(keys.index(max(keys))))
        return dropped

    def pop(self) -> Optional[Packet]:
        if not self.pkts:
            return None
        return self._take(self._next_index())

    def peek(self) -> Optional[Packet]:
        """The packet :meth:`pop` would return, without removing it."""
        if not self.pkts:
            return None
        return self.pkts[self._next_index()]

    def _next_index(self) -> int:
        """Index of the earliest queued packet of the most urgent
        packet's flow (never called empty)."""
        keys = self._keys
        if len(keys) == 1:
            return 0
        urgent = keys.index(min(keys))
        flow = self._flows[urgent]
        if flow is None:
            return urgent
        return self._flows.index(flow)

    def _take(self, index: int) -> Packet:
        pkt = self.pkts.pop(index)
        del self._keys[index]
        del self._flows[index]
        self.bytes_queued -= pkt.size
        self.pkts_queued -= 1
        return pkt

    def __len__(self) -> int:
        return len(self.pkts)

    def __bool__(self) -> bool:
        return bool(self.pkts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PFabricQueue({self.bytes_queued}/{self.capacity_bytes}B, {len(self.pkts)} pkts)"
