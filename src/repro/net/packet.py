"""Packets and flows.

A single :class:`Packet` class serves every protocol; the per-protocol
fields (``remaining`` for pFabric's priority, ``data_seq``/``data_prio``
/``expiry`` for pHost tokens) are plain slots left at their defaults
when unused.  This keeps the hot path monomorphic — no isinstance
dispatch inside switch queues.

A packet is a plain object with no identity beyond its fields: during a
run, :class:`repro.net.pool.PacketPool` re-stamps delivered and dropped
packets for their next life instead of constructing new ones.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Optional

from repro.sim.units import CONTROL_BYTES, HEADER_BYTES, MSS_BYTES, packets_for_bytes

__all__ = ["PacketType", "Packet", "Flow", "CONTROL_TYPES"]


class PacketType(IntEnum):
    """Wire packet kinds across all three protocols."""

    DATA = 0
    RTS = 1        # pHost: request-to-send, one per flow
    TOKEN = 2      # pHost: per-packet send credit
    ACK = 3        # pHost: per-flow ACK; pFabric/Fastpass: per-packet ACK
    REQUEST = 4    # Fastpass: demand report to the arbiter
    SCHEDULE = 5   # Fastpass: allocation from the arbiter


#: Types that ride at the highest priority and are 40 bytes on the wire.
CONTROL_TYPES = frozenset(
    {PacketType.RTS, PacketType.TOKEN, PacketType.ACK, PacketType.REQUEST, PacketType.SCHEDULE}
)


class Flow:
    """A transfer request between two hosts.

    This is the protocol-independent record; transports keep their own
    per-flow state objects referencing it.  ``size_bytes`` counts
    payload; on the wire each packet additionally carries
    ``HEADER_BYTES`` of header.
    """

    __slots__ = (
        "fid",
        "src",
        "dst",
        "size_bytes",
        "n_pkts",
        "arrival",
        "tenant",
        "deadline",
        "request_id",
        "finish",
        "start_time",
    )

    def __init__(
        self,
        fid: int,
        src: int,
        dst: int,
        size_bytes: int,
        arrival: float,
        tenant: int = 0,
        deadline: Optional[float] = None,
        request_id: Optional[int] = None,
    ) -> None:
        if src == dst:
            raise ValueError(f"flow {fid}: src == dst == {src}")
        if size_bytes < 0:
            raise ValueError(f"flow {fid}: negative size {size_bytes}")
        self.fid = fid
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.n_pkts = packets_for_bytes(size_bytes)
        self.arrival = arrival
        self.tenant = tenant
        self.deadline = deadline
        self.request_id = request_id
        #: Set by the metrics collector when the destination has all data.
        self.finish: Optional[float] = None
        #: Time the source transmitted the first data packet (None until then).
        self.start_time: Optional[float] = None

    # ------------------------------------------------------------------
    def payload_of(self, seq: int) -> int:
        """Payload bytes of data packet ``seq`` (the last may be short)."""
        if seq < 0 or seq >= self.n_pkts:
            raise ValueError(f"flow {self.fid}: bad seq {seq} (n_pkts={self.n_pkts})")
        if seq < self.n_pkts - 1:
            return MSS_BYTES
        last = self.size_bytes - MSS_BYTES * (self.n_pkts - 1)
        return max(last, 0)

    def wire_bytes_of(self, seq: int) -> int:
        """Wire bytes (payload + header) of data packet ``seq``."""
        return self.payload_of(seq) + HEADER_BYTES

    @property
    def completed(self) -> bool:
        return self.finish is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Flow(fid={self.fid}, {self.src}->{self.dst}, "
            f"{self.size_bytes}B/{self.n_pkts}pkts, t={self.arrival:.6f})"
        )


class Packet:
    """One packet on the wire.

    Attributes:
        ptype: Packet kind (see :class:`PacketType`).
        flow: Owning flow (None only for synthetic test packets).
        seq: Data sequence number, or the seq an ACK/token refers to.
        src/dst: Endpoint host ids.
        size: Wire size in bytes (payload + header for data; 40 for
            control).
        priority: Strict-priority band for commodity queues; 0 is the
            highest.
        remaining: pFabric priority value — remaining un-ACKed packets
            of the flow at send time; lower = more urgent.
        data_prio: pHost tokens: the priority band the granted data
            packet should use.
        expiry: pHost tokens: absolute time at which the token lapses.
        ecn: ECN codepoint — 0 (not marked) or 1 (congestion
            experienced).  Set by marking dataplane programs
            (:class:`repro.dataplane.DctcpEcnProgram`) on data packets
            and echoed back on ACKs by ECN-aware receivers.
        hops: Number of switch ports traversed so far (drop accounting).
        born: Time the packet was created (queueing-delay metrics).
        payload: Free-form attachment (Fastpass schedules).
    """

    __slots__ = (
        "ptype",
        "flow",
        "seq",
        "src",
        "dst",
        "size",
        "priority",
        "remaining",
        "data_prio",
        "expiry",
        "ecn",
        "hops",
        "born",
        "payload",
    )

    def __init__(
        self,
        ptype: PacketType,
        flow: Optional[Flow],
        seq: int,
        src: int,
        dst: int,
        size: int,
        priority: int = 0,
        born: float = 0.0,
    ) -> None:
        self.ptype = ptype
        self.flow = flow
        self.seq = seq
        self.src = src
        self.dst = dst
        self.size = size
        self.priority = priority
        self.remaining = 0
        self.data_prio = 0
        self.expiry = 0.0
        self.ecn = 0
        self.hops = 0
        self.born = born
        self.payload = None

    @property
    def is_control(self) -> bool:
        return self.ptype != PacketType.DATA

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        fid = self.flow.fid if self.flow is not None else None
        return (
            f"Packet({self.ptype.name}, flow={fid}, seq={self.seq}, "
            f"{self.src}->{self.dst}, {self.size}B, prio={self.priority})"
        )


def control_packet(
    ptype: PacketType,
    flow: Optional[Flow],
    seq: int,
    src: int,
    dst: int,
    born: float,
) -> Packet:
    """Build a 40-byte highest-priority control packet."""
    return Packet(ptype, flow, seq, src, dst, CONTROL_BYTES, priority=0, born=born)
