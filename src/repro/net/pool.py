"""Packet freelist.

Simulations churn through one short-lived :class:`~repro.net.packet.Packet`
object per wire packet.  The pool recycles them: a packet whose life
has ended is parked on a LIFO stack, and the next acquire re-stamps that
object instead of constructing a new one.  Protocol code is oblivious:
the acquire helpers hand out ``Packet``s, and a reused packet is
indistinguishable from a fresh one.

Packets are pure value objects here — nothing in the simulator keeps a
reference past a packet's end of life (instrumentation hooks record
scalars, not packets; a hook that *does* retain them must set
``retains_packets = True``, which makes the runner disable pooling for
that run) — so reuse is invisible to protocol logic and to run digests.

Three properties hold by construction:

* a packet is released exactly where its life ends, and nowhere else:
  delivery (:meth:`repro.net.node.Host.receive`, after the agent has
  seen it), a queue drop (the fabric's ``_record_drop``, after the drop
  hooks have run) and an injected drop (``record_fault_drop``);
* :meth:`release` resets every mutable field, so a reused packet is
  indistinguishable from a fresh one;
* the freelist needs no cap.  A packet object is created only when the
  freelist is empty, so ``allocated`` is the peak number of packets alive
  at once, however many were dropped, and the freelist never holds more
  objects than that.

With ``enabled = False`` the acquire helpers degrade to plain
construction and :meth:`release` is a no-op, so call sites never branch.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.packet import Flow, Packet, PacketType
from repro.sim.units import CONTROL_BYTES

__all__ = ["PacketPool"]

_DATA = PacketType.DATA


class PacketPool:
    """A LIFO freelist of :class:`Packet` objects.

    One pool per run, owned by the
    :class:`~repro.sim.context.SimContext`.  The object is created with
    the context and never replaced — agents may cache the reference —
    only ``enabled`` is flipped by the runner.
    """

    __slots__ = ("enabled", "allocated", "reused", "released", "_free")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.allocated = 0  # fresh Packet constructions
        self.reused = 0     # acquisitions served from the freelist
        self.released = 0   # packets parked for reuse
        self._free: List[Packet] = []  # parked packets, LIFO

    # ------------------------------------------------------------------
    def data(
        self,
        flow: Flow,
        seq: int,
        src: int,
        dst: int,
        size: int,
        priority: int,
        born: float,
    ) -> Packet:
        """Acquire a DATA packet (recycled or fresh)."""
        free = self._free
        if free:
            self.reused += 1
            pkt = free.pop()
            pkt.ptype = _DATA
            pkt.flow = flow
            pkt.seq = seq
            pkt.src = src
            pkt.dst = dst
            pkt.size = size
            pkt.priority = priority
            pkt.born = born
            return pkt
        self.allocated += 1
        return Packet(_DATA, flow, seq, src, dst, size, priority=priority, born=born)

    def control(
        self,
        ptype: PacketType,
        flow: Optional[Flow],
        seq: int,
        src: int,
        dst: int,
        born: float,
    ) -> Packet:
        """Acquire a 40-byte highest-priority control packet."""
        free = self._free
        if free:
            self.reused += 1
            pkt = free.pop()
            pkt.ptype = ptype
            pkt.flow = flow
            pkt.seq = seq
            pkt.src = src
            pkt.dst = dst
            pkt.size = CONTROL_BYTES
            pkt.priority = 0
            pkt.born = born
            return pkt
        self.allocated += 1
        return Packet(ptype, flow, seq, src, dst, CONTROL_BYTES, priority=0, born=born)

    # ------------------------------------------------------------------
    def release(self, pkt: Packet) -> None:
        """End a packet's life: reset it and park it for reuse (no-op
        while disabled)."""
        if not self.enabled:
            return
        pkt.flow = None
        pkt.payload = None
        pkt.remaining = 0
        pkt.data_prio = 0
        pkt.expiry = 0.0
        pkt.ecn = 0
        pkt.hops = 0
        self._free.append(pkt)
        self.released += 1

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "enabled": self.enabled,
            "allocated": self.allocated,
            "reused": self.reused,
            "released": self.released,
            "free": len(self._free),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PacketPool(enabled={self.enabled}, alloc={self.allocated}, "
            f"reused={self.reused}, free={len(self._free)})"
        )
