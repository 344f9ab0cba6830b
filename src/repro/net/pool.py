"""Packet freelist over a columnar store.

Simulations churn through one short-lived :class:`~repro.net.packet.Packet`
object per wire packet.  The pool recycles them — but since PR 9 the
thing recycled is an integer *slot* in a preallocated struct-of-arrays
:class:`~repro.net.columns.PacketColumns` store, not a Packet object:
the freelist is a stack of ints, each slot lazily materializes one
cached ``Packet`` view on first use, and bulk consumers can address
packet state by index without touching Python objects.  Protocol code
is oblivious: acquire helpers still hand out ``Packet``s, and a reused
view is indistinguishable from a fresh packet.

Packets are pure value objects here — nothing in the simulator keeps a
reference past a packet's end of life (instrumentation hooks record
scalars, not packets; a hook that *does* retain them must set
``retains_packets = True``, which makes the runner disable pooling for
that run) — so reuse is invisible to protocol logic and to run digests.

Two safety properties hold by construction:

* a slot is released exactly where its packet's life ends, and nowhere
  else: delivery (:meth:`repro.net.node.Host.receive`, after the agent
  has seen it), a queue drop (the fabric's ``_record_drop``, after the
  drop hooks have run) and an injected drop (``record_fault_drop``).
  While ``fabric.keep_dropped`` is set the fabric holds dropped packets
  in ``dropped_packets`` and does not release them, so the retained
  packets keep their fields.  The store therefore holds as many slots
  as packets were ever in flight at once, however many were dropped;
* :meth:`release` resets every mutable field — view and columns — so a
  reused slot is indistinguishable from a fresh one.

With ``enabled = False`` the acquire helpers degrade to plain
construction (no slots, no column writes), so call sites never branch.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.columns import PacketColumns
from repro.net.packet import Flow, Packet, PacketType
from repro.sim.units import CONTROL_BYTES

__all__ = ["PacketPool"]


class PacketPool:
    """A bounded slot freelist over :class:`PacketColumns`.

    One pool per run, owned by the
    :class:`~repro.sim.context.SimContext`.  The object is created with
    the context and never replaced — agents may cache the reference —
    only ``enabled`` is flipped by the runner.
    """

    __slots__ = (
        "enabled",
        "max_free",
        "allocated",
        "reused",
        "released",
        "columns",
        "_free",
    )

    def __init__(
        self,
        enabled: bool = False,
        max_free: int = 4096,
        capacity: int = 256,
    ) -> None:
        self.enabled = enabled
        self.max_free = max_free
        self.allocated = 0  # fresh slot/Packet acquisitions
        self.reused = 0     # acquisitions served from the freelist
        self.released = 0   # slots parked for reuse
        self.columns = PacketColumns(capacity)
        self._free: List[int] = []  # parked slots, LIFO

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
        """Acquire a DATA packet (recycled slot, fresh slot, or plain)."""
        free = self._free
        if free:
            self.reused += 1
            return self.columns.stamp(
                free.pop(), PacketType.DATA, flow, seq, src, dst, size, priority, born
            )
        self.allocated += 1
        if self.enabled:
            return self.columns.stamp(
                self.columns.acquire(),
                PacketType.DATA, flow, seq, src, dst, size, priority, born,
            )
        return Packet(PacketType.DATA, flow, seq, src, dst, size, priority=priority, born=born)

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
            return self.columns.stamp(
                free.pop(), ptype, flow, seq, src, dst, CONTROL_BYTES, 0, born
            )
        self.allocated += 1
        if self.enabled:
            return self.columns.stamp(
                self.columns.acquire(),
                ptype, flow, seq, src, dst, CONTROL_BYTES, 0, born,
            )
        return Packet(ptype, flow, seq, src, dst, CONTROL_BYTES, priority=0, born=born)

    # ------------------------------------------------------------------
    def release(self, pkt: Packet) -> None:
        """End a packet's life: park its slot for reuse (no-op while
        disabled and for plain packets).  Past the ``max_free`` cap the
        slot goes back to the store's own free stack instead, so the
        next fresh acquire takes it before the store grows."""
        if not self.enabled:
            return
        slot = pkt.slot
        if slot < 0:  # plain packet from a pre-enable acquire
            return
        self.columns.reset(slot)
        free = self._free
        if len(free) >= self.max_free:
            self.columns.release(slot)
            return
        free.append(slot)
        self.released += 1

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        out = {
            "enabled": self.enabled,
            "allocated": self.allocated,
            "reused": self.reused,
            "released": self.released,
            "free": len(self._free),
        }
        out.update({f"columns_{k}": v for k, v in self.columns.stats().items()})
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PacketPool(enabled={self.enabled}, alloc={self.allocated}, "
            f"reused={self.reused}, free={len(self._free)})"
        )
