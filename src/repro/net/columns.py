"""Struct-of-arrays packet storage.

:class:`PacketColumns` is the columnar substrate under
:class:`repro.net.pool.PacketPool`: every pooled packet is a row — an
integer *slot* — across a set of preallocated parallel ``array``
columns (one per scalar :class:`~repro.net.packet.Packet` field, plus a
plain list for the flow reference).  The freelist then recycles
integers, not objects, and bulk consumers can address packet state by
index through the buffer protocol without touching a single Python
object.

``Packet`` objects do not disappear: protocols, tracers, and queues all
speak ``Packet``.  Each slot lazily materializes one *view* — a regular
``Packet`` carrying its ``slot`` index — created on first use and then
reused for every life of the slot, so the steady-state hot path
allocates nothing.

Column-authority contract (what the tests pin):

* **identity columns** — ``ptype, fid, seq, src, dst, size, priority,
  born`` — are written by :meth:`stamp` when a slot starts a life and
  never change in flight; the columns are authoritative and the view
  mirrors them.
* **dynamic fields** — ``remaining, data_prio, expiry, ecn, hops`` —
  are mutated on the view by protocol/dataplane code mid-flight (the
  pure hot path must not pay a column write per hop); the *view* is
  authoritative and :meth:`writeback` syncs a slot's dynamic columns on
  demand (analysis boundaries, bulk export).

:meth:`reset` restores both representations to the fresh state, so a
recycled slot is indistinguishable from a new one — the same guarantee
the object freelist gave.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.net.packet import Flow, Packet, PacketType

__all__ = ["PacketColumns"]

#: Column name -> array typecode.  Everything integral is int64 (or
#: int8 for the two tiny enums) so buffer-protocol consumers see
#: fixed-width fields; floats are float64.
COLUMN_TYPECODES = (
    ("ptype", "b"),
    ("fid", "q"),
    ("seq", "q"),
    ("src", "q"),
    ("dst", "q"),
    ("size", "q"),
    ("priority", "q"),
    ("remaining", "q"),
    ("data_prio", "q"),
    ("expiry", "d"),
    ("ecn", "b"),
    ("hops", "q"),
    ("born", "d"),
)

_DYNAMIC = ("remaining", "data_prio", "expiry", "ecn", "hops")


class PacketColumns:
    """A preallocated struct-of-arrays packet store.

    Capacity grows geometrically on demand; slots are recycled through
    an internal LIFO free stack (:meth:`acquire` / :meth:`release`).
    """

    __slots__ = tuple(name for name, _ in COLUMN_TYPECODES) + (
        "capacity",
        "in_use",
        "grows",
        "flows",
        "views",
        "_free_slots",
        "_top",
    )

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.in_use = 0
        self.grows = 0
        for name, typecode in COLUMN_TYPECODES:
            setattr(self, name, array(typecode, bytes(array(typecode).itemsize * capacity)))
        self.flows: List[Optional[Flow]] = [None] * capacity
        self.views: List[Optional[Packet]] = [None] * capacity
        self._free_slots: List[int] = []
        self._top = 0  # next never-used slot

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------
    def acquire(self) -> int:
        """Take a slot (recycled if available, else fresh; grows)."""
        free = self._free_slots
        if free:
            slot = free.pop()
        else:
            if self._top == self.capacity:
                self._grow()
            slot = self._top
            self._top += 1
        self.in_use += 1
        return slot

    def release(self, slot: int) -> None:
        """Return a slot to the free stack (caller resets it first)."""
        self.flows[slot] = None
        self._free_slots.append(slot)
        self.in_use -= 1

    def _grow(self) -> None:
        added = self.capacity  # double
        for name, typecode in COLUMN_TYPECODES:
            col: array = getattr(self, name)
            col.extend(array(typecode, bytes(col.itemsize * added)))
        self.flows.extend([None] * added)
        self.views.extend([None] * added)
        self.capacity += added
        self.grows += 1

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def view(self, slot: int) -> Packet:
        """The slot's cached ``Packet`` view (materialized on first use)."""
        pkt = self.views[slot]
        if pkt is None:
            pkt = Packet(
                PacketType(self.ptype[slot]),
                self.flows[slot],
                self.seq[slot],
                self.src[slot],
                self.dst[slot],
                self.size[slot],
                priority=self.priority[slot],
                born=self.born[slot],
            )
            pkt.slot = slot
            self.views[slot] = pkt
        return pkt

    def stamp(
        self,
        slot: int,
        ptype: PacketType,
        flow: Optional[Flow],
        seq: int,
        src: int,
        dst: int,
        size: int,
        priority: int,
        born: float,
    ) -> Packet:
        """Start a life: write the identity columns and mirror them onto
        the slot's view.  Returns the view, ready for flight."""
        self.ptype[slot] = ptype
        self.fid[slot] = flow.fid if flow is not None else -1
        self.seq[slot] = seq
        self.src[slot] = src
        self.dst[slot] = dst
        self.size[slot] = size
        self.priority[slot] = priority
        self.born[slot] = born
        self.flows[slot] = flow
        pkt = self.views[slot]
        if pkt is None:
            pkt = Packet(ptype, flow, seq, src, dst, size, priority=priority, born=born)
            pkt.slot = slot
            self.views[slot] = pkt
            return pkt
        pkt.ptype = ptype
        pkt.flow = flow
        pkt.seq = seq
        pkt.src = src
        pkt.dst = dst
        pkt.size = size
        pkt.priority = priority
        pkt.born = born
        return pkt

    def reset(self, slot: int) -> None:
        """End a life: restore view *and* columns to the fresh state."""
        self.fid[slot] = -1
        self.remaining[slot] = 0
        self.data_prio[slot] = 0
        self.expiry[slot] = 0.0
        self.ecn[slot] = 0
        self.hops[slot] = 0
        self.flows[slot] = None
        pkt = self.views[slot]
        if pkt is not None:
            pkt.flow = None
            pkt.payload = None
            pkt.remaining = 0
            pkt.data_prio = 0
            pkt.expiry = 0.0
            pkt.ecn = 0
            pkt.hops = 0

    def writeback(self, slot: int) -> None:
        """Sync the slot's dynamic columns from its (authoritative) view."""
        pkt = self.views[slot]
        if pkt is None:
            return
        self.remaining[slot] = pkt.remaining
        self.data_prio[slot] = pkt.data_prio
        self.expiry[slot] = pkt.expiry
        self.ecn[slot] = pkt.ecn
        self.hops[slot] = pkt.hops

    def row(self, slot: int) -> Dict[str, object]:
        """One slot's column values (dynamic columns as stored — call
        :meth:`writeback` first for in-flight packets)."""
        out: Dict[str, object] = {
            name: getattr(self, name)[slot] for name, _ in COLUMN_TYPECODES
        }
        out["flow"] = self.flows[slot]
        return out

    # ------------------------------------------------------------------
    # Bulk access
    # ------------------------------------------------------------------
    def buffer(self, name: str) -> memoryview:
        """A writable memoryview of one column (buffer-protocol seam)."""
        return memoryview(getattr(self, name))

    def as_arrays(self) -> Dict[str, object]:
        """Zero-copy numpy views of every column (requires numpy)."""
        import numpy as np

        dtypes = {"b": np.int8, "q": np.int64, "d": np.float64}
        return {
            name: np.frombuffer(getattr(self, name), dtype=dtypes[tc])
            for name, tc in COLUMN_TYPECODES
        }

    def stats(self) -> Dict[str, int]:
        return {
            "capacity": self.capacity,
            "in_use": self.in_use,
            "free": len(self._free_slots),
            "grows": self.grows,
        }

    def __len__(self) -> int:
        return self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PacketColumns(capacity={self.capacity}, in_use={self.in_use}, "
            f"grows={self.grows})"
        )
