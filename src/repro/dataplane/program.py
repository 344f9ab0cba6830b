"""The match-action dataplane program API.

The paper's central hardware claim (§2.1) is a *dichotomy*: pHost and
Fastpass run on commodity switches (a few strict-priority bands,
drop-tail), while pFabric needs custom silicon (priority drop and
priority dequeue on a per-packet ``remaining`` value).  Written as two
queue classes, every further switch behaviour (ECN marking, policing,
trimming, WFQ) would be a third class.

This module replaces the fork point with a small match-action pipeline
in the style of P4: a :class:`DataplaneProgram` is a *stateless policy
object* describing four explicit stages, and a :class:`ProgramQueue` is
the generic per-port engine that executes the policy against bounded
per-port state (:class:`PortState`).  Per packet:

1. **classify** — map the packet to a traffic class (a band index);
2. **meter / mark** — observe occupancy, optionally mark the packet
   (e.g. DCTCP's ECN bit).  Marking never removes a packet;
3. **admit / evict** — while the buffer exceeds its byte budget, the
   program names a victim (the incoming packet for drop-tail, a
   buffered one for pFabric-style eviction);
4. **schedule** — on dequeue, pick which buffered packet serializes
   next.

The engine owns all byte/packet accounting and the per-stage ledgers,
so a buggy program can mis-prioritize but cannot corrupt conservation:
``classified == admitted + dropped_incoming`` and ``admitted ==
scheduled + queued + evicted`` hold by construction and are audited by
:class:`repro.validate.ConservationAuditor`.

Every port of a fabric runs this one engine.  Its speed comes from
binding the stages once per queue: a stage the program inherits from
:class:`DataplaneProgram` is not called per packet (no meter is
skipped; drop-tail admission and strict-priority scheduling run
inline), and the reference programs' own stages are single C-level
scans over the engine's ``bands`` column.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.packet import Packet

__all__ = ["PortState", "DataplaneProgram", "ProgramQueue"]


class _ReadOnlyDropList(list):
    """The shared empty push() return, with the read-only contract
    *enforced*: a caller appending to (or otherwise mutating) the
    sentinel would silently corrupt every later "nothing dropped"
    return, so every mutator raises instead.  Still a ``list`` subclass
    — ``dropped == []``, truthiness, and iteration behave exactly like
    the plain literal."""

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


class PortState:
    """Bounded per-port pipeline state: one counter per stage outcome.

    Every field is a monotone counter (ints only — no packet
    references, no per-flow maps), so attaching the ledgers to all
    ports of the paper fabric costs a fixed few hundred bytes per
    port.  Invariants the engine maintains:

    * ``classified == admitted + dropped_incoming``
    * ``admitted == scheduled + queued + evicted``  (queued = live
      occupancy, read from the queue)
    * ``dropped_incoming + evicted ==`` the owning port's
      ``pkts_dropped``
    * ``marked <= classified`` (marking conserves packets)
    """

    __slots__ = (
        "classified",
        "marked",
        "admitted",
        "dropped_incoming",
        "evicted",
        "scheduled",
    )

    def __init__(self) -> None:
        self.classified = 0        # packets entering the pipeline
        self.marked = 0            # packets the meter stage marked
        self.admitted = 0          # packets that entered the buffer
        self.dropped_incoming = 0  # incoming packets refused (drop-tail)
        self.evicted = 0           # buffered packets displaced
        self.scheduled = 0         # packets handed to the serializer

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = ", ".join(f"{k}={v}" for k, v in self.to_dict().items())
        return f"PortState({body})"


class DataplaneProgram:
    """One switch/NIC behaviour as four match-action stages.

    Programs are stateless policies: the same instance serves every
    port of a run (per-port state lives in the :class:`ProgramQueue`
    that executes it), so a program object is safe to keep in a
    registry and share between fabrics.

    Subclasses override the stage methods; the defaults implement the
    simplest commodity behaviour (single band, no marking, drop-tail,
    FIFO).  ``q`` is the executing :class:`ProgramQueue` — programs
    read occupancy (``q.bytes_queued``, ``q.capacity_bytes``) and the
    parallel entry arrays (``q.pkts`` / ``q.bands``, in arrival order,
    read-only) but never mutate them; all removal goes through victim
    *indices* returned to the engine.  ``classify`` must be a pure
    function of the packet: an idle port that cuts a packet through
    does not call it.
    """

    #: Registry key; subclasses must override.
    name = "program"

    def make_queue(self, capacity_bytes: int) -> "ProgramQueue":
        """Build the per-port queue executing this program."""
        return ProgramQueue(self, capacity_bytes)

    # -- stage 1: classify ----------------------------------------------
    def classify(self, pkt: Packet, q: "ProgramQueue") -> int:
        """Traffic class (band index) for an arriving packet."""
        return 0

    # -- stage 2: meter / mark -------------------------------------------
    def meter(self, pkt: Packet, q: "ProgramQueue") -> bool:
        """Observe occupancy; optionally mark ``pkt`` (returns True).

        Marking mutates packet metadata (e.g. the ECN codepoint) but
        never drops: a marked packet continues down the pipeline, which
        is exactly why the auditor can require ``marked <= classified``
        independently of the drop ledgers.
        """
        return False

    # -- stage 3: admit / evict ------------------------------------------
    def evict(self, pkt: Packet, q: "ProgramQueue") -> int:
        """Index of the entry to drop while the buffer is over budget.

        Called by the engine *after* the incoming packet is
        provisionally appended, repeatedly until occupancy fits.
        Returning the incoming packet's own index (always the last
        entry on the first call) is drop-tail; returning a buffered
        entry's index is pFabric-style displacement.  The default is
        drop-tail, which the engine decides before the append, with the
        same outcome.
        """
        return len(q.pkts) - 1

    # -- stage 4: schedule -----------------------------------------------
    def schedule(self, q: "ProgramQueue") -> int:
        """Index of the entry to serialize next (never called with
        fewer than two entries).

        The default is strict-priority across bands, FIFO within a
        band (the commodity discipline).
        """
        bands = q.bands
        return bands.index(min(bands))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class ProgramQueue:
    """Generic engine executing one :class:`DataplaneProgram` per port.

    Implements the queue protocol :class:`repro.net.port.Port` depends
    on — ``push(pkt) -> dropped list``, ``pop() -> packet | None``,
    ``bytes_queued``, ``pkts_queued``, ``peek``, ``__len__``,
    ``__bool__`` — and declares ``cut_through``: an idle port may skip
    the empty buffer, counting the packet in ``state`` and running
    ``meter`` itself (see repro.net.port).

    Storage is two parallel lists in arrival order: packets and their
    classified bands.  Removals preserve the order, which the reference
    programs' tie-breaking and starvation-avoidance rules rely on.
    """

    __slots__ = (
        "program",
        "capacity_bytes",
        "state",
        "pkts",
        "bands",
        "bytes_queued",
        "pkts_queued",
        "meter",
        "_classify",
        "_evict",
        "_schedule",
    )

    #: An idle port may bypass the empty buffer (see repro.net.port).
    cut_through = True

    def __init__(self, program: DataplaneProgram, capacity_bytes: int) -> None:
        self.program = program
        self.capacity_bytes = capacity_bytes
        self.state = PortState()
        self.pkts: List[Packet] = []
        self.bands: List[int] = []
        self.bytes_queued = 0
        self.pkts_queued = 0
        # Stages bound once; None for a stage the program inherits, which
        # then costs no call per packet.
        cls = type(program)
        self._classify = program.classify
        #: The program's meter stage, or None: also run by an idle port
        #: on its cut path.
        self.meter = None if cls.meter is DataplaneProgram.meter else program.meter
        self._evict = None if cls.evict is DataplaneProgram.evict else program.evict
        self._schedule = (
            None if cls.schedule is DataplaneProgram.schedule else program.schedule
        )

    # ------------------------------------------------------------------
    def push(self, pkt: Packet) -> List[Packet]:
        """Run classify -> meter -> admit/evict; returns dropped packets.

        The returned list is owned by the queue when empty — read-only.
        """
        state = self.state
        state.classified += 1
        band = self._classify(pkt, self)
        meter = self.meter
        if meter is not None and meter(pkt, self):
            state.marked += 1
        size = pkt.size
        if self._evict is None and self.bytes_queued + size > self.capacity_bytes:
            # Drop-tail: the incoming packet is the only victim.
            state.dropped_incoming += 1
            return [pkt]
        # Provisional append: evict sees the full candidate set (buffer
        # + incoming), the incoming packet last.
        self.pkts.append(pkt)
        self.bands.append(band)
        self.bytes_queued += size
        self.pkts_queued += 1
        if self.bytes_queued <= self.capacity_bytes:
            state.admitted += 1
            return _NO_DROP
        evict = self._evict
        pkts = self.pkts
        dropped: List[Packet] = []
        incoming_dropped = False
        while self.bytes_queued > self.capacity_bytes and pkts:
            index = evict(pkt, self)
            victim = pkts.pop(index)
            del self.bands[index]
            self.bytes_queued -= victim.size
            self.pkts_queued -= 1
            if victim is pkt:
                incoming_dropped = True
            else:
                state.evicted += 1
            dropped.append(victim)
        if incoming_dropped:
            state.dropped_incoming += 1
        else:
            state.admitted += 1
        return dropped

    def pop(self) -> Optional[Packet]:
        pkts = self.pkts
        if not pkts:
            return None
        if len(pkts) == 1:
            index = 0
        elif self._schedule is None:
            bands = self.bands
            index = bands.index(min(bands))
        else:
            index = self._schedule(self)
        pkt = pkts.pop(index)
        del self.bands[index]
        self.bytes_queued -= pkt.size
        self.pkts_queued -= 1
        self.state.scheduled += 1
        return pkt

    def peek(self) -> Optional[Packet]:
        """The packet :meth:`pop` would return, without removing it."""
        pkts = self.pkts
        if len(pkts) < 2:
            return pkts[0] if pkts else None
        if self._schedule is None:
            bands = self.bands
            return pkts[bands.index(min(bands))]
        return pkts[self._schedule(self)]

    def __len__(self) -> int:
        return self.pkts_queued

    def __bool__(self) -> bool:
        return self.pkts_queued > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ProgramQueue({self.program.name}, "
            f"{self.bytes_queued}/{self.capacity_bytes}B, {len(self)} pkts)"
        )
