"""The match-action dataplane program API.

The paper's central hardware claim (§2.1) is a *dichotomy*: pHost and
Fastpass run on commodity switches (a few strict-priority bands,
drop-tail), while pFabric needs custom silicon (priority drop and
priority dequeue on a per-packet ``remaining`` value).  The seed
repository hardcoded that dichotomy as exactly two queue classes; every
further switch behaviour (ECN marking, policing, trimming, WFQ) would
have been a third fork of ``repro.net.queues``.

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

Hot-path note: the two reference programs (commodity, pFabric) also
*compile* to the hand-optimized ``repro.net.queues`` classes — see
:meth:`DataplaneProgram.make_queue` and ``SimTuning.fused_dataplane``.
The generic engine is the semantic reference: the determinism suite
proves both forms produce byte-identical run digests.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.packet import Packet
from repro.net.queues import _NO_DROP

__all__ = ["PortState", "DataplaneProgram", "ProgramQueue"]


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
    parallel entry arrays (``q.pkts`` / ``q.bands`` / ``q.stamps``,
    read-only) but never mutate them; all removal goes through victim
    *indices* returned to the engine.
    """

    #: Registry key; subclasses must override.
    name = "program"

    # -- compilation -----------------------------------------------------
    def make_queue(self, capacity_bytes: int, *, fused: bool = True):
        """Build the per-port queue executing this program.

        ``fused=True`` lets a program return a hand-optimized
        specialized queue (the PR-4 hot path) when one exists; the
        base class and any plug-in without a specialization always
        return the generic engine.  Both forms must be behaviourally
        identical — the determinism suite runs the reference programs
        with ``SimTuning(fused_dataplane=False)`` to prove it.
        """
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
        drop-tail.
        """
        return len(q.pkts) - 1

    # -- stage 4: schedule -----------------------------------------------
    def schedule(self, q: "ProgramQueue") -> int:
        """Index of the entry to serialize next (never called empty).

        The default is strict-priority across bands, FIFO within a
        band (the commodity discipline).
        """
        bands = q.bands
        return bands.index(min(bands))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class ProgramQueue:
    """Generic engine executing one :class:`DataplaneProgram` per port.

    Implements the exact queue protocol :class:`repro.net.port.Port`
    depends on — ``push(pkt) -> dropped list``, ``pop() -> packet |
    None``, ``bytes_queued``, ``pkts_queued``, ``peek``, ``__len__``,
    ``__bool__`` — so ports cannot tell a program apart from the
    hand-written queue classes.  It adds ``through(pkt)``, which an idle
    port calls in place of push-then-pop when it cuts a packet through.

    Storage is three parallel arrays in arrival order: packets, their
    classified bands, and monotone arrival stamps.  List order *is*
    stamp order (removals preserve it), which the pFabric reference
    program's tie-breaking and starvation-avoidance rules rely on.
    """

    __slots__ = (
        "program",
        "capacity_bytes",
        "state",
        "pkts",
        "bands",
        "stamps",
        "bytes_queued",
        "pkts_queued",
        "_arrival_seq",
    )

    #: An idle port may bypass the buffer, calling :meth:`through`
    #: instead, so classify, meter and the stage ledgers still see
    #: every packet (see repro.net.port).
    cut_through = True

    def __init__(self, program: DataplaneProgram, capacity_bytes: int) -> None:
        self.program = program
        self.capacity_bytes = capacity_bytes
        self.state = PortState()
        self.pkts: List[Packet] = []
        self.bands: List[int] = []
        self.stamps: List[int] = []
        self.bytes_queued = 0
        self.pkts_queued = 0
        self._arrival_seq = 0

    # ------------------------------------------------------------------
    def push(self, pkt: Packet) -> List[Packet]:
        """Run classify -> meter -> admit/evict; returns dropped packets.

        The returned list is owned by the queue when empty — read-only
        (same contract as ``repro.net.queues``).
        """
        state = self.state
        program = self.program
        state.classified += 1
        band = program.classify(pkt, self)
        if program.meter(pkt, self):
            state.marked += 1
        # Provisional append: admit/evict sees the full candidate set
        # (buffer + incoming) with the incoming holding the newest stamp.
        self._arrival_seq += 1
        self.pkts.append(pkt)
        self.bands.append(band)
        self.stamps.append(self._arrival_seq)
        self.bytes_queued += pkt.size
        self.pkts_queued += 1
        if self.bytes_queued <= self.capacity_bytes:
            state.admitted += 1
            return _NO_DROP
        dropped: List[Packet] = []
        incoming_dropped = False
        while self.bytes_queued > self.capacity_bytes and self.pkts:
            victim = self._remove_at(program.evict(pkt, self))
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

    def through(self, pkt: Packet) -> None:
        """Account a packet an idle port cuts through this empty queue.

        Push-then-pop of a fitting packet into an empty buffer admits it
        on capacity alone (no evict), and ``schedule`` over one entry
        can only answer index 0.  So the port may skip the buffer; this
        still runs classify and meter against the empty queue, draws the
        arrival stamp, and counts the packet classified, admitted and
        scheduled, leaving every ledger as push-then-pop would.
        """
        state = self.state
        program = self.program
        state.classified += 1
        program.classify(pkt, self)
        if program.meter(pkt, self):
            state.marked += 1
        self._arrival_seq += 1
        state.admitted += 1
        state.scheduled += 1

    def pop(self) -> Optional[Packet]:
        if not self.pkts:
            return None
        pkt = self._remove_at(self.program.schedule(self))
        self.state.scheduled += 1
        return pkt

    def peek(self) -> Optional[Packet]:
        """The packet :meth:`pop` would return, without removing it."""
        if not self.pkts:
            return None
        return self.pkts[self.program.schedule(self)]

    # ------------------------------------------------------------------
    def _remove_at(self, index: int) -> Packet:
        pkt = self.pkts.pop(index)
        self.bands.pop(index)
        self.stamps.pop(index)
        self.bytes_queued -= pkt.size
        self.pkts_queued -= 1
        return pkt

    def __len__(self) -> int:
        return self.pkts_queued

    def __bool__(self) -> bool:
        return self.pkts_queued > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ProgramQueue({self.program.name}, "
            f"{self.bytes_queued}/{self.capacity_bytes}B, {len(self)} pkts)"
        )
