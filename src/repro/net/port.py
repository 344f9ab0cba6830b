"""Output ports: queue + serializer + link.

A :class:`Port` owns one egress queue and models serialization at the
link rate followed by propagation to the connected receiver.  Two entry
paths exist:

* ``send(pkt)`` — push-based: the packet goes through the queue (and may
  be dropped there).  Switches and push-based transports (pFabric) use
  this.
* a *pull source* — when the port goes idle and its queue is empty it
  asks ``pull_source()`` for the next packet.  pHost and Fastpass
  sources use this so the host picks what to send per packet at line
  rate instead of building a standing NIC queue (the receiver-driven
  model of the paper).

Control packets pushed into the queue always win over pulled data
because the queue is drained first.

Hot-path notes (see docs/PERFORMANCE.md):

* *Fused transmission.*  Each packet-hop costs two simulated events —
  serialization done at the transmitter, arrival at the receiver — but
  only *one* freshly allocated heap entry.  When the serialization event
  fires, its just-popped entry is re-stamped in place as the
  propagation/arrival event.  Sequence numbers are drawn in the order
  of the plain two-``schedule()`` hop, so the ``(time, seq)`` event
  order — and every run digest — is that hop's.  The plain hop is kept
  as a test model (``tests/net/models.py``) that the determinism suite
  runs against this one.
* *Cut-through at idle ports.*  A packet sent to an idle port with an
  empty queue, that fits the buffer, would be pushed and popped straight
  back out.  When the queue class declares ``cut_through = True`` (the
  :class:`~repro.dataplane.ProgramQueue` engine every fabric port runs
  does; hand-written queues that do not declare it are always pushed)
  the port skips the queue and starts serialization directly, with the
  same counters, high-water marks and single sequence-number draw as
  the push-then-pop path.  A queue with a ``state`` stage ledger (the
  engine's :class:`~repro.dataplane.PortState`) still sees the packet:
  the port counts it classified, admitted and scheduled, and runs the
  queue's ``meter`` stage if it has one, all inline, so the cut path
  costs a program without a meter no call beyond ``_start``.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Optional

from repro.net.packet import Packet
from repro.sim.engine import EventLoop

__all__ = ["Port"]

DropCallback = Callable[[Packet, int], None]
PullSource = Callable[[], Optional[Packet]]


class Port:
    """One egress port of a host NIC or switch."""

    __slots__ = (
        "env",
        "rate_bps",
        "prop_delay",
        "queue",
        "name",
        "hop_index",
        "peer",
        "busy",
        "on_drop",
        "pull_source",
        "bytes_sent",
        "pkts_sent",
        "pkts_enqueued",
        "pkts_pulled",
        "pkts_dropped",
        "max_qlen_bytes",
        "max_qlen_pkts",
        "cut_through",
        "_ledger",
        "_meter",
        "_tx_entry",
    )

    def __init__(
        self,
        env: EventLoop,
        rate_bps: float,
        prop_delay: float,
        queue,
        name: str = "",
        hop_index: int = 0,
        on_drop: Optional[DropCallback] = None,
    ) -> None:
        self.env = env
        self.rate_bps = rate_bps
        self.prop_delay = prop_delay
        self.queue = queue
        self.name = name
        self.hop_index = hop_index
        self.peer = None  # object exposing .receive(pkt)
        self.busy = False
        self.on_drop = on_drop
        self.pull_source: Optional[PullSource] = None
        self.bytes_sent = 0
        self.pkts_sent = 0
        # Conservation ledger: enqueued + pulled ==
        # sent + dropped + queued + (1 if busy).
        self.pkts_enqueued = 0
        self.pkts_pulled = 0
        self.pkts_dropped = 0
        # Queue high-water marks (post-drop occupancy, so they reflect
        # what the buffer actually held).
        self.max_qlen_bytes = 0
        self.max_qlen_pkts = 0
        # Whether an idle, empty queue may be bypassed; only queue
        # classes that declare it (see the module docstring).
        self.cut_through = getattr(queue, "cut_through", False) is True
        # What the cut path counts and runs in the queue's place.
        self._ledger = getattr(queue, "state", None)
        self._meter = getattr(queue, "meter", None)
        self._tx_entry: Optional[list] = None  # pending serialization event

    def connect(self, peer) -> None:
        """Attach the receiving end of this port's link."""
        self.peer = peer

    # ------------------------------------------------------------------
    # Push path
    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> None:
        """Enqueue a packet for transmission (may drop at the queue)."""
        self.pkts_enqueued += 1
        queue = self.queue
        if (
            not self.busy
            and self.cut_through
            and not queue.pkts_queued
            and pkt.size <= queue.capacity_bytes
        ):
            # Cut-through: push-then-pop would hold exactly this packet
            # for an instant, so the high-water marks see it the same.
            if pkt.size > self.max_qlen_bytes:
                self.max_qlen_bytes = pkt.size
            if not self.max_qlen_pkts:
                self.max_qlen_pkts = 1
            ledger = self._ledger
            if ledger is not None:
                # The stage ledger counts the packet as push-then-pop
                # would; classify is a pure policy, so it is not run.
                ledger.classified += 1
                if self._meter is not None and self._meter(pkt, queue):
                    ledger.marked += 1
                ledger.admitted += 1
                ledger.scheduled += 1
            self._start(pkt)
            return
        dropped = queue.push(pkt)
        qbytes = queue.bytes_queued
        if qbytes > self.max_qlen_bytes:
            self.max_qlen_bytes = qbytes
        qpkts = queue.pkts_queued
        if qpkts > self.max_qlen_pkts:
            self.max_qlen_pkts = qpkts
        if dropped:
            self.pkts_dropped += len(dropped)
            if self.on_drop is not None:
                for victim in dropped:
                    self.on_drop(victim, self.hop_index)
        if not self.busy:
            # Idle port: if the queue is somehow non-empty (race with
            # pull), keep FIFO semantics by going through it.
            self._start_next()

    # ------------------------------------------------------------------
    # Pull path
    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Notify the port that new work may be available.

        Harmless if the port is busy; it re-checks on completion anyway.
        """
        if not self.busy:
            self._start_next()

    # ------------------------------------------------------------------
    # Transmit machinery
    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        queue = self.queue
        pkt = queue.pop() if queue.pkts_queued else None
        if pkt is None and self.pull_source is not None:
            pkt = self.pull_source()
            if pkt is not None:
                self.pkts_pulled += 1
        if pkt is None:
            return
        self._start(pkt)

    def _start(self, pkt: Packet) -> None:
        """Begin serializing ``pkt`` on an idle port."""
        self.busy = True
        # Inlined schedule(): the serialization-done event is the single
        # hottest allocation in the simulator.
        env = self.env
        env._seq += 1
        entry = [
            env.now + pkt.size * 8.0 / self.rate_bps,
            env._seq,
            self._tx_done,
            (pkt,),
            env,
        ]
        self._tx_entry = entry
        heappush(env._heap, entry)
        env._live += 1

    def _tx_done(self, pkt: Packet) -> None:
        self.bytes_sent += pkt.size
        self.pkts_sent += 1
        peer = self.peer
        env = self.env
        heap = env._heap
        # `entry` is the serialization event that just fired (already
        # popped and marked fired by the loop).  Re-stamping it as the
        # arrival event saves one list allocation per packet per hop.
        entry = self._tx_entry
        self._tx_entry = None
        if peer is not None:
            # The arrival's seq is drawn here — before the pop/pull, like
            # the plain hop's schedule() call.
            env._seq += 1
            entry[0] = env.now + self.prop_delay
            entry[1] = env._seq
            entry[2] = peer.receive
            entry[3] = (pkt,)
            heappush(heap, entry)
            env._live += 1
        # Next departure.  The queue-then-pull order mirrors the plain
        # hop; the port stays busy while the pull source decides.
        queue = self.queue
        nxt = queue.pop() if queue.pkts_queued else None
        if nxt is None and self.pull_source is not None:
            nxt = self.pull_source()
            if nxt is not None:
                self.pkts_pulled += 1
        if nxt is None:
            self.busy = False
            return
        # Serialization-done seq for the next departure, drawn after the
        # pop exactly like _start_next().
        env._seq += 1
        entry = [
            env.now + nxt.size * 8.0 / self.rate_bps,
            env._seq,
            self._tx_done,
            (nxt,),
            env,
        ]
        self._tx_entry = entry
        heappush(heap, entry)
        env._live += 1

    def queued_packets(self) -> int:
        return len(self.queue)

    def bytes_serialized(self) -> float:
        """Bytes put on the wire so far, counting the serialized part
        of the packet in transmission (``bytes_sent`` moves only when
        a packet's last bit is out)."""
        sent = self.bytes_sent
        entry = self._tx_entry  # [end time, seq, callback, (pkt,), env]
        if entry is not None:
            size = entry[3][0].size
            tx = size * 8.0 / self.rate_bps
            done = (self.env.now - (entry[0] - tx)) / tx
            if done > 0.0:
                sent += size * min(done, 1.0)
        return sent

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "busy" if self.busy else "idle"
        return f"Port({self.name}, {state}, queued={len(self.queue)})"
