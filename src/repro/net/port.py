"""Output ports: queue + serializer + link.

A :class:`Port` owns one egress queue and models serialization at the
link rate followed by propagation to the connected receiver.  Two entry
paths exist:

* ``send(pkt)`` — push-based: the packet goes through the queue (and may
  be dropped there).  Switches and push-based transports (pFabric) use
  this.
* a *pull source* — when the port goes idle and its queue is empty it
  asks ``pull_source()`` for the next packet.  The pHost NIC uses this
  (``nic_pull`` exists only on ``PHostAgent``) so the host picks what
  to send per packet at line rate instead of building a standing NIC
  queue (the receiver-driven model of the paper).

Control packets pushed into the queue always win over pulled data
because the queue is drained first.

Hot-path notes (see docs/PERFORMANCE.md):

* *Tie rule.*  Serialization start reserves two consecutive sequence
  numbers: s for the end of serialization and s + 1 for the arrival.
  An arrival therefore sorts among events of its own timestamp by when
  its serialization started, and nothing draws a seq when it ends.
* *One event per hop.*  ``_start`` pushes the arrival at once, at end
  of serialization plus propagation, under s + 1, and records
  ``busy_until`` (the end of serialization), s and the packet's size.
  An end-of-serialization event exists only when something must be
  decided then: a packet waits in the queue, the pull source may have
  work (see below), or the port is unconnected.  It is the wake-up
  ``[busy_until, s, _start_next, ()]``, pushed by ``_start``, by the
  first ``send`` that queues behind the packet on the wire, or by a
  ``kick()`` while busy, so a port that nothing waits behind costs one
  event per hop.
* *Pull on demand.*  ``pull_ready`` says the pull source may have work
  the port has not pulled.  It starts True, is set True before each
  pull and by every ``kick()``, and is cleared when a pull returns
  nothing; a source may also clear it while returning its last packet
  for now.  A source that gains work must ``kick()``.  Until then the
  port does not ask it: a pull at the end of serialization would find
  nothing, which is what the two-event hop, asking at every end of
  serialization, confirms.
* *Reads through the end of serialization.*  The port is busy while
  ``(now, seq of the event being dispatched)`` has not passed
  ``(busy_until, s)``, which is exactly when the plain two-event hop
  (``tests/net/models.py``) still has its serialization-done event
  pending; a ``send`` at exactly ``busy_until`` queues or cuts through
  as that hop would.  ``bytes_sent``, ``pkts_sent``, ``busy`` and
  ``bytes_serialized()`` read the same way, so every reader sees what
  the two-event hop shows at the same instant.  The determinism suite
  runs the plain hop against this one.
* *Cut-through at idle ports.*  A packet sent to an idle port with an
  empty queue, that fits the buffer, would be pushed and popped straight
  back out.  When the queue class declares ``cut_through = True`` (the
  :class:`~repro.dataplane.ProgramQueue` engine every fabric port runs
  does; hand-written queues that do not declare it are always pushed)
  the port skips the queue and starts serialization directly, with the
  same counters, high-water marks and sequence-number draws as the
  push-then-pop path.  A queue with a ``state`` stage ledger (the
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
        "on_drop",
        "pull_source",
        "pull_ready",
        "busy_until",
        "pkts_enqueued",
        "pkts_pulled",
        "pkts_dropped",
        "max_qlen_bytes",
        "max_qlen_pkts",
        "cut_through",
        "_ledger",
        "_meter",
        "_tx_seq",
        "_tx_size",
        "_wake",
        "_bytes_sent",
        "_pkts_sent",
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
        self.on_drop = on_drop
        self.pull_source: Optional[PullSource] = None
        # Whether the pull source may have work not yet pulled (see the
        # module docstring); a source that never clears it is asked at
        # every end of serialization.
        self.pull_ready = True
        # The packet last started: its end of serialization, the seq s
        # reserved for that instant, and its size.
        self.busy_until = float("-inf")
        self._tx_seq = 0
        self._tx_size = 0
        # The end-of-serialization (wake-up) event, reused: pending
        # while its callback slot is set (the loop nulls it on dispatch).
        self._wake = [0.0, 0, None, (), env]
        # Counted when serialization starts; the bytes_sent/pkts_sent
        # properties leave out a packet still being serialized.
        self._bytes_sent = 0
        self._pkts_sent = 0
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

    def connect(self, peer) -> None:
        """Attach the receiving end of this port's link."""
        self.peer = peer

    # ------------------------------------------------------------------
    # Serialization state, read as the two-event hop shows it
    # ------------------------------------------------------------------
    def _serializing(self) -> bool:
        """Whether the packet last started is not yet fully serialized:
        the two-event hop's serialization-done event has not run."""
        until = self.busy_until
        env = self.env
        return until > env.now or (until == env.now and env._seq_now < self._tx_seq)

    @property
    def busy(self) -> bool:
        """Whether a packet is on the wire, up to and including the
        event at which its serialization ends."""
        until = self.busy_until
        env = self.env
        return until > env.now or (until == env.now and env._seq_now <= self._tx_seq)

    @property
    def bytes_sent(self) -> int:
        """Bytes whose last bit is on the wire."""
        return self._bytes_sent - (self._tx_size if self._serializing() else 0)

    @bytes_sent.setter
    def bytes_sent(self, value: int) -> None:
        self._bytes_sent = value + (self._tx_size if self._serializing() else 0)

    @property
    def pkts_sent(self) -> int:
        """Packets whose last bit is on the wire."""
        return self._pkts_sent - self._serializing()

    @pkts_sent.setter
    def pkts_sent(self, value: int) -> None:
        self._pkts_sent = value + self._serializing()

    # ------------------------------------------------------------------
    # Push path
    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> None:
        """Enqueue a packet for transmission (may drop at the queue)."""
        self.pkts_enqueued += 1
        queue = self.queue
        env = self.env
        until = self.busy_until
        # ``busy`` inlined; an idle port answers with one compare.
        busy = until >= env.now and (until > env.now or env._seq_now <= self._tx_seq)
        if (
            not busy
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
        if not busy:
            # Idle port: if the queue is somehow non-empty (race with
            # pull), keep FIFO semantics by going through it.
            self._start_next()
        elif qpkts and self._wake[2] is None:
            # The first packet to wait behind the one on the wire: wake
            # up where its serialization ends.
            wake = self._wake
            wake[0] = until
            wake[1] = self._tx_seq
            wake[2] = self._start_next
            heappush(env._heap, wake)
            env._live += 1

    # ------------------------------------------------------------------
    # Pull path
    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Notify the port that its pull source may have new work.

        An idle port pulls at once.  A busy one pulls when serialization
        ends: if no wake-up is pending, the kick pushes it at
        ``(busy_until, s)``, the seq ``_start`` reserved, so arming it
        late reorders nothing.
        """
        self.pull_ready = True
        until = self.busy_until
        env = self.env
        if until > env.now or (until == env.now and env._seq_now < self._tx_seq):
            wake = self._wake
            if wake[2] is None:
                wake[0] = until
                wake[1] = self._tx_seq
                wake[2] = self._start_next
                heappush(env._heap, wake)
                env._live += 1
        elif until < env.now or env._seq_now > self._tx_seq:
            self._start_next()

    # ------------------------------------------------------------------
    # Transmit machinery
    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        """Start the next packet: queue first, then the pull source.
        Also the end-of-serialization (wake-up) event."""
        queue = self.queue
        pkt = queue.pop() if queue.pkts_queued else None
        if pkt is None:
            if self.pull_source is None:
                return
            self.pull_ready = True
            pkt = self.pull_source()
            if pkt is None:
                self.pull_ready = False
                return
            self.pkts_pulled += 1
        self._start(pkt)

    def _start(self, pkt: Packet) -> None:
        """Begin serializing ``pkt`` on an idle port."""
        env = self.env
        seq = env._seq + 1
        env._seq = seq + 1  # seq + 1 is the arrival's
        size = pkt.size
        end = env.now + size * 8.0 / self.rate_bps
        self.busy_until = end
        self._tx_seq = seq
        self._tx_size = size
        self._bytes_sent += size
        self._pkts_sent += 1
        heap = env._heap
        peer = self.peer
        if peer is not None:
            # Inlined schedule(): the arrival is the single hottest
            # allocation in the simulator.
            heappush(heap, [end + self.prop_delay, seq + 1, peer.receive, (pkt,), env])
            env._live += 1
            if (self.pull_source is None or not self.pull_ready) and not self.queue.pkts_queued:
                return
        # The port is idle, so its last wake-up has fired: re-stamp it.
        wake = self._wake
        wake[0] = end
        wake[1] = seq
        wake[2] = self._start_next
        heappush(heap, wake)
        env._live += 1

    def queued_packets(self) -> int:
        return len(self.queue)

    def bytes_serialized(self) -> float:
        """Bytes put on the wire so far, counting the serialized part
        of the packet in transmission."""
        sent = self._bytes_sent
        if self._serializing():
            size = self._tx_size
            sent -= size
            tx = size * 8.0 / self.rate_bps
            done = (self.env.now - (self.busy_until - tx)) / tx
            if done > 0.0:
                sent += size * min(done, 1.0)
        return sent

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "busy" if self.busy else "idle"
        return f"Port({self.name}, {state}, queued={len(self.queue)})"
