"""One reliable-delivery core for the window transports.

pFabric, DCTCP and Fastpass deliver data the same way (the pHost paper
configures all its baselines so, §4.1): the receiver ACKs every DATA
packet with a 40-byte ACK that echoes its ECN codepoint, and the source
keeps a dense map of the seqs ACKed so far and resends what a timer
finds outstanding.  :class:`ReliableAgent` holds that delivery once;
:class:`WindowAgent` adds a sender that keeps up to ``window`` packets
of each flow in flight.

A protocol adds only its own rule: pFabric stamps data with the flow's
remaining count and probes after repeated timeouts, DCTCP runs its alpha
estimator and collapses ``cwnd`` on a timeout, and Fastpass sends in the
slots its arbiter assigns, on :class:`ReliableAgent` without a window.
The receiver and the ACK path run per packet, so the window is an int
field of the flow state and the stamp a class-level flag, not methods.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Deque, Dict, Optional, Set

from repro.net.packet import Flow, Packet, PacketType
from repro.protocols.base import TransportAgent
from repro.sim.engine import EventLoop

__all__ = ["DATA_BAND", "SrcFlow", "WindowFlow", "ReliableAgent", "WindowAgent"]

#: Band of every data packet; ACKs ride band 0, so they are never
#: queued behind data.
DATA_BAND = 1


class SrcFlow:
    """Source-side delivery state for one flow.

    ``acked`` is a dense seq map (a byte per packet) counted by
    ``n_acked``.  The seqs sent so far are ``range(next_seq)``: a
    retransmission only re-queues a seq already sent.  Only the
    window-bounded sets (``unacked_sent``, ``rtx_set``) hold seqs as
    Python ints.  ``timer`` is the flow's one timer (the RTO, or
    Fastpass's recheck).  The state lives in the agent's ``src_flows``
    until its last ACK, so a state found there is never finished.
    """

    __slots__ = (
        "flow",
        "next_seq",
        "acked",
        "n_acked",
        "unacked_sent",
        "rtx",
        "rtx_set",
        "timer",
    )

    def __init__(self, flow: Flow) -> None:
        self.flow = flow
        self.next_seq = 0
        self.acked = bytearray(flow.n_pkts)
        self.n_acked = 0
        self.unacked_sent: Set[int] = set()
        self.rtx: Deque[int] = deque()
        self.rtx_set: Set[int] = set()
        self.timer: Optional[list] = None

    def remaining(self) -> int:
        """Un-ACKed packets — the pFabric priority value."""
        return self.flow.n_pkts - self.n_acked

    def next_to_send(self) -> Optional[int]:
        while self.rtx:
            seq = self.rtx.popleft()
            self.rtx_set.discard(seq)
            if not self.acked[seq]:
                return seq
        if self.next_seq < self.flow.n_pkts:
            seq = self.next_seq
            self.next_seq += 1
            return seq
        return None

    def requeue_outstanding(self) -> int:
        """Presume every sent, un-ACKed seq lost: queue it for resending,
        earliest first.  Returns how many seqs were queued."""
        lost = sorted(self.unacked_sent - self.rtx_set)
        self.rtx.extend(lost)
        self.rtx_set.update(lost)
        return len(lost)


class WindowFlow(SrcFlow):
    """:class:`SrcFlow` plus the window sender's state: packets in
    flight, the window they may fill, the RTO's backoff scale, and the
    deadline (with its seq) that a re-arm has deferred the live RTO to,
    or None."""

    __slots__ = ("in_flight", "window", "rto_scale", "rto_at", "rto_seq")

    def __init__(self, flow: Flow, window: int) -> None:
        super().__init__(flow)
        self.in_flight = 0
        self.window = window
        self.rto_scale = 1.0
        self.rto_at: Optional[float] = None
        self.rto_seq = 0


class _DstFlow:
    """Receiver-side reassembly state for one flow: a dense seq map and
    its count."""

    __slots__ = ("flow", "received", "n_received")

    def __init__(self, flow: Flow) -> None:
        self.flow = flow
        self.received = bytearray(flow.n_pkts)
        self.n_received = 0


class ReliableAgent(TransportAgent):
    """Per-packet-ACK delivery for one host (source + receiver roles).

    Subclasses set ``label`` (errors name it; its lower-case form
    prefixes the gauges) and implement :meth:`start_flow` and
    ``on_new_ack(state, pkt)``, the reaction to a new ACK of a flow
    that still has packets un-ACKed.  With ``STAMP_REMAINING`` set,
    every data packet carries the flow's un-ACKed count.
    """

    label = "reliable"
    STAMP_REMAINING = False

    def __init__(self, host, ctx) -> None:
        super().__init__(host, ctx)
        self.src_flows: Dict[int, SrcFlow] = {}
        self.dst_flows: Dict[int, _DstFlow] = {}
        self.ce_echoes = 0     # marked ACKs seen (sender side)
        self.ce_delivered = 0  # marked data packets seen (receiver side)

    def register_instruments(self, registry) -> None:
        """Open source flows as a pull-based gauge."""
        host = f"h{self.host.node_id}"
        registry.gauge(
            f"{self.label.lower()}.flows.src_active", lambda: len(self.src_flows), host=host
        )

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def _open(self, state: SrcFlow) -> None:
        """Register a new flow's source state."""
        flow = state.flow
        if flow.fid in self.src_flows:
            raise ValueError(f"duplicate flow id {flow.fid}")
        self.collector.flow_arrived(flow, self.env.now)
        self.src_flows[flow.fid] = state

    def _send_data(self, state: SrcFlow, seq: int, first_time: bool) -> None:
        """Send one data packet; ``first_time`` is False for a resend."""
        flow = state.flow
        now = self.env.now
        pkt = self.pool.data(
            flow, seq, flow.src, flow.dst, flow.wire_bytes_of(seq), DATA_BAND, now
        )
        if self.STAMP_REMAINING:
            pkt.remaining = flow.n_pkts - state.n_acked
        state.unacked_sent.add(seq)
        if flow.start_time is None:
            flow.start_time = now
        self.collector.data_sent(pkt, first_time)
        self.host.send(pkt)

    def _on_ack(self, pkt: Packet) -> None:
        """Record a data ACK.  A new ACK that leaves packets un-ACKed
        goes on to :meth:`on_new_ack`; the one that completes the flow
        drops its state."""
        fid = pkt.flow.fid
        state = self.src_flows.get(fid)
        if state is None:
            return
        seq = pkt.seq
        if seq < 0 or state.acked[seq]:
            return  # a probe's ACK carries no data; a duplicate is stale
        if pkt.ecn:
            self.ce_echoes += 1
        state.acked[seq] = 1
        state.n_acked += 1
        state.unacked_sent.discard(seq)
        if state.n_acked >= state.flow.n_pkts:
            EventLoop.cancel(state.timer)
            del self.src_flows[fid]
            return
        self.on_new_ack(state, pkt)

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def _on_data(self, pkt: Packet) -> None:
        """Record a DATA packet and ACK it.

        A negative seq (pFabric's probe) carries no data, so it is only
        ACKed.  Data of a flow that already finished is a duplicate, and
        is still ACKed so the source closes.
        """
        flow = pkt.flow
        seq = pkt.seq
        if pkt.ecn:
            self.ce_delivered += 1
        if seq < 0:
            pass
        elif flow.finish is not None:
            self.collector.data_duplicate(pkt)
        else:
            fid = flow.fid
            state = self.dst_flows.get(fid)
            if state is None:
                state = self.dst_flows[fid] = _DstFlow(flow)
            if not state.received[seq]:
                state.received[seq] = 1
                state.n_received += 1
                self.collector.data_delivered(pkt)
                if state.n_received >= flow.n_pkts:
                    self.collector.flow_completed(flow, self.env.now)
                    del self.dst_flows[fid]
            else:
                self.collector.data_duplicate(pkt)
        ack = self.pool.control(PacketType.ACK, flow, seq, self.host.node_id, flow.src, self.env.now)
        ack.ecn = pkt.ecn
        self.collector.control_sent(ack)
        self.host.send(ack)

    # ------------------------------------------------------------------
    def on_packet(self, pkt: Packet) -> None:
        if pkt.ptype == PacketType.DATA:
            self._on_data(pkt)
        elif pkt.ptype == PacketType.ACK:
            self._on_ack(pkt)
        else:
            raise ValueError(f"{self.label} host received unexpected packet type: {pkt!r}")


class WindowAgent(ReliableAgent):
    """A source that pushes up to ``state.window`` packets of each flow
    into the NIC queue and, on a timeout, resends everything outstanding.

    A subclass sets ``FlowState`` (built as ``FlowState(flow, config)``,
    a :class:`WindowFlow`) and ``rto_backoff``, and implements
    ``on_timeout(state)``: its reaction to an RTO before everything
    outstanding is resent, returning True when it handled the timeout
    itself.
    """

    def __init__(self, host, ctx) -> None:
        super().__init__(host, ctx)
        self.timeouts = 0

    def register_instruments(self, registry) -> None:
        """Window/timeout state as pull-based gauges."""
        super().register_instruments(registry)
        host = f"h{self.host.node_id}"
        prefix = self.label.lower()
        registry.gauge(
            f"{prefix}.pkts.in_flight",
            lambda: sum(s.in_flight for s in self.src_flows.values()),
            src=host,
        )
        registry.gauge(f"{prefix}.timeouts", lambda: self.timeouts, host=host)

    def start_flow(self, flow: Flow) -> None:
        state = self.FlowState(flow, self.config)
        self._open(state)
        self._pump(state)

    def _pump(self, state: WindowFlow) -> None:
        """Fill the window: push packets into the NIC queue."""
        while state.in_flight < state.window:
            fresh = state.next_seq
            seq = state.next_to_send()
            if seq is None:
                break
            self._send_data(state, seq, seq >= fresh)
            state.in_flight += 1
        if state.timer is None and state.unacked_sent:
            self._arm_rto(state)

    def _arm_rto(self, state: WindowFlow) -> None:
        """(Re)start the RTO.  A live timer due no later than the new
        deadline is deferred, not replaced: the flow keeps the deadline
        and the seq a fresh schedule would draw, and the timer, when it
        fires, moves itself there (:meth:`_on_rto`).  Dispatch order is
        that of cancelling and scheduling anew; the wheel sees one
        schedule per timer instead of one per new ACK."""
        env = self.env
        when = env.now + self.config.rto * state.rto_scale
        timer = state.timer
        if timer is not None and timer[0] <= when:
            env._seq += 1
            state.rto_at = when
            state.rto_seq = env._seq
            return
        EventLoop.cancel(timer)
        state.rto_at = None
        state.timer = env.schedule_timer_at(when, self._on_rto, state.flow.fid)

    def _on_rto(self, fid: int) -> None:
        state = self.src_flows.get(fid)
        if state is None:
            return
        when = state.rto_at
        if when is not None:
            # Deferred: fire where the re-arm's own schedule would have.
            env = self.env
            state.rto_at = None
            state.timer = [when, state.rto_seq, self._on_rto, (fid,), env]
            heappush(env._heap, state.timer)
            env._live += 1
            return
        state.timer = None
        self.timeouts += 1
        if self.on_timeout(state):
            return
        # Everything outstanding is presumed lost; resend earliest first.
        state.requeue_outstanding()
        state.in_flight = 0
        state.rto_scale *= self.rto_backoff
        self._pump(state)
        if state.timer is None:
            self._arm_rto(state)

    def on_new_ack(self, state: WindowFlow, pkt: Packet) -> None:
        """One packet left flight: restart the RTO and refill the window."""
        if state.in_flight > 0:
            state.in_flight -= 1
        state.rto_scale = 1.0
        self._arm_rto(state)  # progress: restart the clock
        self._pump(state)
