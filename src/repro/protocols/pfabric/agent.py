"""pFabric endpoint.

The transport half is deliberately simple — the clever part of pFabric
lives in :class:`repro.net.queues.PFabricQueue` (priority drop and
starvation-avoidance dequeue), which this agent relies on at every hop
*including its own NIC*.  The endpoint:

* pushes up to ``cwnd`` packets of each flow into the NIC queue, each
  stamped with the flow's remaining un-ACKed packet count (the priority
  the fabric schedules on — the paper's footnote 1);
* receives a 40-byte ACK per delivered data packet (ACKs are stamped
  remaining=0, so they are never dropped nor delayed behind data);
* on a 45 us RTO, counts all unacked packets as lost and re-pushes
  them, earliest first;
* after several consecutive RTOs enters *probe mode* (pFabric §4.3):
  one header-sized probe per RTO instead of a window of
  retransmissions, resuming on the probe-ACK — so a congestion
  pathology cannot trigger a retransmission storm.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Set

from repro.net.packet import Flow, Packet, PacketType
from repro.protocols.base import ProtocolSpec, TransportAgent
from repro.protocols.pfabric.config import PFabricConfig
from repro.sim.engine import EventLoop

__all__ = ["PFabricAgent", "PFABRIC_SPEC"]

#: Sequence number used by probe packets (never a real data seq).  As
#: an index it would read a seq map's last slot, so every probe test
#: comes before the map is touched.
PROBE_SEQ = -1


class _SrcFlow:
    """Source-side window/retransmission state for one flow.

    ``acked`` is a dense seq map (a byte per packet) counted by
    ``n_acked``.  The seqs sent so far are ``range(next_seq)``: a
    retransmission only re-queues a seq already sent.  Only the
    window-bounded sets (``unacked_sent``, ``rtx_set``) hold seqs as
    Python ints.
    """

    __slots__ = (
        "flow",
        "next_seq",
        "acked",
        "n_acked",
        "unacked_sent",
        "rtx",
        "rtx_set",
        "in_flight",
        "rto_timer",
        "rto_scale",
        "consecutive_timeouts",
        "probing",
        "probes_sent",
        "done",
    )

    def __init__(self, flow: Flow) -> None:
        self.flow = flow
        self.next_seq = 0
        self.acked = bytearray(flow.n_pkts)
        self.n_acked = 0
        self.unacked_sent: Set[int] = set()
        self.rtx: Deque[int] = deque()
        self.rtx_set: Set[int] = set()
        self.in_flight = 0
        self.rto_timer: Optional[list] = None
        self.rto_scale = 1.0
        self.consecutive_timeouts = 0
        self.probing = False
        self.probes_sent = 0
        self.done = False

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

    def has_sendable(self) -> bool:
        if any(not self.acked[seq] for seq in self.rtx):
            return True
        return self.next_seq < self.flow.n_pkts


class _DstFlow:
    """Receiver-side reassembly state for one flow: a dense seq map and
    its count."""

    __slots__ = ("flow", "received", "n_received")

    def __init__(self, flow: Flow) -> None:
        self.flow = flow
        self.received = bytearray(flow.n_pkts)
        self.n_received = 0


class PFabricAgent(TransportAgent):
    """pFabric endpoint for one host (source + receiver roles)."""

    def __init__(self, host, ctx) -> None:
        super().__init__(host, ctx)
        self.src_flows: Dict[int, _SrcFlow] = {}
        self.dst_flows: Dict[int, _DstFlow] = {}
        self.timeouts = 0

    def register_instruments(self, registry) -> None:
        """Window/timeout state as pull-based gauges."""
        host = f"h{self.host.node_id}"
        registry.gauge(
            "pfabric.flows.src_active", lambda: len(self.src_flows), host=host
        )
        registry.gauge(
            "pfabric.pkts.in_flight",
            lambda: sum(s.in_flight for s in self.src_flows.values()),
            src=host,
        )
        registry.gauge("pfabric.timeouts", lambda: self.timeouts, host=host)

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def start_flow(self, flow: Flow) -> None:
        if flow.fid in self.src_flows:
            raise ValueError(f"duplicate flow id {flow.fid}")
        self.collector.flow_arrived(flow, self.env.now)
        state = _SrcFlow(flow)
        self.src_flows[flow.fid] = state
        self._pump(state)

    def _pump(self, state: _SrcFlow) -> None:
        """Fill the window: push packets into the NIC priority queue."""
        while not state.done and state.in_flight < self.config.init_cwnd:
            fresh = state.next_seq
            seq = state.next_to_send()
            if seq is None:
                break
            self._send_data(state, seq, seq >= fresh)
        if state.rto_timer is None and state.unacked_sent and not state.done:
            self._arm_rto(state)

    def _send_data(self, state: _SrcFlow, seq: int, first_time: bool) -> None:
        flow = state.flow
        now = self.env.now
        pkt = self.pool.data(
            flow, seq, flow.src, flow.dst, flow.wire_bytes_of(seq), 1, now
        )
        pkt.remaining = state.remaining()
        state.unacked_sent.add(seq)
        state.in_flight += 1
        if flow.start_time is None:
            flow.start_time = now
        self.collector.data_sent(pkt, first_time)
        self.host.send(pkt)

    def _arm_rto(self, state: _SrcFlow) -> None:
        EventLoop.cancel(state.rto_timer)
        state.rto_timer = self.env.schedule_timer(
            self.config.rto * state.rto_scale, self._on_rto, state.flow.fid
        )

    def _on_rto(self, fid: int) -> None:
        state = self.src_flows.get(fid)
        if state is None or state.done:
            return
        state.rto_timer = None
        self.timeouts += 1
        state.consecutive_timeouts += 1
        threshold = self.config.probe_after_timeouts
        if threshold and state.consecutive_timeouts >= threshold:
            # Probe mode (pFabric §4.3): stop blasting windows of
            # retransmissions; one tiny probe per RTO until the path
            # answers again.
            state.probing = True
            self._send_probe(state)
            self._arm_rto(state)
            return
        # Everything outstanding is presumed lost; resend earliest first.
        lost = sorted(state.unacked_sent - state.rtx_set)
        for seq in lost:
            state.rtx.append(seq)
            state.rtx_set.add(seq)
        state.in_flight = 0
        state.rto_scale *= self.config.min_rto_backoff
        self._pump(state)
        if state.rto_timer is None and not state.done:
            self._arm_rto(state)

    def _send_probe(self, state: _SrcFlow) -> None:
        flow = state.flow
        probe = self.pool.data(
            flow, PROBE_SEQ, flow.src, flow.dst, 40, 1, self.env.now  # header-only
        )
        probe.remaining = state.remaining()
        state.probes_sent += 1
        self.host.send(probe)

    def _on_ack(self, pkt: Packet) -> None:
        state = self.src_flows.get(pkt.flow.fid)
        if state is None or state.done:
            return
        seq = pkt.seq
        state.consecutive_timeouts = 0
        if seq == PROBE_SEQ:
            # The path is alive again: leave probe mode and resume with
            # a fresh round of retransmissions.
            if state.probing:
                state.probing = False
                lost = sorted(state.unacked_sent - state.rtx_set)
                for s in lost:
                    state.rtx.append(s)
                    state.rtx_set.add(s)
                state.in_flight = 0
                state.rto_scale = 1.0
                self._pump(state)
                self._arm_rto(state)
            return
        if state.acked[seq]:
            return
        state.probing = False  # any data ACK proves the path is alive
        state.acked[seq] = 1
        state.n_acked += 1
        state.unacked_sent.discard(seq)
        if state.in_flight > 0:
            state.in_flight -= 1
        state.rto_scale = 1.0
        if state.n_acked >= state.flow.n_pkts:
            state.done = True
            EventLoop.cancel(state.rto_timer)
            state.rto_timer = None
            del self.src_flows[pkt.flow.fid]
            return
        self._arm_rto(state)  # progress: restart the clock
        self._pump(state)

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def _on_data(self, pkt: Packet) -> None:
        flow = pkt.flow
        fid = flow.fid
        if pkt.seq == PROBE_SEQ:
            self._send_ack(flow, PROBE_SEQ)  # probe-ACK, no data implied
            return
        if flow.finish is not None:
            self.collector.data_duplicate(pkt)
            self._send_ack(flow, pkt.seq)  # keep ACKing so the source closes
            return
        state = self.dst_flows.get(fid)
        if state is None:
            state = _DstFlow(flow)
            self.dst_flows[fid] = state
        if not state.received[pkt.seq]:
            state.received[pkt.seq] = 1
            state.n_received += 1
            self.collector.data_delivered(pkt)
            if state.n_received >= flow.n_pkts:
                self.collector.flow_completed(flow, self.env.now)
                del self.dst_flows[fid]
        else:
            self.collector.data_duplicate(pkt)
        self._send_ack(flow, pkt.seq)

    def _send_ack(self, flow: Flow, seq: int) -> None:
        ack = self.pool.control(PacketType.ACK, flow, seq, self.host.node_id, flow.src, self.env.now)
        ack.remaining = 0  # top priority in pFabric queues
        self.collector.control_sent(ack)
        self.host.send(ack)

    # ------------------------------------------------------------------
    def on_packet(self, pkt: Packet) -> None:
        if pkt.ptype == PacketType.DATA:
            self._on_data(pkt)
        elif pkt.ptype == PacketType.ACK:
            self._on_ack(pkt)
        else:
            raise ValueError(f"pFabric host received unexpected packet type: {pkt!r}")


def _pfabric_config_factory(ctx) -> PFabricConfig:
    return PFabricConfig.paper_default()


def _pfabric_agent_factory(host, ctx) -> PFabricAgent:
    return PFabricAgent(host, ctx)


PFABRIC_SPEC = ProtocolSpec(
    name="pfabric",
    agent_factory=_pfabric_agent_factory,
    config_factory=_pfabric_config_factory,
    switch_dataplane="pfabric",
    host_dataplane="pfabric",
)
