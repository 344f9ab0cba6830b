"""DCTCP endpoint.

The first transport landed *after* the dataplane refactor, and the
proof that new protocol columns need only the two public registries:

* the switch side is :class:`repro.dataplane.DctcpEcnProgram` — the
  commodity pipeline plus ECN threshold marking — selected by name in
  this module's :class:`~repro.protocols.base.ProtocolSpec`
  (``switch_dataplane="dctcp"``); nothing inside ``repro.net`` or other
  protocols' packages changes;
* the endpoint below is plain window-based TCP machinery with DCTCP's
  estimator: the receiver echoes each data packet's ECN codepoint on
  its per-packet ACK, and the sender maintains
  ``alpha <- (1 - g) * alpha + g * F`` over observation windows of one
  cwnd of ACKs, cutting ``cwnd`` by ``alpha / 2`` when a window saw any
  marks and growing additively otherwise.

Deviations from the DCTCP paper, chosen to match this repository's
existing endpoints: per-packet ACKs (no delayed-ACK coalescing — the
pFabric/pHost endpoints ACK per packet too, so control overhead is
comparable across columns), slow start replaced by a fixed initial
window (as the pHost paper configures all its transports), and
timeout recovery via resend-all-unacked (the pFabric endpoint's rule)
with the window collapsed to ``min_cwnd``.
"""

from __future__ import annotations

from collections import deque
from math import ceil
from typing import Deque, Dict, Optional, Set

from repro.net.packet import Flow, Packet, PacketType
from repro.protocols.base import ProtocolSpec, TransportAgent
from repro.protocols.dctcp.config import DCTCPConfig
from repro.sim.engine import EventLoop

__all__ = ["DCTCPAgent", "DCTCP_SPEC"]

#: Commodity band for DCTCP data (ACKs ride band 0, so they are never
#: queued behind data — matching the other endpoints' control priority).
DATA_BAND = 1


class _SrcFlow:
    """Source-side window, estimator and retransmission state.

    ``acked`` is a dense seq map (a byte per packet) counted by
    ``n_acked``; the seqs sent so far are ``range(next_seq)``.
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
        "done",
        "cwnd",
        "alpha",
        "window_acks",
        "window_marks",
    )

    def __init__(self, flow: Flow, config: DCTCPConfig) -> None:
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
        self.done = False
        # DCTCP estimator state.
        self.cwnd = float(config.init_cwnd)
        self.alpha = config.init_alpha
        self.window_acks = 0   # ACKs seen in the current observation window
        self.window_marks = 0  # of which carried the echoed CE bit

    def remaining(self) -> int:
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


class _DstFlow:
    """Receiver-side reassembly state for one flow: a dense seq map and
    its count."""

    __slots__ = ("flow", "received", "n_received")

    def __init__(self, flow: Flow) -> None:
        self.flow = flow
        self.received = bytearray(flow.n_pkts)
        self.n_received = 0


class DCTCPAgent(TransportAgent):
    """DCTCP endpoint for one host (source + receiver roles)."""

    def __init__(self, host, ctx) -> None:
        super().__init__(host, ctx)
        self.src_flows: Dict[int, _SrcFlow] = {}
        self.dst_flows: Dict[int, _DstFlow] = {}
        self.timeouts = 0
        self.ce_echoes = 0       # marked ACKs seen (sender side)
        self.ce_delivered = 0    # marked data packets seen (receiver side)

    def register_instruments(self, registry) -> None:
        """Estimator and window state as pull-based gauges."""
        host = f"h{self.host.node_id}"
        registry.gauge(
            "dctcp.flows.src_active", lambda: len(self.src_flows), host=host
        )
        registry.gauge(
            "dctcp.pkts.in_flight",
            lambda: sum(s.in_flight for s in self.src_flows.values()),
            src=host,
        )
        registry.gauge(
            "dctcp.cwnd.sum",
            lambda: sum(s.cwnd for s in self.src_flows.values()),
            src=host,
        )
        registry.gauge(
            "dctcp.alpha.max",
            lambda: max((s.alpha for s in self.src_flows.values()), default=0.0),
            src=host,
        )
        registry.gauge("dctcp.ecn.echoes", lambda: self.ce_echoes, host=host)
        registry.gauge("dctcp.ecn.delivered", lambda: self.ce_delivered, host=host)
        registry.gauge("dctcp.timeouts", lambda: self.timeouts, host=host)

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def start_flow(self, flow: Flow) -> None:
        if flow.fid in self.src_flows:
            raise ValueError(f"duplicate flow id {flow.fid}")
        self.collector.flow_arrived(flow, self.env.now)
        state = _SrcFlow(flow, self.config)
        self.src_flows[flow.fid] = state
        self._pump(state)

    def _pump(self, state: _SrcFlow) -> None:
        """Fill the window: push packets into the NIC queue."""
        while not state.done and state.in_flight < int(state.cwnd):
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
            flow, seq, flow.src, flow.dst, flow.wire_bytes_of(seq), DATA_BAND, now
        )
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
        # TCP-style collapse; alpha is preserved (the estimator outlives
        # the loss event) and the observation window restarts.
        state.cwnd = float(self.config.min_cwnd)
        state.window_acks = 0
        state.window_marks = 0
        lost = sorted(state.unacked_sent - state.rtx_set)
        for seq in lost:
            state.rtx.append(seq)
            state.rtx_set.add(seq)
        state.in_flight = 0
        state.rto_scale *= self.config.rto_backoff
        self._pump(state)
        if state.rto_timer is None and not state.done:
            self._arm_rto(state)

    def _update_estimator(self, state: _SrcFlow, marked: bool) -> None:
        """One ACK's worth of DCTCP bookkeeping (paper §3.3)."""
        state.window_acks += 1
        if marked:
            state.window_marks += 1
        if state.window_acks < max(int(ceil(state.cwnd)), 1):
            return
        # Observation window complete: fold the marked fraction into
        # alpha, then react once per window.
        frac = state.window_marks / state.window_acks
        g = self.config.gain
        state.alpha = (1.0 - g) * state.alpha + g * frac
        if state.window_marks:
            state.cwnd = max(
                float(self.config.min_cwnd), state.cwnd * (1.0 - state.alpha / 2.0)
            )
        else:
            state.cwnd += 1.0
        state.window_acks = 0
        state.window_marks = 0

    def _on_ack(self, pkt: Packet) -> None:
        state = self.src_flows.get(pkt.flow.fid)
        if state is None or state.done:
            return
        seq = pkt.seq
        if state.acked[seq]:
            return
        marked = pkt.ecn != 0
        if marked:
            self.ce_echoes += 1
        self._update_estimator(state, marked)
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
        if pkt.ecn:
            self.ce_delivered += 1
        if flow.finish is not None:
            self.collector.data_duplicate(pkt)
            self._send_ack(pkt)  # keep ACKing so the source closes
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
        self._send_ack(pkt)

    def _send_ack(self, pkt: Packet) -> None:
        """Per-packet ACK echoing the data packet's ECN codepoint."""
        flow = pkt.flow
        ack = self.pool.control(
            PacketType.ACK, flow, pkt.seq, self.host.node_id, flow.src, self.env.now
        )
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
            raise ValueError(f"DCTCP host received unexpected packet type: {pkt!r}")


def _dctcp_config_factory(ctx) -> DCTCPConfig:
    return DCTCPConfig.paper_default()


def _dctcp_agent_factory(host, ctx) -> DCTCPAgent:
    return DCTCPAgent(host, ctx)


DCTCP_SPEC = ProtocolSpec(
    name="dctcp",
    agent_factory=_dctcp_agent_factory,
    config_factory=_dctcp_config_factory,
    switch_dataplane="dctcp",
    host_dataplane="dctcp",
)
