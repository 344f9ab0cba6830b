"""Fastpass endpoint.

Sources report demands to the arbiter on flow arrival and transmit only
in the timeslots the arbiter assigns (perfect sync: transmissions start
exactly at slot boundaries).  Receivers ACK every data packet (40 B,
highest priority); a source whose flow has un-ACKed packets after the
RTO re-requests that many slots from the arbiter — the loss-recovery
path, which in practice almost never fires because Fastpass's explicit
scheduling keeps queues empty.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.net.packet import Flow, Packet, PacketType, control_packet
from repro.protocols.base import ProtocolSpec, TransportAgent
from repro.protocols.fastpass.arbiter import FastpassArbiter
from repro.protocols.fastpass.config import FastpassConfig
from repro.sim.engine import EventLoop

__all__ = ["FastpassAgent", "FASTPASS_SPEC"]

DATA_PRIO = 1  # control rides band 0


class _SrcFlow:
    """Source-side state for one Fastpass flow.

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
        "recheck_timer",
        "done",
        "wasted_slots",
        "last_activity",
        "slots_pending",
    )

    def __init__(self, flow: Flow) -> None:
        self.flow = flow
        self.next_seq = 0
        self.acked = bytearray(flow.n_pkts)
        self.n_acked = 0
        self.unacked_sent: Set[int] = set()
        self.rtx: Deque[int] = deque()
        self.rtx_set: Set[int] = set()
        self.recheck_timer: Optional[list] = None
        self.done = False
        self.wasted_slots = 0
        self.last_activity = 0.0  # last send or ACK; gates loss recovery
        self.slots_pending = 0  # allocated slots not yet fired

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
    """Receiver-side reassembly state: a dense seq map and its count."""

    __slots__ = ("flow", "received", "n_received")

    def __init__(self, flow: Flow) -> None:
        self.flow = flow
        self.received = bytearray(flow.n_pkts)
        self.n_received = 0


class FastpassAgent(TransportAgent):
    """Fastpass endpoint for one host."""

    def __init__(self, host, ctx) -> None:
        super().__init__(host, ctx)
        if self.shared is None:
            raise ValueError("Fastpass agents need the shared arbiter")
        self.arbiter: FastpassArbiter = self.shared
        self.arbiter.register_agent(host.node_id, self)
        self.src_flows: Dict[int, _SrcFlow] = {}
        self.dst_flows: Dict[int, _DstFlow] = {}
        self.requests_retried = 0  # lost-REQUEST recoveries (fault runs)

    def register_instruments(self, registry) -> None:
        """Per-host flow state as pull-based gauges (the arbiter
        registers its own run-wide set via the shared-state path)."""
        host = f"h{self.host.node_id}"
        registry.gauge(
            "fastpass.flows.src_active", lambda: len(self.src_flows), host=host
        )

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def start_flow(self, flow: Flow) -> None:
        if flow.fid in self.src_flows:
            raise ValueError(f"duplicate flow id {flow.fid}")
        self.collector.flow_arrived(flow, self.env.now)
        state = _SrcFlow(flow)
        state.last_activity = self.env.now
        self.src_flows[flow.fid] = state
        self._send_request(flow, flow.n_pkts)
        if self.ctx.faults is not None:
            # Under fault injection the REQUEST itself can be lost (an
            # arbiter blackout), so the recovery watchdog must run from
            # flow start, not from the first transmitted slot.  Gated on
            # active faults because the extra timer events would change
            # fault-free event streams pinned by the golden digests.
            state.recheck_timer = self.env.schedule_timer(
                self.config.rto, self._recheck, flow.fid
            )

    def _send_request(self, flow: Flow, demand_pkts: int) -> None:
        # Counted as a control packet; carried out-of-band to the arbiter
        # with fabric-equivalent latency (see DESIGN.md).
        req = control_packet(
            PacketType.REQUEST, flow, demand_pkts, self.host.node_id, flow.dst, self.env.now
        )
        self.collector.control_sent(req)
        self.env.schedule(self.config.ctrl_latency, self.arbiter.request, flow, demand_pkts)

    def on_schedule(self, allocations: List[Tuple[float, Flow]]) -> None:
        """Arbiter allocation arrived (exactly at the epoch boundary)."""
        for slot_time, flow in allocations:
            state = self.src_flows.get(flow.fid)
            if state is not None:
                state.slots_pending += 1
            self.env.schedule_at(slot_time, self._send_slot, flow.fid)

    def _send_slot(self, fid: int) -> None:
        state = self.src_flows.get(fid)
        if state is None:
            return
        if state.slots_pending > 0:
            state.slots_pending -= 1
        if state.done:
            return
        fresh = state.next_seq
        seq = state.next_to_send()
        if seq is None:
            state.wasted_slots += 1
            return
        flow = state.flow
        now = self.env.now
        pkt = self.pool.data(
            flow, seq, flow.src, flow.dst, flow.wire_bytes_of(seq), DATA_PRIO, now
        )
        state.unacked_sent.add(seq)
        state.last_activity = now
        if flow.start_time is None:
            flow.start_time = now
        self.collector.data_sent(pkt, seq >= fresh)
        self.host.send(pkt)
        if state.recheck_timer is None:
            state.recheck_timer = self.env.schedule_timer(self.config.rto, self._recheck, fid)

    def _recheck(self, fid: int) -> None:
        """Loss recovery: re-request slots for still-unACKed packets."""
        state = self.src_flows.get(fid)
        if state is None or state.done:
            return
        state.recheck_timer = None
        fully_sent = state.next_seq >= state.flow.n_pkts and not state.rtx
        stale = self.env.now - state.last_activity >= self.config.rto - 1e-12
        if fully_sent and stale and state.unacked_sent:
            lost = sorted(state.unacked_sent - state.rtx_set)
            for seq in lost:
                state.rtx.append(seq)
                state.rtx_set.add(seq)
            state.unacked_sent.clear()
            if lost:
                self._send_request(state.flow, len(lost))
        elif (
            stale
            and state.next_seq == 0
            and state.slots_pending == 0
            and fid not in self.arbiter.demands
        ):
            # Nothing ever went out, no allocation is pending, and the
            # arbiter has no record of us: the REQUEST was lost (e.g. to
            # an arbiter blackout).  Re-report the full demand.
            self.requests_retried += 1
            self._send_request(state.flow, state.flow.n_pkts - state.n_acked)
        state.recheck_timer = self.env.schedule_timer(self.config.rto, self._recheck, fid)

    def _on_ack(self, pkt: Packet) -> None:
        state = self.src_flows.get(pkt.flow.fid)
        if state is None or state.done:
            return
        seq = pkt.seq
        if state.acked[seq]:
            return
        state.acked[seq] = 1
        state.n_acked += 1
        state.unacked_sent.discard(seq)
        state.last_activity = self.env.now
        if state.n_acked >= state.flow.n_pkts:
            state.done = True
            EventLoop.cancel(state.recheck_timer)
            state.recheck_timer = None
            del self.src_flows[pkt.flow.fid]

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def _on_data(self, pkt: Packet) -> None:
        flow = pkt.flow
        fid = flow.fid
        if flow.finish is not None:
            self.collector.data_duplicate(pkt)
            self._send_ack(flow, pkt.seq)
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
        self.collector.control_sent(ack)
        self.host.send(ack)

    # ------------------------------------------------------------------
    def on_packet(self, pkt: Packet) -> None:
        if pkt.ptype == PacketType.DATA:
            self._on_data(pkt)
        elif pkt.ptype == PacketType.ACK:
            self._on_ack(pkt)
        else:
            raise ValueError(f"Fastpass host received unexpected packet type: {pkt!r}")


def _fastpass_config_factory(ctx) -> FastpassConfig:
    return FastpassConfig.paper_default().resolve(ctx.fabric.config)


def _fastpass_shared_factory(ctx) -> FastpassArbiter:
    return FastpassArbiter(ctx.env, ctx.fabric, ctx.collector, ctx.config)


def _fastpass_agent_factory(host, ctx) -> FastpassAgent:
    return FastpassAgent(host, ctx)


FASTPASS_SPEC = ProtocolSpec(
    name="fastpass",
    agent_factory=_fastpass_agent_factory,
    config_factory=_fastpass_config_factory,
    switch_dataplane="commodity",
    host_dataplane="commodity",
    shared_factory=_fastpass_shared_factory,
)
