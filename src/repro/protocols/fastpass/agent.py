"""Fastpass endpoint.

Sources report demands to the arbiter on flow arrival and transmit only
in the timeslots the arbiter assigns (perfect sync: transmissions start
exactly at slot boundaries).  Receivers ACK every data packet (40 B,
highest priority); a source whose flow has un-ACKed packets after the
RTO re-requests that many slots from the arbiter — the loss-recovery
path, which in practice almost never fires because Fastpass's explicit
scheduling keeps queues empty.  Delivery — the receiver, the ACKs and
the seq maps — is the shared :class:`~repro.protocols.window.ReliableAgent`.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.net.packet import Flow, Packet, PacketType, control_packet
from repro.protocols.base import ProtocolSpec
from repro.protocols.fastpass.arbiter import FastpassArbiter
from repro.protocols.fastpass.config import FastpassConfig
from repro.protocols.window import ReliableAgent, SrcFlow

__all__ = ["FastpassAgent", "FASTPASS_SPEC"]


class _SrcFlow(SrcFlow):
    """Delivery state plus the arbiter bookkeeping; ``timer`` is the
    loss-recovery recheck."""

    __slots__ = ("last_activity", "slots_pending")

    def __init__(self, flow: Flow, now: float) -> None:
        super().__init__(flow)
        self.last_activity = now  # last send or ACK; gates loss recovery
        self.slots_pending = 0  # allocated slots not yet fired


class FastpassAgent(ReliableAgent):
    """Fastpass endpoint for one host."""

    label = "Fastpass"

    def __init__(self, host, ctx) -> None:
        super().__init__(host, ctx)
        if self.shared is None:
            raise ValueError("Fastpass agents need the shared arbiter")
        self.arbiter: FastpassArbiter = self.shared
        self.arbiter.register_agent(host.node_id, self)
        self.requests_retried = 0  # lost-REQUEST recoveries (fault runs)

    # The arbiter registers its own run-wide gauges via the shared-state
    # path; the per-host set is ReliableAgent's.

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def start_flow(self, flow: Flow) -> None:
        state = _SrcFlow(flow, self.env.now)
        self._open(state)
        self._send_request(flow, flow.n_pkts)
        if self.ctx.faults is not None:
            # Under fault injection the REQUEST itself can be lost (an
            # arbiter blackout), so the recovery watchdog must run from
            # flow start, not from the first transmitted slot.  Gated on
            # active faults because the extra timer events would change
            # fault-free event streams pinned by the golden digests.
            state.timer = self.env.schedule_timer(
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
        fresh = state.next_seq
        seq = state.next_to_send()
        if seq is None:
            return  # nothing left to send: the slot goes unused
        self._send_data(state, seq, seq >= fresh)
        state.last_activity = self.env.now
        if state.timer is None:
            state.timer = self.env.schedule_timer(self.config.rto, self._recheck, fid)

    def _recheck(self, fid: int) -> None:
        """Loss recovery: re-request slots for still-unACKed packets."""
        state = self.src_flows.get(fid)
        if state is None:
            return
        state.timer = None
        fully_sent = state.next_seq >= state.flow.n_pkts and not state.rtx
        stale = self.env.now - state.last_activity >= self.config.rto - 1e-12
        if fully_sent and stale and state.unacked_sent:
            lost = state.requeue_outstanding()
            state.unacked_sent.clear()
            if lost:
                self._send_request(state.flow, lost)
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
            self._send_request(state.flow, state.remaining())
        state.timer = self.env.schedule_timer(self.config.rto, self._recheck, fid)

    def on_new_ack(self, state: _SrcFlow, pkt: Packet) -> None:
        state.last_activity = self.env.now


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
