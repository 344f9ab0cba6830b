"""pHost source (paper Algorithm 1).

On flow arrival: send an RTS and seed the flow with free tokens.  When
the NIC goes idle, spend a token: granted tokens first (spend policy
picks the flow), free tokens otherwise.  Tokens expire; expired ones are
discarded at selection time.

Robustness beyond the happy path (paper §3.4 leaves these implicit):

* the RTS is retransmitted on a coarse timer while no token has ever
  arrived and the free budget is spent (lost-RTS recovery; note a lost
  RTS is already almost harmless because the destination also creates
  state from the first data packet);
* after the last packet has been sent once, an ACK-check timer
  retransmits the RTS if no ACK arrives, prompting the destination to
  either re-ACK (ACK was lost) or re-issue tokens (data was lost); the
  ACK cancels it.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.protocols.phost.config import PHostConfig
from repro.protocols.phost.policies import SchedulingPolicy, TenantCounters
from repro.protocols.phost.tokens import SourceFlowState, Token
from repro.net.packet import Flow, Packet, PacketType
from repro.sim.engine import EventLoop

__all__ = ["PHostSource"]


class PHostSource:
    """Source half of a host's pHost agent."""

    def __init__(self, agent, config: PHostConfig, spend_policy: SchedulingPolicy) -> None:
        self.agent = agent
        self.env = agent.env
        self.pool = agent.pool
        self.port = agent.host.port
        self.config = config
        self.policy = spend_policy
        self.flows: Dict[int, SourceFlowState] = {}
        self.tenant_sent = TenantCounters()
        self.tokens_expired = 0  # observability: tokens that lapsed unused
        self.tokens_stale = 0    # tokens arriving after the flow finished
        # Ledger totals rolled over from flows retired by an ACK, so the
        # token balance stays auditable after per-flow state is dropped.
        self.tokens_received_retired = 0
        self.tokens_spent_retired = 0
        self.tokens_expired_retired = 0
        self.tokens_unspent_retired = 0

    # ------------------------------------------------------------------
    # Flow arrival (Algorithm 1, "new flow arrives")
    # ------------------------------------------------------------------
    def start_flow(self, flow: Flow) -> None:
        if flow.fid in self.flows:
            raise ValueError(f"duplicate flow id {flow.fid}")
        state = SourceFlowState(flow, self.config.free_tokens)
        self.flows[flow.fid] = state
        self._send_rts(state)
        if not state.has_free_token() or self.agent.ctx.faults is not None:
            # Arm the lost-RTS recovery timer.  Without a free budget
            # (e.g. tenant-fair config) grants are the only way forward,
            # so the timer is load-bearing even on a lossless fabric.
            # With free tokens it matters only when the fabric can lose
            # packets: if the RTS *and* every free-token data packet die,
            # the destination never learns the flow exists and nothing
            # else would ever fire again — so it is armed exactly when a
            # fault plan is active, keeping fault-free runs on the
            # golden event trajectory.
            self.env.schedule_timer(self.config.rts_retry, self._rts_check, flow.fid)
        self.agent.kick_nic()

    def _send_rts(self, state: SourceFlowState) -> None:
        flow = state.flow
        state.rts_sends += 1
        rts = self.pool.control(PacketType.RTS, flow, 0, flow.src, flow.dst, self.env.now)
        self.agent.send_control(rts)

    def _rts_check(self, fid: int) -> None:
        state = self.flows.get(fid)
        if state is None or state.done:
            return
        if state.got_token:
            return  # destination has state; reissue/ack paths take over
        if not state.has_free_token():
            self._send_rts(state)
        # Re-arm while no token has ever arrived, even if free budget
        # remains: the budget may drain to silence between checks.
        self.env.schedule_timer(self.config.rts_retry, self._rts_check, fid)

    # ------------------------------------------------------------------
    # Token receipt (Algorithm 1, "new token T received")
    # ------------------------------------------------------------------
    def on_token(self, pkt: Packet) -> None:
        state = self.flows.get(pkt.flow.fid)
        if state is None or state.done:
            self.tokens_stale += 1
            return  # stale token for a finished flow
        expiry = self.env.now + self.config.token_expiry
        state.add_token(Token(pkt.seq, pkt.data_prio, expiry))
        self.agent.kick_nic()

    # ------------------------------------------------------------------
    # ACK receipt — flow done
    # ------------------------------------------------------------------
    def on_ack(self, pkt: Packet) -> None:
        state = self.flows.pop(pkt.flow.fid, None)
        if state is not None:
            state.done = True
            EventLoop.cancel(state.ack_timer)
            self.tokens_received_retired += state.tokens_received
            self.tokens_spent_retired += state.tokens_spent
            self.tokens_expired_retired += state.tokens_expired_n
            self.tokens_unspent_retired += len(state.tokens)

    # ------------------------------------------------------------------
    # NIC pull (Algorithm 1, "idle": pick a token, send its packet)
    # ------------------------------------------------------------------
    def next_data_packet(self) -> Optional[Packet]:
        """The next data packet, or None.  When the packet returned is
        the last one any flow can send for now, clear the port's
        ``pull_ready``: new work comes only with a flow or a token,
        and both kick the NIC."""
        now = self.env.now
        candidates = []
        for state in self.flows.values():
            self.tokens_expired += state.prune_expired(now)
            if state.tokens or state.has_free_token():
                candidates.append(state)
        if not candidates:
            return None
        # Algorithm 1: free tokens live in the same ActiveTokens list as
        # granted ones; the spend policy picks across all of them.
        if len(candidates) == 1:  # overwhelmingly the common case
            state = candidates[0]
        else:
            state = self.policy.select(candidates, self.tenant_sent)
        if state.tokens:
            token = state.pop_token()
            pkt = self._make_data(state, token.seq, token.priority)
        else:
            seq = state.take_free_seq()
            pkt = self._make_data(state, seq, self.agent.data_priority(state.flow))
        if len(candidates) == 1 and not state.tokens and not state.has_free_token():
            self.port.pull_ready = False
        return pkt

    def _make_data(self, state: SourceFlowState, seq: int, priority: int) -> Packet:
        now = self.env.now
        flow = state.flow
        pkt = self.pool.data(
            flow, seq, flow.src, flow.dst, flow.wire_bytes_of(seq), priority, now
        )
        first_time = state.mark_sent(seq)
        self.tenant_sent.add(flow.tenant)
        if flow.start_time is None:
            flow.start_time = now
        self.agent.collector.data_sent(pkt, first_time)
        if state.all_sent() and state.ack_timer is None:
            state.ack_timer = self.env.schedule_timer(
                2 * self.config.retx_timeout, self._ack_check, flow.fid
            )
        return pkt

    def _ack_check(self, fid: int) -> None:
        state = self.flows[fid]  # the ACK retires the flow and cancels this
        # All packets went out at least once but no ACK: poke the
        # destination (it will re-ACK or re-grant missing packets).
        self._send_rts(state)
        state.ack_timer = self.env.schedule_timer(
            2 * self.config.retx_timeout, self._ack_check, fid
        )

    # ------------------------------------------------------------------
    @property
    def active_flow_count(self) -> int:
        return len(self.flows)
