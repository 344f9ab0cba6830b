"""pHost destination (paper Algorithm 2).

The destination keeps a *PendingRTS* list and, once per MTU
transmission time, grants a token to the flow its grant policy picks.
Three mechanisms from §3.2/§3.4 are implemented here:

* **source downgrading** — a flow with a BDP's worth of unresponded
  tokens is marked ineligible for ``downgrade_time``; when the downgrade
  lapses the destination re-queues tokens for the packets still missing;
* **token re-issue on timeout** — a flow that has stopped making
  progress for ``retx_timeout`` gets tokens re-issued for missing
  packets (this is also the loss-recovery path, since tokens name
  specific packet ids);
* **implicit RTS** — state is created from the first data packet too,
  so a lost RTS costs latency, not correctness.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Deque, Dict, Optional, Sequence, Set

from repro.protocols.phost.config import PHostConfig
from repro.protocols.phost.policies import SchedulingPolicy, TenantCounters
from repro.net.packet import Flow, Packet, PacketType
from repro.sim.engine import EventLoop

__all__ = ["PHostDestination", "DestFlowState"]

#: Superseded entries are swept out of a grant index once it holds more
#: than twice as many entries as there are flows plus this slack.
_RANK_SLACK = 64


class DestFlowState:
    """Destination-side per-flow protocol state.

    ``received`` is a dense seq map (a byte per packet) counted by
    ``n_received``.  The granted seqs are not stored: the free budget
    covers ``[0, next_new)`` at creation, and every explicit grant either
    takes ``next_new`` (advancing it) or re-grants a missing seq below
    it, so a seq has been granted exactly when ``seq < next_new``.
    """

    __slots__ = (
        "flow",
        "received",
        "n_received",
        "next_new",
        "regrant",
        "regrant_set",
        "grant_time",
        "outstanding",
        "downgrade_until",
        "downgrades",
        "complete",
        "last_progress",
        "reissue_timer",
        "reissue_next",
        "rank",
    )

    def __init__(self, flow: Flow, free_tokens: int, now: float) -> None:
        self.flow = flow
        self.received = bytearray(flow.n_pkts)
        self.n_received = 0
        # Free tokens are implicit grants for the first packets.
        self.next_new = min(free_tokens, flow.n_pkts)
        self.regrant: Deque[int] = deque()
        self.regrant_set: Set[int] = set()
        #: When each explicit token not yet answered by its data packet
        #: went out (regrant-expiry filtering).
        self.grant_time: Dict[int, float] = {}
        self.outstanding = 0
        self.downgrade_until = 0.0
        self.downgrades = 0
        self.complete = False
        self.last_progress = now
        #: The pending reissue check, if any.
        self.reissue_timer: Optional[list] = None
        #: When the next reissue check runs, or, while none is pending,
        #: would have run had every check re-armed itself.
        self.reissue_next = now
        #: This flow's live entry in the destination's grant index.
        self.rank: Optional[list] = None

    # ------------------------------------------------------------------
    def has_grants(self) -> bool:
        """Is there a packet left to grant a token for (a queued
        regrant, or one never granted)?"""
        return bool(self.regrant) or self.next_new < self.flow.n_pkts

    def eligible(self, now: float) -> bool:
        """May this flow be granted a token right now?"""
        if self.complete or now < self.downgrade_until:
            return False
        return self.has_grants()

    def remaining_hint(self) -> int:
        """Packets still missing (the SRPT grant key)."""
        return self.flow.n_pkts - self.n_received

    def missing(self) -> Set[int]:
        """Granted (incl. free) packets not received and not re-queued."""
        received = self.received
        return {seq for seq in range(self.next_new) if not received[seq]} - self.regrant_set

    def expired_missing(self, now: float, expiry_margin: float) -> Set[int]:
        """Missing packets whose token has demonstrably lapsed.

        Explicit grants count once ``grant_time + expiry_margin`` has
        passed (the token expired at the source and a data packet would
        long since have arrived).  Free-budget seqs have no expiry — the
        source may legitimately sit on them under SRPT backlog — so they
        are excluded here and only reclaimed by the (much longer)
        staleness-based reissue path.
        """
        received, regrant_set = self.received, self.regrant_set
        return {
            seq
            for seq, granted_at in self.grant_time.items()
            if now - granted_at >= expiry_margin
            and not received[seq]
            and seq not in regrant_set
        }

    def queue_regrants(self, seqs) -> int:
        added = 0
        for seq in sorted(seqs):
            if seq not in self.regrant_set and not self.received[seq]:
                self.regrant.append(seq)
                self.regrant_set.add(seq)
                added += 1
        return added

    def next_grant_seq(self) -> Optional[int]:
        """Pop the next packet id to grant a token for."""
        while self.regrant:
            seq = self.regrant.popleft()
            self.regrant_set.discard(seq)
            if not self.received[seq]:
                return seq
        if self.next_new < self.flow.n_pkts:
            seq = self.next_new
            self.next_new += 1
            return seq
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DestFlowState(fid={self.flow.fid}, recv={self.n_received}/"
            f"{self.flow.n_pkts}, outstanding={self.outstanding})"
        )


class PHostDestination:
    """Destination half of a host's pHost agent."""

    def __init__(self, agent, config: PHostConfig, grant_policy: SchedulingPolicy) -> None:
        self.agent = agent
        self.env: EventLoop = agent.env
        self.pool = agent.pool
        self.config = config
        self.policy = grant_policy
        #: Open flows only: a completed flow is known by ``flow.finish``.
        self.states: Dict[int, DestFlowState] = {}
        self.tenant_received = TenantCounters()
        self.tokens_granted = 0
        self.duplicate_data = 0
        self._timer: Optional[list] = None
        self._next_grant_time = 0.0
        # Grant index: a heap of ``[*policy key, state]`` over the flows
        # that have something to grant, so a pick reads the top instead
        # of keying every flow per token.  Deletion is lazy: an entry
        # counts only while it is its state's ``rank`` and the state is
        # still grantable.  None when the policy's key is not a
        # function of the flow alone; picks then scan ``self.states``.
        self._ranked: Optional[list] = [] if grant_policy.flow_local_key else None

    # ------------------------------------------------------------------
    # RTS handling
    # ------------------------------------------------------------------
    def on_rts(self, pkt: Packet) -> None:
        flow = pkt.flow
        if flow.finish is not None:
            self._send_ack(flow)  # ACK was lost; repeat it
            return
        state = self.states.get(flow.fid)
        if state is None:
            state = self._create_state(flow)
        else:
            # Duplicate RTS: the source believes it is stuck.  Re-queue
            # whatever is missing (cheap no-op when nothing is).
            if self._stale(state):
                self._queue_regrants(state, state.missing())
        self._maybe_start_timer()

    def _create_state(self, flow: Flow) -> DestFlowState:
        state = DestFlowState(flow, self.config.free_tokens, self.env.now)
        self.states[flow.fid] = state
        if len(self.states) == 2:
            # The flow that was alone has not been re-keyed (on_data).
            for other in self.states.values():
                self._rank(other)
        else:
            self._rank(state)
        state.reissue_next = self.env.now + self.config.retx_timeout
        self._arm_reissue(state)
        return state

    # ------------------------------------------------------------------
    # Data handling
    # ------------------------------------------------------------------
    def on_data(self, pkt: Packet) -> None:
        flow = pkt.flow
        if flow.finish is not None:
            self.agent.collector.data_duplicate(pkt)
            return
        state = self.states.get(flow.fid)
        if state is None:
            state = self._create_state(flow)  # implicit RTS
        seq = pkt.seq
        received = state.received
        if received[seq]:
            self.duplicate_data += 1
            self.agent.collector.data_duplicate(pkt)
            return
        received[seq] = 1
        state.n_received += 1
        state.regrant_set.discard(seq)
        state.grant_time.pop(seq, None)
        if state.outstanding > 0:
            state.outstanding -= 1
        if state.reissue_timer is None:
            self._skip_checks(state)
        state.last_progress = self.env.now
        self.tenant_received.add(flow.tenant)
        self.agent.collector.data_delivered(pkt)
        if state.n_received >= flow.n_pkts:
            self._complete(state)
        else:
            if len(self.states) > 1:  # a lone flow wins under any key
                self._rank(state)  # one packet fewer remaining: new key
            self._maybe_start_timer()

    def _complete(self, state: DestFlowState) -> None:
        EventLoop.cancel(state.reissue_timer)  # nothing left to find
        state.complete = True
        state.rank = None
        self.states.pop(state.flow.fid, None)
        self.agent.collector.flow_completed(state.flow, self.env.now)
        self._send_ack(state.flow)

    def _send_ack(self, flow: Flow) -> None:
        ack = self.pool.control(
            PacketType.ACK, flow, flow.n_pkts, self.agent.host.node_id, flow.src, self.env.now
        )
        self.agent.send_control(ack)

    # ------------------------------------------------------------------
    # Token pacing (Algorithm 2, "idle": pick a flow, send a token)
    # ------------------------------------------------------------------
    def _maybe_start_timer(self) -> None:
        timer = self._timer
        if timer is not None and timer[2] is not None:  # inline is_pending
            return
        now = self.env.now
        if self._pick(now) is None:
            return
        when = max(now, self._next_grant_time)
        self._timer = self.env.schedule_at(when, self._grant_tick)

    def _grant_tick(self) -> None:
        self._timer = None
        now = self.env.now
        tried = []  # picked on this tick, yet got no token
        while True:
            state = self._pick(now, tried)
            if state is None:
                break
            if (
                state.outstanding >= self.config.downgrade_threshold
                and now - state.last_progress >= self.config.downgrade_stale
            ):
                self._downgrade(state)
            else:
                seq = state.next_grant_seq()
                if seq is not None:
                    self._grant(state, seq)
                    break
            tried.append(state)
        self._maybe_start_timer()

    def _pick(self, now: float, tried: Sequence[DestFlowState] = ()) -> Optional[DestFlowState]:
        """The eligible flow the grant policy ranks first (``tried``
        ones excepted), or None."""
        heap = self._ranked
        if heap is None:
            candidates = [
                s for s in self.states.values() if s.eligible(now) and s not in tried
            ]
            if len(candidates) > 1:
                return self.policy.select(candidates, self.tenant_received)
            return candidates[0] if candidates else None
        best = None
        aside = []
        while heap:
            entry = heap[0]
            state = entry[-1]
            if state.rank is not entry:  # re-keyed since, or completed
                heappop(heap)
            elif not state.has_grants():
                heappop(heap)  # every packet granted: nothing to pick it for
                state.rank = None
            elif now < state.downgrade_until or state in tried:
                # Passed over, not dropped: a grant tick and the end of
                # a downgrade can share a timestamp, so the test is made
                # here, at pick time, exactly as eligible() makes it.
                aside.append(heappop(heap))
            else:
                best = state
                break
        for entry in aside:
            heappush(heap, entry)
        return best

    def _rank(self, state: DestFlowState) -> None:
        """Index ``state`` under its current policy key.  Called
        whenever the key can have moved (state creation, each accepted
        data packet) or the flow can have become grantable again
        (queued regrants); a flow that runs out of packets to grant is
        dropped when it next surfaces in :meth:`_pick`."""
        heap = self._ranked
        if heap is None:
            return
        if not state.has_grants():
            state.rank = None
            return
        entry = [*self.policy.key(state, None), state]
        state.rank = entry
        heappush(heap, entry)
        if len(heap) > 2 * (len(self.states) + _RANK_SLACK):
            heap[:] = [e for e in heap if e[-1].rank is e]
            heapify(heap)

    def _queue_regrants(self, state: DestFlowState, seqs) -> None:
        state.queue_regrants(seqs)
        if state.rank is None:
            self._rank(state)

    def _grant(self, state: DestFlowState, seq: int) -> None:
        now = self.env.now
        flow = state.flow
        token = self.pool.control(
            PacketType.TOKEN, flow, seq, self.agent.host.node_id, flow.src, now
        )
        token.data_prio = self.agent.data_priority(flow)
        state.grant_time[seq] = now
        state.outstanding += 1
        self.tokens_granted += 1
        self._next_grant_time = now + self.config.token_interval
        self.agent.send_control(token)
        self._arm_reissue(state)

    # ------------------------------------------------------------------
    # Downgrading (§3.2) and token re-issue / loss recovery (§3.4)
    # ------------------------------------------------------------------
    def _downgrade(self, state: DestFlowState) -> None:
        now = self.env.now
        state.downgrade_until = now + self.config.downgrade_time
        state.outstanding = 0
        state.downgrades += 1
        self.env.schedule_timer(self.config.downgrade_time, self._downgrade_expired, state.flow.fid)

    def _downgrade_expired(self, fid: int) -> None:
        state = self.states.get(fid)
        if state is None or state.complete:
            return
        # "After the timeout period, the destination resends tokens to
        # the source for the packets that were not received."  Only
        # grants that demonstrably lapsed are re-queued; free-budget
        # packets are reclaimed by the slower reissue path.
        self._queue_regrants(
            state, state.expired_missing(self.env.now, self.config.retx_timeout)
        )
        if state.reissue_timer is None:
            self._skip_checks(state)
        state.last_progress = self.env.now
        self._maybe_start_timer()

    def _arm_reissue(self, state: DestFlowState) -> None:
        """Make sure a reissue check is pending (at flow creation and
        on every grant).  A flow whose checks stopped resumes them at
        the time the next would have run had they never stopped."""
        if state.reissue_timer is not None or state.complete:
            return
        self._skip_checks(state)
        state.reissue_timer = self.env.schedule_timer_at(
            state.reissue_next, self._reissue_check, state.flow.fid
        )

    def _reissue_check(self, fid: int) -> None:
        state = self.states.get(fid)
        if state is None or state.complete:
            return
        now = self.env.now
        idle_for = now - state.last_progress
        if idle_for + 1e-12 >= self.config.retx_timeout:
            # Tier 1: re-queue explicit grants whose tokens lapsed.
            missing = state.expired_missing(now, self.config.retx_timeout)
            if idle_for + 1e-12 >= self.config.free_reissue:
                # Tier 2: the flow has been silent so long that even the
                # expiry-less free-budget packets are presumed lost.
                missing |= state.missing()
            if missing:
                self._queue_regrants(state, missing)
                self._maybe_start_timer()
            wait = self.config.retx_timeout
        else:
            wait = self.config.retx_timeout - idle_for
        state.reissue_next = now + wait
        if state.next_new - state.n_received - len(state.regrant_set) > 0:
            state.reissue_timer = self.env.schedule_timer_at(
                state.reissue_next, self._reissue_check, fid
            )
        else:
            # Every granted packet is received or queued for re-grant,
            # so no check can find anything before the next grant.
            state.reissue_timer = None

    def _skip_checks(self, state: DestFlowState) -> None:
        """Advance ``reissue_next`` past the checks that would have run
        before now; each would have found nothing and only re-armed
        itself, by the rule in :meth:`_reissue_check`."""
        now = self.env.now
        when = state.reissue_next
        retx = self.config.retx_timeout
        while when < now:
            idle_for = when - state.last_progress
            when += retx if idle_for + 1e-12 >= retx else retx - idle_for
        state.reissue_next = when

    def _stale(self, state: DestFlowState) -> bool:
        return (self.env.now - state.last_progress) >= self.config.retx_timeout

    # ------------------------------------------------------------------
    @property
    def pending_flow_count(self) -> int:
        return len(self.states)
