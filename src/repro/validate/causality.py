"""Causality auditing: clock monotonicity and flow state-machine legality.

A discrete-event simulation is only trustworthy if time never runs
backwards and every event respects the lifecycle of the objects it
touches.  The :class:`CausalityAuditor` polices three things:

* **no-past-event** — via :meth:`repro.sim.engine.EventLoop.set_clock_watcher`,
  it is told whenever the loop is about to execute an event stamped
  *earlier* than the current clock.  ``schedule_at`` refuses past times,
  so this only fires if something smuggled an entry into the heap behind
  the scheduler's back;
* **monotone-clock** — the clock observed across collector events never
  decreases (a cheap end-to-end restatement of the same property at the
  metrics layer);
* **flow-lifecycle** — flows move ``arrived -> (data flows) -> completed``:
  no data is sent or delivered for a flow that has not arrived, no flow
  completes before it arrived, and no source sends a packet after it
  has seen the ACK covering it.  Completion is declared at the
  *destination*, so a source that retransmits while the completing ACK
  is still in flight (or was lost) is the protocol working as designed;
  those sends are tallied as ``post_completion_retransmits`` context.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.net.packet import PacketType
from repro.validate.base import Auditor

__all__ = ["CausalityAuditor"]


class CausalityAuditor(Auditor):
    """Monotone clock, no past-scheduled events, legal flow lifecycles."""

    name = "causality"

    def __init__(self) -> None:
        super().__init__()
        self._declare(
            "no-past-event",
            "the event loop never executes an event stamped before the clock",
        )
        self._declare(
            "monotone-clock",
            "simulated time observed across events never decreases",
        )
        self._declare(
            "flow-lifecycle",
            "flows follow arrived -> data -> completed; no events outside that",
        )
        self._arrived: Set[int] = set()
        self._completed: Set[int] = set()
        # (fid, ack seq) of ACKs delivered to the source of a flow the
        # destination has already completed.
        self._acks_at_source: Set[Tuple[int, int]] = set()
        self._last_time = float("-inf")
        self._post_completion_rtx = 0

    # ------------------------------------------------------------------
    def bind(self, ctx) -> "CausalityAuditor":
        super().bind(ctx)
        ctx.env.set_clock_watcher(self._on_clock_regression)
        for host in ctx.fabric.hosts:
            if host.agent is not None:
                self._tap_acks(host.agent)
        return self

    def _tap_acks(self, agent) -> None:
        """Observe ACK delivery at a host's agent (the only place the
        source side of a completion is visible)."""
        deliver = agent.on_packet

        def on_packet(pkt) -> None:
            if pkt.ptype == PacketType.ACK and pkt.flow.fid in self._completed:
                self._acks_at_source.add((pkt.flow.fid, pkt.seq))
            deliver(pkt)

        agent.on_packet = on_packet

    def _on_clock_regression(self, now: float, when: float) -> None:
        self._violate(
            "no-past-event",
            f"event stamped t={when:.9f} executed while clock was t={now:.9f}",
            scheduled=when, clock=now,
        )

    def _observe_time(self) -> None:
        self._checked("monotone-clock")
        now = self.ctx.env.now
        if now < self._last_time:
            self._violate(
                "monotone-clock",
                f"clock went backwards: {now:.9f} after {self._last_time:.9f}",
                now=now, previous=self._last_time,
            )
        else:
            self._last_time = now

    # ------------------------------------------------------------------
    # Live event checks
    # ------------------------------------------------------------------
    def flow_arrived(self, flow, now: float) -> None:
        self._observe_time()
        self._arrived.add(flow.fid)

    def data_sent(self, pkt, first_time: bool) -> None:
        self._observe_time()
        self._check_data_legal(pkt, "sent")

    def data_delivered(self, pkt) -> None:
        self._observe_time()
        self._check_data_legal(pkt, "delivered")

    def data_duplicate(self, pkt) -> None:
        self._observe_time()

    def control_sent(self, pkt) -> None:
        self._observe_time()

    def _check_data_legal(self, pkt, verb: str) -> None:
        self._checked("flow-lifecycle")
        fid = pkt.flow.fid
        if fid not in self._arrived:
            self._violate(
                "flow-lifecycle",
                f"data {verb} for flow {fid} before it arrived",
                fid=fid, seq=pkt.seq,
            )
        elif verb == "sent" and fid in self._completed:
            # Completion is declared at the destination.  Until the ACK
            # naming this packet (per-packet ACKs) or the whole flow
            # (seq == n_pkts) reaches the source — it may be in flight,
            # dropped, or lost to the fault layer — a retransmission is
            # recovery working as designed: tally, don't violate.
            acks = self._acks_at_source
            if (fid, pkt.seq) in acks or (fid, pkt.flow.n_pkts) in acks:
                self._violate(
                    "flow-lifecycle",
                    f"data sent for flow {fid} after its source saw the ACK",
                    fid=fid, seq=pkt.seq,
                )
            else:
                self._post_completion_rtx += 1

    def flow_completed(self, flow, now: float) -> None:
        self._observe_time()
        self._checked("flow-lifecycle")
        if flow.fid not in self._arrived:
            self._violate(
                "flow-lifecycle",
                f"flow {flow.fid} completed without ever arriving",
                fid=flow.fid,
            )
        elif now < flow.arrival:
            self._violate(
                "flow-lifecycle",
                f"flow {flow.fid} completed at t={now:.9f} before its arrival "
                f"at t={flow.arrival:.9f}",
                fid=flow.fid, finish=now, arrival=flow.arrival,
            )
        self._completed.add(flow.fid)

    # ------------------------------------------------------------------
    def finalize(self, ctx) -> None:
        # Every executed event passed through the loop's regression check.
        self.checks["no-past-event"].checked = ctx.env.events_processed
        if self._post_completion_rtx:
            self.context["post_completion_retransmits"] = self._post_completion_rtx
