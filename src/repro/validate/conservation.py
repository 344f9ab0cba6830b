"""Packet and byte conservation auditing.

Every data packet a source injects must end up in exactly one of four
places: delivered (counted once at its destination), dropped at a named
hop, discarded as a duplicate arrival, or still in flight when the run
ends.  The :class:`ConservationAuditor` maintains per-flow send/deliver
ledgers live — so a double-counted delivery or a phantom retransmission
is flagged at the offending event — and reconciles three ledgers at
finalize: the end-to-end packet ledger, the payload-byte ledger, and a
per-port ledger built from the counters every
:class:`repro.net.port.Port` keeps (packets entering a port must equal
packets transmitted + dropped + still queued + in serialization).

Memory is bounded by the flows still open, not by the packets already
sent.  An open flow's ledger is two ``bytearray(n_pkts)`` maps (sent,
delivered) with a count of the seqs set in each.  A flow that completes
with both counts at ``n_pkts`` is released to a set of closed fids: every
in-range seq of a closed flow was sent and delivered, so each later
question about one answers yes without a map.  A flow that completes
uncleanly keeps its maps.  Out-of-range seqs (already a violation) go to
a small per-flow overflow set, so every verdict and count matches full
per-flow seq sets for any event stream.  A fid names one flow for the
whole run; the workload layer numbers flows sequentially.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.net.packet import PacketType
from repro.sim.units import HEADER_BYTES
from repro.validate.base import Auditor

__all__ = ["ConservationAuditor"]


class _FlowLedger:
    """One open flow's live ledger: a byte per seq (sent, delivered)
    plus how many distinct seqs each map holds."""

    __slots__ = ("sent", "delivered", "n_sent", "n_delivered")

    def __init__(self, n_pkts: int) -> None:
        self.sent = bytearray(n_pkts)
        self.delivered = bytearray(n_pkts)
        self.n_sent = 0
        self.n_delivered = 0


class ConservationAuditor(Auditor):
    """Per-flow and per-port conservation ledgers, reconciled live."""

    name = "conservation"

    def __init__(self) -> None:
        super().__init__()
        self._declare(
            "unique-injection",
            "each (flow, seq) is injected first_time exactly once, in range",
        )
        self._declare(
            "delivery-once",
            "each (flow, seq) is counted delivered at most once",
        )
        self._declare(
            "delivery-accounted",
            "every delivery is of a packet that was sent, with the right payload",
        )
        self._declare(
            "completion",
            "a flow completes once, only after every packet was delivered",
        )
        self._declare(
            "drop-accounted",
            "every dropped data packet was previously sent",
        )
        self._declare(
            "fault-drop-accounted",
            "every injected-dropped data packet was previously sent",
        )
        self._declare(
            "end-ledger",
            "sent == delivered + duplicates + drops + fault drops + in-flight "
            "(residual >= 0)",
        )
        self._declare(
            "port-ledger",
            "per port: packets in == transmitted + dropped + queued + in-tx",
        )
        self._declare(
            "dataplane-stage-ledger",
            "per engine port: classified == admitted + dropped-incoming, "
            "admitted == scheduled + queued + evicted, drops match the port",
        )
        self._declare(
            "dataplane-mark-ledger",
            "per engine port: marking conserves packets (marked <= classified, "
            "independent of the drop columns)",
        )
        self._flows: Dict[int, object] = {}
        self._open: Dict[int, _FlowLedger] = {}
        self._closed: Set[int] = set()
        self._overflow: Dict[int, Set[int]] = {}
        self._completed: Set[int] = set()
        self._send_events = 0
        self._deliver_events = 0
        self._dup_events = 0
        self._data_drops = 0
        self._fault_data_drops = 0
        # The per-event hooks bump these directly (no method call).
        self._injection = self.checks["unique-injection"]
        self._once = self.checks["delivery-once"]
        self._accounted = self.checks["delivery-accounted"]

    # ------------------------------------------------------------------
    def bind(self, ctx) -> "ConservationAuditor":
        super().bind(ctx)
        self._tap_drops()
        self._tap_fault_drops()
        return self

    # ------------------------------------------------------------------
    # Live event checks
    # ------------------------------------------------------------------
    def flow_arrived(self, flow, now: float) -> None:
        if flow.fid in self._flows and flow.fid not in self._completed:
            self._violate(
                "unique-injection",
                f"flow {flow.fid} arrived twice",
                fid=flow.fid,
            )
        self._flows[flow.fid] = flow

    def data_sent(self, pkt, first_time: bool) -> None:
        self._send_events += 1
        self._injection.checked += 1
        flow = pkt.flow
        fid = flow.fid
        seq = pkt.seq
        if not 0 <= seq < flow.n_pkts:
            self._violate(
                "unique-injection",
                f"flow {fid} sent out-of-range seq {seq}",
                fid=fid, seq=seq, n_pkts=flow.n_pkts,
            )
            return
        ledger = self._open.get(fid)
        if ledger is None:
            if fid in self._closed:
                was_sent = True
            else:
                ledger = self._open[fid] = _FlowLedger(flow.n_pkts)
                was_sent = False
        else:
            was_sent = ledger.sent[seq]
        if first_time and was_sent:
            self._violate(
                "unique-injection",
                f"flow {fid} seq {seq} injected as first-time twice",
                fid=fid, seq=seq,
            )
        elif not first_time and not was_sent:
            self._violate(
                "unique-injection",
                f"flow {fid} seq {seq} retransmitted before any injection",
                fid=fid, seq=seq,
            )
        if not was_sent:
            ledger.sent[seq] = 1
            ledger.n_sent += 1

    def data_delivered(self, pkt) -> None:
        self._deliver_events += 1
        self._once.checked += 1
        self._accounted.checked += 1
        flow = pkt.flow
        fid = flow.fid
        seq = pkt.seq
        in_range = 0 <= seq < flow.n_pkts
        if in_range:
            ledger = self._open.get(fid)
            if ledger is None:
                if fid in self._closed:
                    was_delivered = was_sent = True
                else:
                    ledger = self._open[fid] = _FlowLedger(flow.n_pkts)
                    was_delivered = was_sent = False
            else:
                was_delivered = ledger.delivered[seq]
                was_sent = ledger.sent[seq]
        else:
            overflow = self._overflow.setdefault(fid, set())
            was_delivered = seq in overflow
            was_sent = False  # out-of-range seqs are never ledgered as sent
        if was_delivered:
            self._violate(
                "delivery-once",
                f"flow {fid} seq {seq} counted delivered twice",
                fid=fid, seq=seq,
            )
            return
        if not was_sent:
            self._violate(
                "delivery-accounted",
                f"flow {fid} seq {seq} delivered but never sent",
                fid=fid, seq=seq,
            )
        expected = flow.payload_of(seq) if in_range else -1
        payload = max(pkt.size - HEADER_BYTES, 0)
        if payload != expected:
            self._violate(
                "delivery-accounted",
                f"flow {fid} seq {seq} delivered {payload}B, expected {expected}B",
                fid=fid, seq=seq, payload=payload, expected=expected,
            )
        if in_range:
            ledger.delivered[seq] = 1
            ledger.n_delivered += 1
        else:
            overflow.add(seq)

    def data_duplicate(self, pkt) -> None:
        self._dup_events += 1
        self._once.checked += 1
        if not self._was_delivered(pkt.flow, pkt.seq):
            self._violate(
                "delivery-once",
                f"flow {pkt.flow.fid} seq {pkt.seq} discarded as duplicate "
                "but was never delivered",
                fid=pkt.flow.fid, seq=pkt.seq,
            )

    def flow_completed(self, flow, now: float) -> None:
        self._checked("completion")
        fid = flow.fid
        if fid in self._completed:
            self._violate(
                "completion",
                f"flow {fid} completed twice",
                fid=fid,
            )
            return
        self._completed.add(fid)
        ledger = self._open.get(fid)
        n_sent = n_delivered = 0
        if ledger is not None:
            n_sent, n_delivered = ledger.n_sent, ledger.n_delivered
        delivered = n_delivered + len(self._overflow.get(fid, ()))
        if delivered != flow.n_pkts:
            self._violate(
                "completion",
                f"flow {fid} completed with {delivered}/{flow.n_pkts} "
                "packets delivered",
                fid=fid, delivered=delivered, n_pkts=flow.n_pkts,
            )
        if n_sent == n_delivered == flow.n_pkts:
            # Every in-range seq was sent and delivered: from here on the
            # answer to "was it?" is always yes, so the maps can go.
            self._open.pop(fid, None)
            self._closed.add(fid)

    def on_drop(self, pkt, hop_index: int) -> None:
        if pkt.ptype != PacketType.DATA:
            return
        if pkt.seq < 0:  # pFabric probes: header-only, never ledgered as sent
            return
        self._data_drops += 1
        self.checks["drop-accounted"].checked += 1
        if not self._was_sent(pkt.flow, pkt.seq):
            fid = pkt.flow.fid if pkt.flow is not None else None
            self._violate(
                "drop-accounted",
                f"dropped data packet (flow {fid}, seq {pkt.seq}) was never sent",
                fid=fid, seq=pkt.seq, hop=hop_index,
            )

    def on_fault_drop(self, pkt, hop_index: int) -> None:
        """Injected (fault-layer) drop: same sent-before check, but a
        separate ledger column so fault plans do not disturb the
        congestion-drop accounting."""
        if pkt.ptype != PacketType.DATA:
            return
        if pkt.seq < 0:  # pFabric probes: header-only, never ledgered as sent
            return
        self._fault_data_drops += 1
        self.checks["fault-drop-accounted"].checked += 1
        if not self._was_sent(pkt.flow, pkt.seq):
            fid = pkt.flow.fid if pkt.flow is not None else None
            self._violate(
                "fault-drop-accounted",
                f"injected-dropped data packet (flow {fid}, seq {pkt.seq}) "
                "was never sent",
                fid=fid, seq=pkt.seq, hop=hop_index,
            )

    # ------------------------------------------------------------------
    def _was_sent(self, flow, seq: int) -> bool:
        if flow is None or not 0 <= seq < flow.n_pkts:
            return False
        ledger = self._open.get(flow.fid)
        if ledger is None:
            return flow.fid in self._closed
        return bool(ledger.sent[seq])

    def _was_delivered(self, flow, seq: int) -> bool:
        if not 0 <= seq < flow.n_pkts:
            return seq in self._overflow.get(flow.fid, ())
        ledger = self._open.get(flow.fid)
        if ledger is None:
            return flow.fid in self._closed
        return bool(ledger.delivered[seq])

    # ------------------------------------------------------------------
    # End-of-run ledger reconciliation
    # ------------------------------------------------------------------
    def finalize(self, ctx) -> None:
        self._checked("end-ledger")
        residual = (
            self._send_events - self._deliver_events - self._dup_events
            - self._data_drops - self._fault_data_drops
        )
        if residual < 0:
            self._violate(
                "end-ledger",
                f"packet ledger negative: sent={self._send_events} < delivered="
                f"{self._deliver_events} + duplicates={self._dup_events} "
                f"+ drops={self._data_drops} + fault_drops={self._fault_data_drops}",
                sent=self._send_events,
                delivered=self._deliver_events,
                duplicates=self._dup_events,
                drops=self._data_drops,
                fault_drops=self._fault_data_drops,
            )
        if self._fault_data_drops:
            self.context["fault_data_drops"] = self._fault_data_drops
            reasons = getattr(ctx.fabric, "fault_drops_by_reason", None)
            if reasons:
                self.context["fault_drops_by_reason"] = dict(sorted(reasons.items()))
        collector = ctx.collector
        expected_bytes = sum(
            self._flows[fid].size_bytes for fid in self._completed if fid in self._flows
        )
        if collector.payload_bytes_delivered != expected_bytes:
            self._violate(
                "end-ledger",
                f"byte ledger mismatch: collector says "
                f"{collector.payload_bytes_delivered}B delivered, completed flows "
                f"sum to {expected_bytes}B",
                collector_bytes=collector.payload_bytes_delivered,
                completed_bytes=expected_bytes,
            )
        for port in ctx.fabric.all_ports():
            self._checked("port-ledger")
            entered = port.pkts_enqueued + port.pkts_pulled
            exited = (
                port.pkts_sent
                + port.pkts_dropped
                + len(port.queue)
                + (1 if port.busy else 0)
            )
            if entered != exited:
                self._violate(
                    "port-ledger",
                    f"port {port.name}: {entered} packets in but {exited} accounted "
                    f"(sent={port.pkts_sent}, dropped={port.pkts_dropped}, "
                    f"queued={len(port.queue)}, in_tx={int(port.busy)})",
                    port=port.name, entered=entered, exited=exited,
                )
        self._reconcile_stage_ledgers(ctx)
        self._record_high_water(ctx)

    def _reconcile_stage_ledgers(self, ctx) -> None:
        """Audit the per-stage pipeline ledgers of the engine's ports.

        The checks fire for every port backed by a
        :class:`repro.dataplane.ProgramQueue` — discovered by the
        ``state`` attribute; a hand-written queue has none.  Marking is audited separately from the
        drop columns: a marked packet is *not* a dropped packet, and
        both ledgers must conserve on their own (fault-layer drops
        happen on the link after the port, so they never appear here).
        """
        totals: Dict[str, int] = {}
        engine_ports = 0
        for port in ctx.fabric.all_ports():
            state = getattr(port.queue, "state", None)
            if state is None:
                continue
            engine_ports += 1
            self._checked("dataplane-stage-ledger")
            self._checked("dataplane-mark-ledger")
            queued = len(port.queue)
            if state.classified != state.admitted + state.dropped_incoming:
                self._violate(
                    "dataplane-stage-ledger",
                    f"port {port.name}: classified={state.classified} != "
                    f"admitted={state.admitted} + "
                    f"dropped_incoming={state.dropped_incoming}",
                    port=port.name, **state.to_dict(),
                )
            if state.admitted != state.scheduled + queued + state.evicted:
                self._violate(
                    "dataplane-stage-ledger",
                    f"port {port.name}: admitted={state.admitted} != "
                    f"scheduled={state.scheduled} + queued={queued} + "
                    f"evicted={state.evicted}",
                    port=port.name, queued=queued, **state.to_dict(),
                )
            if state.dropped_incoming + state.evicted != port.pkts_dropped:
                self._violate(
                    "dataplane-stage-ledger",
                    f"port {port.name}: pipeline drops "
                    f"{state.dropped_incoming} + {state.evicted} != port "
                    f"pkts_dropped={port.pkts_dropped}",
                    port=port.name, pkts_dropped=port.pkts_dropped,
                    **state.to_dict(),
                )
            if state.classified != port.pkts_enqueued:
                self._violate(
                    "dataplane-stage-ledger",
                    f"port {port.name}: classified={state.classified} != port "
                    f"pkts_enqueued={port.pkts_enqueued}",
                    port=port.name, pkts_enqueued=port.pkts_enqueued,
                    **state.to_dict(),
                )
            if state.marked > state.classified:
                self._violate(
                    "dataplane-mark-ledger",
                    f"port {port.name}: marked={state.marked} > "
                    f"classified={state.classified}",
                    port=port.name, **state.to_dict(),
                )
            for key, value in state.to_dict().items():
                totals[key] = totals.get(key, 0) + value
        if engine_ports:
            self.context["dataplane_ports"] = engine_ports
            self.context["dataplane_totals"] = totals
            binding = getattr(ctx, "dataplane", None)
            if binding is not None:
                self.context["dataplane_programs"] = binding.names

    def _record_high_water(self, ctx) -> None:
        """Surface queue high-water marks through AuditReport.context.

        Not an invariant — occupancy peaks are legitimate — but the
        single most useful fact when a port ledger *does* break, and
        the paper's Fig. 9 incast analysis hinges on it.
        """
        peak_bytes_port = None
        peak_pkts_port = None
        by_hop: Dict[int, int] = {}
        for port in ctx.fabric.all_ports():
            if peak_bytes_port is None or port.max_qlen_bytes > peak_bytes_port.max_qlen_bytes:
                peak_bytes_port = port
            if peak_pkts_port is None or port.max_qlen_pkts > peak_pkts_port.max_qlen_pkts:
                peak_pkts_port = port
            hop = port.hop_index
            if port.max_qlen_bytes > by_hop.get(hop, 0):
                by_hop[hop] = port.max_qlen_bytes
        if peak_bytes_port is None:
            return
        self.context["max_qlen_bytes"] = peak_bytes_port.max_qlen_bytes
        self.context["max_qlen_bytes_port"] = peak_bytes_port.name
        self.context["max_qlen_pkts"] = peak_pkts_port.max_qlen_pkts
        self.context["max_qlen_pkts_port"] = peak_pkts_port.name
        self.context["max_qlen_bytes_by_hop"] = dict(sorted(by_hop.items()))
