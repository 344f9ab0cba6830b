"""In-simulation metrics collection.

One :class:`MetricsCollector` per run.  Transport agents report events
through it (flow completed, data packet injected/delivered, control
packet sent, retransmission); the fabric reports drops directly into its
own counters, which the experiment result merges with these.

The collector also tracks the cumulative counters that the Figure 7
stability analysis samples: packets *arrived* (offered by the workload)
versus packets *injected* (transmitted at least once by a source).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.net.packet import Flow, Packet
from repro.sim.units import HEADER_BYTES

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """Counters and completion recording for one simulation run."""

    def __init__(self) -> None:
        self.flows: Dict[int, Flow] = {}
        self.completed_flows: List[Flow] = []
        # Data-plane counters
        self.data_pkts_injected = 0        # unique first transmissions at sources
        self.data_pkts_retransmitted = 0
        self.data_pkts_delivered = 0       # packets accepted at destinations (deduped)
        self.data_pkts_duplicate = 0       # arrivals discarded as already-received
        self.payload_bytes_delivered = 0
        self.delivered_bytes_by_tenant: Dict[int, int] = {}
        self.control_pkts_sent = 0
        self.control_bytes_sent = 0
        # Job (coflow) bookkeeping: flows sharing a request_id form a
        # job; these count members per job so live gauges can report
        # how many jobs are open vs fully drained (the post-hoc JCT
        # analysis lives in repro.metrics.jobs).
        self.job_flows_seen: Dict[int, int] = {}
        self.job_flows_done: Dict[int, int] = {}
        # Workload counters (for stability analysis)
        self.pkts_arrived = 0              # sum of n_pkts over arrived flows
        self.total_pkts_offered = 0        # set by the runner up front
        self.expected_flows: Optional[int] = None  # set by the runner up front
        # Time bounds of the data plane (throughput window)
        self.first_arrival: Optional[float] = None
        self.last_completion: Optional[float] = None
        # Optional hook fired on each completion (incast driver uses it)
        self.on_complete: Optional[Callable[[Flow, float], None]] = None
        # Event observers (see repro.validate / repro.obs); each must
        # expose flow_arrived/flow_completed/data_sent/data_delivered/
        # data_duplicate/control_sent.  ``add_observer`` is the
        # attachment point — observers stack, so the auditors and a
        # Chrome trace sink coexist on one run.
        self._observers: List = []

    def add_observer(self, observer) -> None:
        """Register an event observer (auditors and sinks stack)."""
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # Flow lifecycle
    # ------------------------------------------------------------------
    def flow_arrived(self, flow: Flow, now: float) -> None:
        self.flows[flow.fid] = flow
        self.pkts_arrived += flow.n_pkts
        if flow.request_id is not None:
            rid = flow.request_id
            self.job_flows_seen[rid] = self.job_flows_seen.get(rid, 0) + 1
        if self.first_arrival is None or now < self.first_arrival:
            self.first_arrival = now
        for obs in self._observers:
            obs.flow_arrived(flow, now)

    def flow_completed(self, flow: Flow, now: float) -> None:
        if flow.finish is not None:
            return  # idempotent: duplicate ACK paths must not double count
        flow.finish = now
        self.completed_flows.append(flow)
        self.payload_bytes_delivered += flow.size_bytes
        if flow.request_id is not None:
            rid = flow.request_id
            self.job_flows_done[rid] = self.job_flows_done.get(rid, 0) + 1
        if self.last_completion is None or now > self.last_completion:
            self.last_completion = now
        for obs in self._observers:
            obs.flow_completed(flow, now)
        if self.on_complete is not None:
            self.on_complete(flow, now)

    # ------------------------------------------------------------------
    # Packet events
    # ------------------------------------------------------------------
    def data_sent(self, pkt: Packet, first_time: bool) -> None:
        if first_time:
            self.data_pkts_injected += 1
        else:
            self.data_pkts_retransmitted += 1
        if self._observers:
            for obs in self._observers:
                obs.data_sent(pkt, first_time)

    def data_delivered(self, pkt: Packet) -> None:
        self.data_pkts_delivered += 1
        if pkt.flow is not None:
            tenant = pkt.flow.tenant
            payload = max(pkt.size - HEADER_BYTES, 0)
            self.delivered_bytes_by_tenant[tenant] = (
                self.delivered_bytes_by_tenant.get(tenant, 0) + payload
            )
        if self._observers:
            for obs in self._observers:
                obs.data_delivered(pkt)

    def data_duplicate(self, pkt: Packet) -> None:
        """A destination discarded an already-received data packet."""
        self.data_pkts_duplicate += 1
        if self._observers:
            for obs in self._observers:
                obs.data_duplicate(pkt)

    def control_sent(self, pkt: Packet) -> None:
        self.control_pkts_sent += 1
        self.control_bytes_sent += pkt.size
        if self._observers:
            for obs in self._observers:
                obs.control_sent(pkt)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def n_flows(self) -> int:
        return len(self.flows)

    @property
    def n_completed(self) -> int:
        return len(self.completed_flows)

    @property
    def all_complete(self) -> bool:
        """True once every expected flow has completed.

        ``expected_flows`` must be set by the driver; before any flow
        arrives (or when unset) this is False — arrived-so-far counts
        would otherwise declare victory after the first completion.
        """
        total = self.expected_flows if self.expected_flows is not None else None
        if total is None:
            return False
        return self.n_completed >= total > 0

    @property
    def n_jobs_seen(self) -> int:
        """Distinct jobs (request_id groups) with at least one arrival."""
        return len(self.job_flows_seen)

    @property
    def n_jobs_drained(self) -> int:
        """Jobs whose every *arrived* member has completed.

        A live gauge: a job with members still to arrive can flicker
        back to open; the authoritative post-hoc answer is
        ``repro.metrics.jobs.job_records``.
        """
        return sum(
            1
            for rid, seen in self.job_flows_seen.items()
            if self.job_flows_done.get(rid, 0) >= seen
        )

    @property
    def pkts_pending(self) -> int:
        """Arrived-but-not-yet-injected packets (Fig. 7's y-axis)."""
        return max(self.pkts_arrived - self.data_pkts_injected, 0)

    def duration(self) -> float:
        if self.first_arrival is None or self.last_completion is None:
            return 0.0
        return max(self.last_completion - self.first_arrival, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MetricsCollector(flows={self.n_flows}, done={self.n_completed}, "
            f"injected={self.data_pkts_injected}, delivered={self.data_pkts_delivered})"
        )
