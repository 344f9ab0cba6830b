"""pFabric endpoint.

The transport half is deliberately simple — the clever part of pFabric
lives in :class:`repro.dataplane.PFabricProgram` (priority drop and
starvation-avoidance dequeue), which this agent relies on at every hop
*including its own NIC*.  The endpoint is a
:class:`~repro.protocols.window.WindowAgent` that:

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

from repro.net.packet import Flow, Packet
from repro.protocols.base import ProtocolSpec
from repro.protocols.pfabric.config import PFabricConfig
from repro.protocols.window import DATA_BAND, WindowAgent, WindowFlow

__all__ = ["PFabricAgent", "PFABRIC_SPEC"]

#: Sequence number used by probe packets (never a real data seq).  As
#: an index it would read a seq map's last slot, so every probe test
#: comes before the map is touched.
PROBE_SEQ = -1


class _SrcFlow(WindowFlow):
    """Window state plus probe mode: the RTOs in a row since the last
    ACK, and whether the flow is probing."""

    __slots__ = ("consecutive_timeouts", "probing")

    def __init__(self, flow: Flow, config: PFabricConfig) -> None:
        super().__init__(flow, config.init_cwnd)
        self.consecutive_timeouts = 0
        self.probing = False


class PFabricAgent(WindowAgent):
    """pFabric endpoint for one host (source + receiver roles)."""

    label = "pFabric"
    FlowState = _SrcFlow
    STAMP_REMAINING = True

    def __init__(self, host, ctx) -> None:
        super().__init__(host, ctx)
        self.rto_backoff = self.config.min_rto_backoff

    def on_timeout(self, state: _SrcFlow) -> bool:
        state.consecutive_timeouts += 1
        threshold = self.config.probe_after_timeouts
        if threshold and state.consecutive_timeouts >= threshold:
            # Probe mode (pFabric §4.3): stop blasting windows of
            # retransmissions; one tiny probe per RTO until the path
            # answers again.
            state.probing = True
            flow = state.flow
            probe = self.pool.data(
                flow, PROBE_SEQ, flow.src, flow.dst, 40, DATA_BAND, self.env.now  # header-only
            )
            probe.remaining = state.remaining()
            self.host.send(probe)
            self._arm_rto(state)
            return True
        return False

    def _on_ack(self, pkt: Packet) -> None:
        state = self.src_flows.get(pkt.flow.fid)
        if state is not None:
            state.consecutive_timeouts = 0
            if pkt.seq == PROBE_SEQ:
                # The path is alive again: leave probe mode and resume
                # with a fresh round of retransmissions.
                if state.probing:
                    state.probing = False
                    state.requeue_outstanding()
                    state.in_flight = 0
                    state.rto_scale = 1.0
                    self._pump(state)
                    self._arm_rto(state)
                return
            if not state.acked[pkt.seq]:
                state.probing = False  # any new data ACK proves the path is alive
        WindowAgent._on_ack(self, pkt)


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
