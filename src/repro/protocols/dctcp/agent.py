"""DCTCP endpoint.

The first transport landed *after* the dataplane refactor, and the
proof that new protocol columns need only the two public registries:

* the switch side is :class:`repro.dataplane.DctcpEcnProgram` — the
  commodity pipeline plus ECN threshold marking — selected by name in
  this module's :class:`~repro.protocols.base.ProtocolSpec`
  (``switch_dataplane="dctcp"``); nothing inside ``repro.net`` or other
  protocols' packages changes;
* the endpoint below is the shared window sender
  (:class:`~repro.protocols.window.WindowAgent`) with DCTCP's
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

from math import ceil

from repro.net.packet import Flow, Packet
from repro.protocols.base import ProtocolSpec
from repro.protocols.dctcp.config import DCTCPConfig
from repro.protocols.window import WindowAgent, WindowFlow

__all__ = ["DCTCPAgent", "DCTCP_SPEC"]


class _SrcFlow(WindowFlow):
    """Window state plus DCTCP's estimator.  ``window`` is
    ``int(cwnd)``, kept in step wherever ``cwnd`` changes."""

    __slots__ = ("cwnd", "alpha", "window_acks", "window_marks")

    def __init__(self, flow: Flow, config: DCTCPConfig) -> None:
        super().__init__(flow, config.init_cwnd)
        self.cwnd = float(config.init_cwnd)
        self.alpha = config.init_alpha
        self.window_acks = 0   # ACKs seen in the current observation window
        self.window_marks = 0  # of which carried the echoed CE bit


class DCTCPAgent(WindowAgent):
    """DCTCP endpoint for one host (source + receiver roles)."""

    label = "DCTCP"
    FlowState = _SrcFlow

    def __init__(self, host, ctx) -> None:
        super().__init__(host, ctx)
        self.rto_backoff = self.config.rto_backoff

    def register_instruments(self, registry) -> None:
        """Estimator and window state as pull-based gauges."""
        super().register_instruments(registry)
        host = f"h{self.host.node_id}"
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

    def on_new_ack(self, state: _SrcFlow, pkt: Packet) -> None:
        self._update_estimator(state, pkt.ecn != 0)
        WindowAgent.on_new_ack(self, state, pkt)

    def on_timeout(self, state: _SrcFlow) -> bool:
        # TCP-style collapse; alpha is preserved (the estimator outlives
        # the loss event) and the observation window restarts.
        state.cwnd = float(self.config.min_cwnd)
        state.window = int(state.cwnd)
        state.window_acks = 0
        state.window_marks = 0
        return False

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
        state.window = int(state.cwnd)
        state.window_acks = 0
        state.window_marks = 0


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
