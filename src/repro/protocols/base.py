"""Transport-agent interface and protocol wiring description.

Each host runs one :class:`TransportAgent` that plays *both* roles —
source for the host's outgoing flows and destination for incoming ones
(the default traffic matrix is all-to-all, so every host does both).

A :class:`ProtocolSpec` tells the experiment runner how to assemble a
protocol: which dataplane program switches and NICs run, how to build the
shared context (Fastpass's arbiter), and how to build per-host agents.
All three factories receive the run's :class:`~repro.sim.context.SimContext`
(``config_factory(ctx)``, ``shared_factory(ctx)``,
``agent_factory(host, ctx)``), so adding a run-wide capability never
widens factory signatures again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.net.node import Host
from repro.net.packet import Flow, Packet
from repro.sim.context import SimContext

__all__ = ["TransportAgent", "ProtocolSpec"]


class TransportAgent:
    """Per-host protocol endpoint.

    Subclasses implement :meth:`start_flow` (source side, called when a
    flow arrives at this host), :meth:`on_packet` (anything delivered to
    this host) and optionally :meth:`nic_pull` (give the NIC the next
    data packet when it goes idle — the receiver-driven transports use
    this; push-based pFabric does not override it).

    The agent stores the run's :class:`~repro.sim.context.SimContext` as
    ``self.ctx``; ``env`` / ``fabric`` / ``collector`` / ``config`` /
    ``shared`` are bound as plain attributes at construction so agent
    bodies stay readable and hot paths avoid a double indirection.
    """

    def __init__(self, host: Host, ctx: SimContext) -> None:
        self.host = host
        self.ctx = ctx
        self.env = ctx.env
        self.fabric = ctx.fabric
        self.collector = ctx.collector
        self.config = ctx.config
        self.shared = ctx.shared
        # The run's packet freelist (stable object; only .enabled flips).
        self.pool = ctx.pool

    # -- source side ----------------------------------------------------
    def start_flow(self, flow: Flow) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- receive side ---------------------------------------------------
    def on_packet(self, pkt: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- observability ----------------------------------------------------
    def register_instruments(self, registry) -> None:
        """Publish protocol state as gauges on the run's
        :class:`~repro.obs.registry.InstrumentRegistry`.

        Called per host by :func:`repro.obs.register_run_instruments`
        when telemetry is enabled.  The default registers nothing;
        subclasses add pull-based gauges (evaluated only at snapshot
        time, so registration never perturbs the simulation).
        """

    # -- NIC integration --------------------------------------------------
    # Subclasses using the pull path assign a callable; the Host install
    # hook looks this attribute up.  None means push-only.
    nic_pull: Optional[Callable[[], Optional[Packet]]] = None


AgentFactory = Callable[[Host, SimContext], TransportAgent]
SharedFactory = Callable[[SimContext], Any]
ConfigFactory = Callable[[SimContext], Any]


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the runner needs to instantiate a protocol.

    The factories run in order against a partially-built context:
    ``config_factory(ctx)`` sees the substrate (env/rng/fabric/collector),
    ``shared_factory(ctx)`` additionally sees ``ctx.config``, and
    ``agent_factory(host, ctx)`` sees the fully-populated context.

    Switch behaviour is named, not hardcoded: ``switch_dataplane`` /
    ``host_dataplane`` select :class:`repro.dataplane.DataplaneProgram`
    entries from the dataplane registry (the built-ins declare
    "commodity" or "pfabric"; DCTCP declares "dctcp").  An
    ``ExperimentSpec.dataplane`` override replaces both.  Queues reach
    ports only through these programs.
    """

    name: str
    agent_factory: AgentFactory
    config_factory: ConfigFactory
    shared_factory: Optional[SharedFactory] = None
    switch_dataplane: str = "commodity"
    host_dataplane: str = "commodity"

    def build_config(self, ctx: SimContext) -> Any:
        return self.config_factory(ctx)

    def build_shared(self, ctx: SimContext) -> Any:
        if self.shared_factory is None:
            return None
        return self.shared_factory(ctx)

    def install_agents(self, ctx: SimContext) -> None:
        """Construct one agent per host and install it on its NIC."""
        for host in ctx.fabric.hosts:
            host.install_agent(self.agent_factory(host, ctx))
