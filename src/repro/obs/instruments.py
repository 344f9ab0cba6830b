"""Standard instrument registration for a simulation run.

:func:`register_run_instruments` walks a bound
:class:`~repro.sim.context.SimContext` and registers the canonical
gauge set against its registry:

* collector gauges — ``flows.active``, ``flows.completed``, data-plane
  packet counters, ``pkts.pending`` (the Fig. 7 backlog signal);
* per-port gauges — ``port.qlen_bytes{hop=,port=}``,
  ``port.qlen_pkts{...}`` and the high-water marks;
* per-link utilization — ``link.util{hop=,port=}``, a rate gauge over
  ``bytes_sent`` deltas between consecutive snapshots;
* per-hop drop totals — ``fabric.drops{hop=}``;
* dataplane stage ledgers — run-level ``dataplane.<stage>`` totals over
  every :class:`~repro.dataplane.ProgramQueue` port (classified /
  marked / admitted / dropped_incoming / evicted / scheduled), plus
  per-port ``dataplane.marked{hop=,port=}`` when port sampling is on,
  for the ports whose program has a meter stage (only those can mark);
* protocol instruments — each agent's :meth:`register_instruments`
  (a no-op on the base class) plus shared state such as the Fastpass
  arbiter, both duck-typed so this module never imports protocols.

Everything here is a pull-based :class:`~repro.obs.registry.Gauge`:
registration costs one dict insert, and nothing is evaluated until a
sampler snapshots the registry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import Port
    from repro.obs.config import ObservabilityConfig
    from repro.obs.registry import InstrumentRegistry
    from repro.sim.context import SimContext

__all__ = ["register_run_instruments"]


def register_run_instruments(
    ctx: "SimContext", config: Optional["ObservabilityConfig"] = None
) -> "InstrumentRegistry":
    """Register the standard gauge set for ``ctx`` on ``ctx.obs``."""
    from repro.obs.config import ObservabilityConfig

    if config is None:
        config = ObservabilityConfig()
    registry = ctx.obs
    _register_collector(registry, ctx.collector)
    if config.sample_ports or config.sample_links:
        for port in ctx.fabric.all_ports():
            if config.sample_ports:
                _register_port(registry, port)
            if config.sample_links:
                _register_link_util(registry, ctx, port)
    for hop in sorted(ctx.fabric.drops_by_hop):
        registry.gauge(
            "fabric.drops",
            lambda h=hop: ctx.fabric.drops_by_hop.get(h, 0),
            hop=hop,
        )
    _register_dataplane(registry, ctx, sample_ports=config.sample_ports)
    if ctx.faults is not None:
        _register_faults(registry, ctx)
    if config.sample_protocols:
        for host in ctx.fabric.hosts:
            agent = host.agent
            register = getattr(agent, "register_instruments", None)
            if register is not None:
                register(registry)
        shared_register = getattr(ctx.shared, "register_instruments", None)
        if shared_register is not None:
            shared_register(registry)
    return registry


def _register_dataplane(
    registry: "InstrumentRegistry", ctx: "SimContext", *, sample_ports: bool
) -> None:
    """Stage-ledger gauges for :class:`ProgramQueue` ports; a no-op for
    a fabric of hand-written queues."""
    engine_ports = [
        port
        for port in ctx.fabric.all_ports()
        if getattr(port.queue, "state", None) is not None
    ]
    if not engine_ports:
        return
    states = [port.queue.state for port in engine_ports]
    for stage in (
        "classified",
        "marked",
        "admitted",
        "dropped_incoming",
        "evicted",
        "scheduled",
    ):
        registry.gauge(
            f"dataplane.{stage}",
            lambda s=stage: sum(getattr(st, s) for st in states),
        )
    if sample_ports:
        for port in engine_ports:
            if getattr(port.queue, "meter", None) is None:
                continue  # a program without a meter stage never marks
            registry.gauge(
                "dataplane.marked",
                lambda st=port.queue.state: st.marked,
                hop=port.hop_index,
                port=port.name,
            )


def _register_faults(registry: "InstrumentRegistry", ctx: "SimContext") -> None:
    """Fault-layer gauges: per-hop injected drops from the fabric's
    separate fault ledger plus the injector's own counters
    (``fault.drops{reason=}``, ``fault.links_down``, ...)."""
    fabric = ctx.fabric
    for hop in sorted(getattr(fabric, "fault_drops_by_hop", {})):
        registry.gauge(
            "fault.drops_by_hop",
            lambda h=hop: fabric.fault_drops_by_hop.get(h, 0),
            hop=hop,
        )
    register = getattr(ctx.faults, "register_instruments", None)
    if register is not None:
        register(registry)


def _register_collector(registry: "InstrumentRegistry", collector) -> None:
    registry.gauge(
        "flows.active", lambda: collector.n_flows - collector.n_completed
    )
    registry.gauge("flows.completed", lambda: collector.n_completed)
    registry.gauge("pkts.injected", lambda: collector.data_pkts_injected)
    registry.gauge("pkts.delivered", lambda: collector.data_pkts_delivered)
    registry.gauge("pkts.retransmitted", lambda: collector.data_pkts_retransmitted)
    registry.gauge("pkts.pending", lambda: collector.pkts_pending)
    registry.gauge("control.pkts", lambda: collector.control_pkts_sent)
    registry.gauge("jobs.seen", lambda: collector.n_jobs_seen)
    registry.gauge("jobs.drained", lambda: collector.n_jobs_drained)


def _register_port(registry: "InstrumentRegistry", port: "Port") -> None:
    labels = {"hop": port.hop_index, "port": port.name}
    registry.gauge("port.qlen_bytes", lambda: port.queue.bytes_queued, **labels)
    registry.gauge("port.qlen_pkts", lambda: len(port.queue), **labels)
    registry.gauge("port.qlen_max_bytes", lambda: port.max_qlen_bytes, **labels)
    registry.gauge("port.qlen_max_pkts", lambda: port.max_qlen_pkts, **labels)


def _register_link_util(
    registry: "InstrumentRegistry", ctx: "SimContext", port: "Port"
) -> None:
    # Utilization over the window since the previous snapshot: delta of
    # bytes serialized divided by what the link could have carried.  The
    # closure keeps its own (bytes, time) anchor, so the first reading
    # covers start-of-run -> first sample.  The packet on the wire counts
    # by the part already serialized: crediting it whole to the window
    # its last bit falls in would read above 1.0.
    prev = {"bytes": port.bytes_serialized(), "t": ctx.env.now}

    def util() -> float:
        now = ctx.env.now
        dt = now - prev["t"]
        if dt <= 0:
            return 0.0
        sent = port.bytes_serialized()
        frac = (sent - prev["bytes"]) * 8.0 / (port.rate_bps * dt)
        prev["bytes"] = sent
        prev["t"] = now
        return frac

    registry.gauge("link.util", util, hop=port.hop_index, port=port.name)
