"""Turn an :class:`ExperimentSpec` into an :class:`ExperimentResult`.

Also hosts the closed-loop incast driver (Figures 9c/9d): requests are
issued sequentially — the next request starts when the previous one's
last flow completes — and RCT is the request's makespan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.metrics.collector import MetricsCollector
from repro.metrics.drops import DropStats
from repro.metrics.records import records_from_flows
from repro.metrics.stability import StabilityTracker
from repro.metrics.throughput import per_host_goodput_gbps
from repro.net.packet import Flow
from repro.net.topology import Fabric, TopologyConfig
from repro.obs.telemetry import Telemetry
from repro.protocols.registry import get_protocol
from repro.sim.context import SimContext
from repro.sim.engine import EventLoop
from repro.sim.randoms import SeededRng
from repro.validate.base import AuditReport
from repro.workloads.deadlines import assign_deadlines
from repro.workloads.distributions import WORKLOADS, bimodal, fixed_size
from repro.workloads.generator import FlowGenerator
from repro.workloads.traffic_matrix import AllToAll, IncastPattern, Permutation

from repro.experiments.spec import ExperimentResult, ExperimentSpec

__all__ = [
    "run_experiment",
    "run_flow_list",
    "run_incast",
    "run_tenant_fairness",
    "IncastResult",
    "TenantFairnessResult",
    "build_simulation",
]


def _resolve_workload(spec: ExperimentSpec):
    from repro.workloads.synthetic import parse_synthetic

    name = spec.workload
    synthetic = parse_synthetic(name)
    if name in WORKLOADS:
        dist = WORKLOADS[name]()
    elif name == "bimodal":
        dist = bimodal(spec.bimodal_fraction_short)
    elif name.startswith("fixed:"):
        dist = fixed_size(int(name.split(":", 1)[1]))
    elif synthetic is not None:
        dist = synthetic
    else:
        raise ValueError(
            f"unknown workload {spec.workload!r}; expected one of "
            f"{sorted(WORKLOADS)}, 'bimodal', 'fixed:<bytes>', or a "
            "synthetic spec ('pareto:a:lo:hi', 'lognormal:median:sigma', "
            "'uniform:lo:hi')"
        )
    if spec.max_flow_bytes is not None and spec.max_flow_bytes < dist.max_bytes:
        # Truncate the distribution itself so the Poisson arrival rate
        # is calibrated against the sizes actually offered — otherwise
        # the effective load would be far below spec.load.
        dist = dist.truncated(spec.max_flow_bytes)
    return dist


def _resolve_tm(spec: ExperimentSpec, n_hosts: int, rng: SeededRng):
    if spec.traffic_matrix == "permutation":
        return Permutation(n_hosts, rng)
    if spec.traffic_matrix == "skewed":
        from repro.workloads.skew import SkewedMatrix

        return SkewedMatrix(n_hosts, spec.skew, spec.topology.rack_of)
    return AllToAll(n_hosts)


def _resolve_dataplane(spec: ExperimentSpec, proto):
    """(DataplaneBinding, switch queue factory, host queue factory).

    Each side runs the spec-level ``dataplane`` override if set, else
    the program the protocol declares for it.
    """
    from repro.dataplane import DataplaneBinding, get_dataplane

    if spec.dataplane is not None:
        switch_prog = host_prog = get_dataplane(spec.dataplane)
    else:
        switch_prog = get_dataplane(proto.switch_dataplane)
        host_prog = get_dataplane(proto.host_dataplane)
    binding = DataplaneBinding(switch=switch_prog, host=host_prog)
    return binding, switch_prog.make_queue, host_prog.make_queue


def build_simulation(spec: ExperimentSpec) -> SimContext:
    """Instantiate env + fabric + agents for a spec (no flows yet).

    Returns the run's :class:`~repro.sim.context.SimContext` (event
    loop, RNG, fabric, collector, resolved protocol config, protocol
    shared state, instrumentation hooks).  Exposed so tests and custom
    drivers (incast, examples) can reuse the wiring.
    """
    env = EventLoop()
    rng = SeededRng(spec.seed)
    proto = get_protocol(spec.protocol)
    topo = spec.with_topology_buffer()
    collector = MetricsCollector()
    from repro.net.fattree import FatTreeConfig, FatTreeFabric

    fabric_cls = FatTreeFabric if isinstance(topo, FatTreeConfig) else Fabric
    binding, switch_qf, host_qf = _resolve_dataplane(spec, proto)
    fabric = fabric_cls(
        env,
        topo,
        rng,
        queue_factory=switch_qf,
        host_queue_factory=host_qf,
    )
    ctx = SimContext(env, rng, fabric, collector)
    ctx.dataplane = binding
    if spec.protocol_config is not None:
        config = spec.protocol_config
        if hasattr(config, "resolve"):
            config = config.resolve(topo)
        ctx.config = config
    else:
        ctx.config = proto.build_config(ctx)
    ctx.shared = proto.build_shared(ctx)
    proto.install_agents(ctx)
    if spec.faults is not None and not spec.faults.is_empty():
        # Installed before user instruments so telemetry sees
        # ``ctx.faults`` and the retains_packets gate below sees a
        # corrupting plan.  Empty plans install nothing at all, keeping
        # the run byte-identical to faults=None (golden digests).
        from repro.faults.injector import FaultInjector

        ctx.add_hook(FaultInjector(spec.faults))
    for hook in spec.instruments:
        ctx.add_hook(hook)
    if spec.observability is not None:
        ctx.add_hook(Telemetry(spec.observability))
    if any(getattr(h, "retains_packets", False) for h in ctx.hooks):
        # A hook that keeps packet references past delivery (or a
        # drop) makes recycling unsound; pooling turns off for this run
        # (results record it in ``packet_pool``).
        ctx.pool.enabled = False
    if ctx.pool.enabled:
        # Every end of a packet's life gives the packet back: delivery
        # at a host, and a queue or injected drop at the fabric.
        fabric.pool = ctx.pool
        for host in fabric.hosts:
            host.pool = ctx.pool
    return ctx


def _finalize_hooks(ctx: SimContext) -> None:
    """Give every instrumentation hook its end-of-run pass (auditors
    reconcile their ledgers here)."""
    for hook in ctx.hooks:
        fin = getattr(hook, "finalize", None)
        if fin is not None:
            fin(ctx)


def _generate_flows(spec: ExperimentSpec, fabric: Fabric, rng: SeededRng) -> List[Flow]:
    if spec.trace is not None:
        # Trace replay: the file is the workload (generator fields are
        # ignored).  Deadlines are still assigned — but only to traced
        # flows that do not carry their own.
        from repro.workloads.trace_io import load_flows

        flows = load_flows(spec.trace, n_hosts=fabric.config.n_hosts)
        if spec.with_deadlines:
            bare = [f for f in flows if f.deadline is None]
            if bare:
                assign_deadlines(bare, fabric, rng, mean=spec.deadline_mean)
        return flows
    dist = _resolve_workload(spec)
    tm = _resolve_tm(spec, fabric.config.n_hosts, rng)
    tenant_of: Optional[Callable[[int], int]] = None
    if spec.tenant_split is not None:
        split = spec.tenant_split
        tenant_rng = rng.stream("tenants")
        tenant_of = lambda i: 1 if tenant_rng.random() < split else 0  # noqa: E731
    if spec.coflows is not None:
        from repro.workloads.coflows import CoflowGenerator

        gen = CoflowGenerator(
            dist,
            tm,
            fabric.config.access_bps,
            spec.load,
            rng,
            spec.coflows,
            tenant_of=tenant_of,
            profile=spec.load_profile,
        )
    else:
        gen = FlowGenerator(
            dist,
            tm,
            fabric.config.access_bps,
            spec.load,
            rng,
            tenant_of=tenant_of,
            profile=spec.load_profile,
        )
    flows = gen.generate(spec.n_flows)  # dist already truncated above
    if spec.with_deadlines:
        assign_deadlines(flows, fabric, rng, mean=spec.deadline_mean)
    return flows


def _default_time_guard(spec: ExperimentSpec, flows: List[Flow]) -> float:
    """Wall for the simulated clock.

    Stable runs stop the moment the last flow completes; the guard only
    matters for the unstable regime (paper §4.3), where sources fall
    ever further behind and the run would otherwise never drain.  The
    budget is ``time_guard_factor`` x (arrival window + the wire time of
    the largest flow) — the second term keeps short-horizon runs with
    huge flows from being cut off mid-transfer.
    """
    if spec.max_sim_time is not None:
        return spec.max_sim_time
    if not flows:
        return 0.1
    horizon = flows[-1].arrival
    access = spec.topology.access_bps
    largest = max(f.size_bytes for f in flows)
    drain = largest * 8.0 / access
    return spec.time_guard_factor * (horizon + drain) + 1e-5


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run one simulation to completion (or its time guard)."""
    ctx = build_simulation(spec)
    rng = SeededRng(spec.seed)
    flows = _generate_flows(spec, ctx.fabric, rng)
    return run_flow_list(spec, flows, ctx)


def run_flow_list(
    spec: ExperimentSpec,
    flows: List[Flow],
    ctx: Optional[SimContext] = None,
) -> ExperimentResult:
    """Run an explicit flow list (e.g. loaded from a trace file).

    ``spec`` supplies the protocol/topology wiring and run controls; the
    workload fields are ignored.  Pass the context from a prior
    :func:`build_simulation` call to reuse custom wiring; otherwise it
    is built here.
    """
    wall_start = time.perf_counter()
    if ctx is None:
        ctx = build_simulation(spec)
    env, fabric, collector = ctx.env, ctx.fabric, ctx.collector
    flows = sorted(flows, key=lambda f: f.arrival)
    collector.total_pkts_offered = sum(f.n_pkts for f in flows)
    collector.expected_flows = len(flows)

    # Arrivals are streamed: the event heap holds the next one, not all
    # of them, which is what keeps it shallow on many-flow runs.
    hosts = fabric.hosts
    env.schedule_series(
        ((f.arrival, hosts[f.src].agent.start_flow, (f,)) for f in flows), len(flows)
    )

    tracker: Optional[StabilityTracker] = None
    if spec.stability_samples > 0:
        horizon = max(flows[-1].arrival, 1e-6)
        tracker = StabilityTracker(env, collector, horizon / spec.stability_samples)
        tracker.start()

    # Stop as soon as the last flow completes.
    def _maybe_stop(flow: Flow, now: float) -> None:
        if collector.all_complete:
            env.stop()

    collector.on_complete = _maybe_stop

    guard = _default_time_guard(spec, flows)
    env.run(until=guard)
    if tracker is not None:
        tracker.stop()
        tracker.sample()  # terminal point
    _finalize_hooks(ctx)

    records = records_from_flows(flows, fabric)
    duration = collector.duration()
    result = ExperimentResult(
        spec=spec,
        records=records,
        drops=DropStats.from_run(fabric, collector),
        duration=duration,
        n_flows=len(flows),
        n_completed=collector.n_completed,
        payload_bytes_delivered=collector.payload_bytes_delivered,
        data_pkts_injected=collector.data_pkts_injected,
        data_pkts_retransmitted=collector.data_pkts_retransmitted,
        control_pkts_sent=collector.control_pkts_sent,
        control_bytes_sent=collector.control_bytes_sent,
        goodput_gbps_per_host=per_host_goodput_gbps(collector, fabric.config.n_hosts),
        stability=list(tracker.samples) if tracker is not None else [],
        events_processed=env.events_processed,
        wall_seconds=time.perf_counter() - wall_start,
        fault_drops=getattr(fabric, "fault_drops_total", 0),
        audit=AuditReport.from_hooks(ctx.hooks),
        telemetry=Telemetry.report_from_hooks(ctx.hooks),
        packet_pool=ctx.pool.enabled,
    )
    if result.telemetry is not None:
        # Self-describing series: spec hash / seed / git rev / wall time
        # ride on the ObsReport (post-run, never perturbs the run).
        from repro.obs.store import stamp_result_meta

        stamp_result_meta(result)
    return result


# ----------------------------------------------------------------------
# Incast driver (Figures 9c and 9d)
# ----------------------------------------------------------------------

@dataclass
class IncastResult:
    """Outcome of a closed-loop incast experiment."""

    n_senders: int
    total_bytes: int
    n_requests: int
    rcts: List[float] = field(default_factory=list)
    fcts: List[float] = field(default_factory=list)
    #: AuditReport when auditors were passed via ``instruments``.
    audit: Optional[AuditReport] = None
    #: ObsReport when ``observability`` was set; None otherwise.
    telemetry: Optional[Any] = None
    #: Whether packets were recycled (see ExperimentResult).
    packet_pool: bool = True

    @property
    def mean_rct(self) -> float:
        return sum(self.rcts) / len(self.rcts) if self.rcts else float("nan")

    @property
    def mean_fct(self) -> float:
        return sum(self.fcts) / len(self.fcts) if self.fcts else float("nan")


def run_incast(
    protocol: str,
    n_senders: int,
    total_bytes: int,
    n_requests: int = 10,
    topology: Optional[TopologyConfig] = None,
    seed: int = 42,
    protocol_config: Any = None,
    instruments: tuple = (),
    observability: Any = None,
    faults: Any = None,
) -> IncastResult:
    """Closed-loop incast: each request fans N senders into one receiver;
    the next request starts when the previous completes."""
    spec = ExperimentSpec(
        protocol=protocol,
        workload="fixed:1",  # unused; flows are built by the driver
        n_flows=1,
        topology=topology or TopologyConfig.paper(),
        protocol_config=protocol_config,
        instruments=instruments,
        observability=observability,
        faults=faults,
        seed=seed,
    )
    ctx = build_simulation(spec)
    env, fabric, collector = ctx.env, ctx.fabric, ctx.collector
    rng = SeededRng(seed).stream("incast")
    pattern = IncastPattern(fabric.config.n_hosts, n_senders, total_bytes)
    result = IncastResult(
        n_senders=n_senders, total_bytes=total_bytes, n_requests=n_requests,
        packet_pool=ctx.pool.enabled,
    )

    state: Dict[str, Any] = {"request": 0, "outstanding": 0, "start": 0.0, "next_fid": 0}

    def launch_request() -> None:
        receiver, senders = pattern.make_request(rng)
        now = env.now
        state["outstanding"] = len(senders)
        state["start"] = now
        per_sender = pattern.bytes_per_sender
        for sender in senders:
            fid = state["next_fid"]
            state["next_fid"] += 1
            flow = Flow(fid, sender, receiver, per_sender, now, request_id=state["request"])
            collector.total_pkts_offered += flow.n_pkts
            fabric.hosts[sender].agent.start_flow(flow)

    def on_complete(flow: Flow, now: float) -> None:
        result.fcts.append(now - flow.arrival)
        state["outstanding"] -= 1
        if state["outstanding"] == 0:
            result.rcts.append(now - state["start"])
            state["request"] += 1
            if state["request"] >= n_requests:
                env.stop()
            else:
                launch_request()

    collector.on_complete = on_complete
    env.schedule_at(0.0, launch_request)
    env.run(until=3600.0)  # safety wall; closed loop ends via env.stop()
    _finalize_hooks(ctx)
    result.audit = AuditReport.from_hooks(ctx.hooks)
    result.telemetry = Telemetry.report_from_hooks(ctx.hooks)
    if result.telemetry is not None:
        from repro.obs.store import run_meta

        result.telemetry.meta = run_meta(
            spec,
            events_processed=env.events_processed,
            packet_pool=result.packet_pool,
        )
    return result


# ----------------------------------------------------------------------
# Multi-tenant fairness driver (Figure 11)
# ----------------------------------------------------------------------

@dataclass
class TenantFairnessResult:
    """Per-tenant throughput shares for the Figure 11 scenario.

    Each tenant injects an equal byte budget at t=0.  ``shares`` is the
    per-tenant split of bytes delivered by the *halfway point* of total
    delivery — a window in which both tenants are still backlogged, so
    the split reflects the scheduling policy rather than total demand.
    Under a fair scheduler it is ~0.5/0.5; under SRPT-in-the-fabric
    (pFabric) the short-flow-heavy tenant is visibly favoured.
    ``throughput_bps`` additionally records budget / drain-time rates.
    """

    protocol: str
    shares: Dict[int, float]
    delivered_bytes: Dict[int, int]
    drain_time: Dict[int, float]
    throughput_bps: Dict[int, float]

    def share_of(self, tenant: int) -> float:
        return self.shares.get(tenant, 0.0)

    def rate_share_of(self, tenant: int) -> float:
        """Share of drain-rate throughput (budget / drain time)."""
        total = sum(self.throughput_bps.values())
        if not total:
            return 0.0
        return self.throughput_bps.get(tenant, 0.0) / total


def run_tenant_fairness(
    protocol: str,
    workload_by_tenant: Dict[int, str],
    bytes_per_tenant: int = 20_000_000,
    topology: Optional[TopologyConfig] = None,
    max_flow_bytes: Optional[int] = None,
    protocol_config: Any = None,
    seed: int = 42,
) -> TenantFairnessResult:
    """Figure 11's scenario: tenants inject their whole trace at the
    start; measure how the fabric's throughput is shared.

    Flow sizes follow each tenant's workload distribution; flows are
    drawn until the tenant's byte budget is met, so the comparison is
    between equal demands with different flow-size mixes.
    """
    from repro.workloads.distributions import WORKLOADS
    from repro.workloads.traffic_matrix import AllToAll

    spec = ExperimentSpec(
        protocol=protocol,
        workload="fixed:1",  # unused; the driver builds flows itself
        n_flows=1,
        topology=topology or TopologyConfig.paper(),
        protocol_config=protocol_config,
        seed=seed,
    )
    ctx = build_simulation(spec)
    env, fabric, collector = ctx.env, ctx.fabric, ctx.collector
    rng = SeededRng(seed)
    tm = AllToAll(fabric.config.n_hosts)
    pair_rng = rng.stream("pairs")
    jitter = rng.stream("jitter")

    flows: List[Flow] = []
    remaining_flows: Dict[int, int] = {}
    budget_bytes: Dict[int, int] = {}
    fid = 0
    for tenant, workload in sorted(workload_by_tenant.items()):
        dist = WORKLOADS[workload]()
        size_rng = rng.stream(f"sizes-{tenant}")
        total = 0
        count = 0
        while total < bytes_per_tenant:
            size = dist.sample(size_rng)
            if max_flow_bytes is not None:
                size = min(size, max_flow_bytes)
            src, dst = tm.sample_pair(pair_rng)
            # "Both tenants inject the flows in their trace at the
            # beginning of the simulation": tiny jitter only, to avoid
            # a mega-batch at one timestamp.
            arrival = jitter.uniform(0.0, 50e-6)
            flows.append(Flow(fid, src, dst, size, arrival, tenant=tenant))
            fid += 1
            total += size
            count += 1
        remaining_flows[tenant] = count
        budget_bytes[tenant] = total

    collector.total_pkts_offered = sum(f.n_pkts for f in flows)
    collector.expected_flows = len(flows)
    for flow in flows:
        env.schedule_at(flow.arrival, fabric.hosts[flow.src].agent.start_flow, flow)

    drain_time: Dict[int, float] = {}
    grand_total = sum(budget_bytes.values())
    halfway_snapshot: Dict[int, int] = {}

    def on_complete(flow: Flow, now: float) -> None:
        remaining_flows[flow.tenant] -= 1
        if remaining_flows[flow.tenant] == 0:
            drain_time[flow.tenant] = now
        if not halfway_snapshot and collector.payload_bytes_delivered >= grand_total // 2:
            halfway_snapshot.update(collector.delivered_bytes_by_tenant)
        if collector.all_complete:
            env.stop()

    collector.on_complete = on_complete
    env.run(until=60.0)
    throughput = {
        tenant: (budget_bytes[tenant] * 8.0 / drain_time[tenant])
        for tenant in drain_time
        if drain_time[tenant] > 0
    }
    snapshot = halfway_snapshot or dict(collector.delivered_bytes_by_tenant)
    snap_total = sum(snapshot.values())
    shares = {
        t: (snapshot.get(t, 0) / snap_total if snap_total else 0.0)
        for t in workload_by_tenant
    }
    return TenantFairnessResult(
        protocol=protocol,
        shares=shares,
        delivered_bytes=dict(collector.delivered_bytes_by_tenant),
        drain_time=drain_time,
        throughput_bps=throughput,
    )
