"""Behavioural tests of the pHost protocol on a real (small) fabric.

These drive individual flows through `build_simulation` wiring and
assert on protocol mechanics: free-token fast start, token-paced long
flows, loss recovery via token re-issue, source downgrading, and ACK
cleanup.
"""

from __future__ import annotations

import pytest

from repro.protocols.phost.agent import PHostAgent
from repro.protocols.phost.config import PHostConfig
from repro.experiments.runner import build_simulation
from repro.experiments.spec import ExperimentSpec
from repro.net.packet import Flow, PacketType
from repro.net.topology import TopologyConfig


def phost_sim(config=None, seed=1):
    spec = ExperimentSpec(
        protocol="phost",
        workload="fixed:1460",
        n_flows=1,
        topology=TopologyConfig.small(),
        protocol_config=config,
        seed=seed,
    )
    ctx = build_simulation(spec)
    env, fabric, collector, cfg = ctx.env, ctx.fabric, ctx.collector, ctx.config
    return env, fabric, collector, cfg


def start(env, fabric, collector, flow):
    collector.expected_flows = (collector.expected_flows or 0) + 1
    env.schedule_at(flow.arrival, fabric.hosts[flow.src].agent.start_flow, flow)


def test_lone_short_flow_finishes_near_opt():
    env, fabric, collector, _ = phost_sim()
    dst = fabric.config.hosts_per_rack  # inter-rack
    flow = Flow(1, 0, dst, 3 * 1460, 0.0)
    start(env, fabric, collector, flow)
    env.run(until=0.01)
    assert flow.completed
    opt = fabric.opt_fct(flow.size_bytes, 0, dst)
    slowdown = (flow.finish - flow.arrival) / opt
    # free tokens let it start immediately; only the RTS serialization
    # (40B) precedes data, so the flow is within a few percent of OPT
    assert 1.0 <= slowdown < 1.1


def test_lone_long_flow_token_paced_to_line_rate():
    env, fabric, collector, cfg = phost_sim()
    dst = fabric.config.hosts_per_rack
    n_pkts = 100
    flow = Flow(1, 0, dst, n_pkts * 1460, 0.0)
    start(env, fabric, collector, flow)
    env.run(until=0.05)
    assert flow.completed
    opt = fabric.opt_fct(flow.size_bytes, 0, dst)
    slowdown = (flow.finish - flow.arrival) / opt
    assert slowdown < 1.15  # token stream keeps the link ~saturated
    dest_agent = fabric.hosts[dst].agent
    # destination explicitly granted everything beyond the free budget
    assert dest_agent.destination.tokens_granted >= n_pkts - cfg.free_tokens


def test_ack_cleans_up_source_state():
    env, fabric, collector, _ = phost_sim()
    flow = Flow(1, 0, 1, 1460, 0.0)
    start(env, fabric, collector, flow)
    env.run(until=0.01)
    src_agent: PHostAgent = fabric.hosts[0].agent
    dst_agent: PHostAgent = fabric.hosts[1].agent
    assert src_agent.source.active_flow_count == 0
    assert dst_agent.destination.pending_flow_count == 0
    assert flow.completed
    # A late copy of the data is a duplicate of a finished flow: counted
    # as such, without re-creating destination state for it.
    from repro.net.packet import Packet

    dups = collector.data_pkts_duplicate
    dst_agent.on_packet(Packet(PacketType.DATA, flow, 0, 0, 1, 1500))
    assert collector.data_pkts_duplicate == dups + 1
    assert dst_agent.destination.pending_flow_count == 0


def test_duplicate_rts_for_finished_flow_reacks():
    env, fabric, collector, _ = phost_sim()
    flow = Flow(1, 0, 1, 1460, 0.0)
    start(env, fabric, collector, flow)
    env.run(until=0.01)
    dst_agent: PHostAgent = fabric.hosts[1].agent
    acks_before = collector.control_pkts_sent
    from repro.net.packet import control_packet

    dst_agent.on_packet(control_packet(PacketType.RTS, flow, 0, 0, 1, env.now))
    assert collector.control_pkts_sent == acks_before + 1  # re-ACK


def test_lost_data_recovered_by_token_reissue():
    """Force-drop one data packet; the destination's timeout re-issues a
    token for exactly that packet and the flow still completes."""
    env, fabric, collector, cfg = phost_sim()
    dst = fabric.config.hosts_per_rack
    flow = Flow(1, 0, dst, 20 * 1460, 0.0)
    dst_agent: PHostAgent = fabric.hosts[dst].agent
    original = dst_agent.destination.on_data
    dropped = {"done": False}

    def lossy(pkt):
        if pkt.seq == 5 and not dropped["done"]:
            dropped["done"] = True
            return  # swallow the packet once
        original(pkt)

    dst_agent.destination.on_data = lossy
    start(env, fabric, collector, flow)
    env.run(until=0.05)
    assert dropped["done"]
    assert flow.completed
    assert collector.data_pkts_retransmitted >= 1


def test_reissue_checks_pause_while_nothing_is_outstanding(monkeypatch):
    """In an incast most senders wait their turn with every granted
    packet delivered, so their reissue checks stop re-arming; a grant
    resumes them at the time the always-armed poll would have checked,
    so the run is the poll's run with fewer events."""
    from repro.experiments.defaults import SCALES
    from repro.experiments.runner import run_incast
    from repro.obs.profiler import EventLoopProfiler
    from repro.validate import incast_digest
    from tests.net.models import use_polling_reissue

    def run():
        profiler = EventLoopProfiler()
        result = run_incast(
            "phost", n_senders=9, total_bytes=1_000_000, n_requests=3,
            topology=SCALES["tiny"].topology, seed=42, instruments=(profiler,),
        )
        checks = sum(
            row["count"] for name, row in profiler.by_type().items()
            if name.endswith("_reissue_check")
        )
        return incast_digest(result), checks

    paused = run()
    use_polling_reissue(monkeypatch)
    polled = run()
    assert paused[0] == polled[0]
    assert paused[1] < polled[1]


def test_unresponsive_source_gets_downgraded():
    """A source that sits on its tokens must be downgraded after a BDP's
    worth of unresponded tokens (paper §3.2)."""
    env, fabric, collector, cfg = phost_sim()
    dst = fabric.config.hosts_per_rack
    flow = Flow(1, 0, dst, 60 * 1460, 0.0)
    src_agent: PHostAgent = fabric.hosts[0].agent
    # Muzzle the source: it sends RTS and then never spends any token.
    src_agent.source.next_data_packet = lambda: None
    start(env, fabric, collector, flow)
    env.run(until=cfg.retx_timeout * 30)
    dest = fabric.hosts[dst].agent.destination
    state = dest.states[flow.fid]
    assert state.downgrades >= 1
    assert not flow.completed


def test_no_retransmissions_without_drops():
    env, fabric, collector, _ = phost_sim()
    flows = []
    for i in range(10):
        dst = (i + 3) % fabric.config.n_hosts
        src = i % fabric.config.n_hosts
        if src == dst:
            dst = (dst + 1) % fabric.config.n_hosts
        flow = Flow(i, src, dst, 1460 * (i + 1), i * 5e-6)
        flows.append(flow)
        start(env, fabric, collector, flow)
    env.run(until=0.05)
    assert all(f.completed for f in flows)
    assert fabric.drops_total == 0
    assert collector.data_pkts_retransmitted == 0


def test_tenant_fair_config_runs_and_completes():
    env, fabric, collector, _ = phost_sim(config=PHostConfig.tenant_fair())
    flows = [
        Flow(1, 0, 5, 1460 * 20, 0.0, tenant=0),
        Flow(2, 1, 5, 1460 * 20, 0.0, tenant=1),
    ]
    for f in flows:
        start(env, fabric, collector, f)
    env.run(until=0.05)
    assert all(f.completed for f in flows)


def test_edf_config_prioritizes_urgent_flow():
    """Two same-size flows to one receiver; EDF must finish the one with
    the earlier deadline first."""
    env, fabric, collector, _ = phost_sim(config=PHostConfig.deadline())
    urgent = Flow(1, 0, 5, 1460 * 120, 0.0, deadline=1e-3)
    relaxed = Flow(2, 1, 5, 1460 * 120, 0.0, deadline=1.0)
    start(env, fabric, collector, relaxed)
    start(env, fabric, collector, urgent)
    env.run(until=0.05)
    assert urgent.completed and relaxed.completed
    assert urgent.finish < relaxed.finish


def test_data_priority_bands():
    env, fabric, collector, cfg = phost_sim()
    agent: PHostAgent = fabric.hosts[0].agent
    short = Flow(1, 0, 1, 1460 * cfg.short_threshold_pkts, 0.0)
    long_ = Flow(2, 0, 1, 1460 * (cfg.short_threshold_pkts + 1), 0.0)
    assert agent.data_priority(short) == 1
    assert agent.data_priority(long_) == 2


def test_uniform_priority_config_flattens_bands():
    env, fabric, collector, cfg = phost_sim(config=PHostConfig.tenant_fair())
    agent: PHostAgent = fabric.hosts[0].agent
    long_ = Flow(2, 0, 1, 1460 * 100, 0.0)
    assert agent.data_priority(long_) == 1


def test_priority_policy_variants():
    """Degree of freedom 3: how flows map onto priority bands."""
    env, fabric, collector, cfg = phost_sim(
        config=PHostConfig(priority_policy="uniform")
    )
    agent: PHostAgent = fabric.hosts[0].agent
    big = Flow(1, 0, 1, 1460 * 500, 0.0)
    assert agent.data_priority(big) == 1  # uniform: everything band 1

    env, fabric, collector, cfg = phost_sim(
        config=PHostConfig(priority_policy="deadline", grant_policy="edf",
                           spend_policy="edf")
    )
    agent = fabric.hosts[0].agent
    urgent = Flow(2, 0, 1, 1460 * 500, 0.0, deadline=cfg.retx_timeout)
    relaxed = Flow(3, 0, 1, 1460, 0.0, deadline=10.0)
    undated = Flow(4, 0, 1, 1460, 0.0)
    assert agent.data_priority(urgent) == 1
    assert agent.data_priority(relaxed) == 2
    assert agent.data_priority(undated) == 2


def test_deadline_priority_config_completes_flows():
    cfg = PHostConfig(priority_policy="deadline", grant_policy="edf",
                      spend_policy="edf")
    env, fabric, collector, _ = phost_sim(config=cfg)
    flows = [Flow(i, i % 3, 5 + i % 3, 1460 * 10, 0.0, deadline=1e-3)
             for i in range(6)]
    for f in flows:
        start(env, fabric, collector, f)
    env.run(until=0.05)
    assert all(f.completed for f in flows)
