"""Behavioural tests for the pFabric baseline."""

from __future__ import annotations

import pytest

from repro.experiments.runner import build_simulation
from repro.experiments.spec import ExperimentSpec
from repro.net.packet import Flow
from repro.dataplane import PFabricProgram, ProgramQueue
from repro.net.topology import TopologyConfig
from repro.protocols.pfabric.config import PFabricConfig


def pfabric_sim(config=None, seed=1, buffer_bytes=None):
    spec = ExperimentSpec(
        protocol="pfabric",
        workload="fixed:1460",
        n_flows=1,
        topology=TopologyConfig.small(),
        buffer_bytes=buffer_bytes,
        protocol_config=config,
        seed=seed,
    )
    ctx = build_simulation(spec)
    return ctx.env, ctx.fabric, ctx.collector, ctx.config


def start(env, fabric, collector, flow):
    collector.expected_flows = (collector.expected_flows or 0) + 1
    env.schedule_at(flow.arrival, fabric.hosts[flow.src].agent.start_flow, flow)


def test_nic_uses_pfabric_queue():
    env, fabric, collector, _ = pfabric_sim()
    for queue in (fabric.hosts[0].port.queue, fabric.tors[0].ports[0].queue):
        assert isinstance(queue, ProgramQueue)
        assert isinstance(queue.program, PFabricProgram)


def test_lone_flow_near_opt():
    env, fabric, collector, _ = pfabric_sim()
    dst = fabric.config.hosts_per_rack
    flow = Flow(1, 0, dst, 50 * 1460, 0.0)
    start(env, fabric, collector, flow)
    env.run(until=0.05)
    assert flow.completed
    slowdown = (flow.finish - flow.arrival) / fabric.opt_fct(flow.size_bytes, 0, dst)
    assert 1.0 <= slowdown < 1.1


def test_window_limits_inflight():
    """With cwnd=12, at most 12 packets are unacked at any time; the NIC
    queue of a single backlogged flow never holds more than the window."""
    env, fabric, collector, _ = pfabric_sim(config=PFabricConfig(init_cwnd=12))
    flow = Flow(1, 0, 5, 300 * 1460, 0.0)
    start(env, fabric, collector, flow)
    max_queue = {"n": 0}

    def watch():
        max_queue["n"] = max(max_queue["n"], len(fabric.hosts[0].port.queue))
        env.schedule(1e-6, watch)

    env.schedule_at(0.0, watch)
    env.run(until=0.01)
    assert flow.completed
    assert max_queue["n"] <= 12


def test_rto_recovers_forced_loss():
    env, fabric, collector, cfg = pfabric_sim()
    dst = fabric.config.hosts_per_rack
    flow = Flow(1, 0, dst, 30 * 1460, 0.0)
    agent = fabric.hosts[dst].agent
    original = agent._on_data
    swallowed = {"done": False}

    def lossy(pkt):
        if pkt.seq == 7 and not swallowed["done"]:
            swallowed["done"] = True
            return
        original(pkt)

    agent._on_data = lossy
    start(env, fabric, collector, flow)
    env.run(until=0.05)
    assert swallowed["done"]
    assert flow.completed
    assert collector.data_pkts_retransmitted >= 1
    assert fabric.hosts[0].agent.timeouts >= 1


def test_remaining_priority_decreases_as_flow_progresses():
    env, fabric, collector, _ = pfabric_sim()
    dst = fabric.config.hosts_per_rack
    flow = Flow(1, 0, dst, 40 * 1460, 0.0)
    remaining_seen = []
    agent = fabric.hosts[dst].agent
    original = agent._on_data

    def spy(pkt):
        remaining_seen.append(pkt.remaining)
        original(pkt)

    agent._on_data = spy
    start(env, fabric, collector, flow)
    env.run(until=0.05)
    assert flow.completed
    # stamps shrink over the flow's life (non-strictly: windows batch)
    assert remaining_seen[0] == 40
    assert remaining_seen[-1] < remaining_seen[0]
    assert min(remaining_seen) >= 1


def test_contention_drops_at_edges_not_core():
    """Many senders into one receiver: pFabric sheds load by dropping
    low-priority packets, concentrated at NIC/last-hop (paper Fig 5f)."""
    env, fabric, collector, _ = pfabric_sim(seed=3)
    receiver = 0
    fid = 0
    for sender in range(1, fabric.config.n_hosts):
        for k in range(2):
            flow = Flow(fid, sender, receiver, 80 * 1460, 1e-6 * fid)
            start(env, fabric, collector, flow)
            fid += 1
    env.run(until=0.2)
    assert collector.n_completed == fid
    assert fabric.drops_total > 0
    edge = fabric.drops_by_hop[1] + fabric.drops_by_hop[4]
    core = fabric.drops_by_hop[2] + fabric.drops_by_hop[3]
    assert edge > core


def test_duplicate_acks_ignored():
    env, fabric, collector, _ = pfabric_sim()
    flow = Flow(1, 0, 1, 5 * 1460, 0.0)
    start(env, fabric, collector, flow)
    env.run(until=0.01)
    src_agent = fabric.hosts[0].agent
    # flow is done and deallocated; a stray duplicate ACK must not crash
    from repro.net.packet import PacketType, control_packet

    src_agent.on_packet(control_packet(PacketType.ACK, flow, 0, 1, 0, env.now))
    assert flow.completed


def test_config_validation():
    with pytest.raises(ValueError):
        PFabricConfig(init_cwnd=0)
    with pytest.raises(ValueError):
        PFabricConfig(rto=0)
    with pytest.raises(ValueError):
        PFabricConfig(min_rto_backoff=0.5)
