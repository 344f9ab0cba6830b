"""Tests for queue-occupancy monitoring — including the §2.3 claim that
contention lives at the edge, not the core."""

from __future__ import annotations

import pytest

from repro.experiments.runner import build_simulation
from repro.experiments.spec import ExperimentSpec
from repro.net.packet import Flow
from repro.net.topology import TopologyConfig
from repro.sim.engine import EventLoop
from repro.trace import QueueMonitor


def sim(protocol="phost"):
    spec = ExperimentSpec(
        protocol=protocol,
        workload="fixed:1460",
        n_flows=1,
        topology=TopologyConfig.small(),
        seed=1,
    )
    ctx = build_simulation(spec)
    return ctx.env, ctx.fabric, ctx.collector, ctx.config


def test_monitor_validates_inputs():
    env = EventLoop()
    with pytest.raises(ValueError):
        QueueMonitor(env, [], period=1e-6)
    env2, fabric, collector, _ = sim()
    with pytest.raises(ValueError):
        QueueMonitor(env2, [fabric.hosts[0].port], period=0)


def test_over_fabric_covers_all_port_classes():
    env, fabric, collector, _ = sim()
    monitor = QueueMonitor.over_fabric(fabric, period=1e-6)
    hops = {p.hop_index for p in monitor.ports}
    assert hops == {1, 2, 3, 4}


def test_over_fabric_samples_every_fat_tree_port():
    from repro.net.fattree import FatTreeConfig, FatTreeFabric
    from repro.net.packet import Packet, PacketType
    from repro.sim.randoms import SeededRng

    env = EventLoop()
    fabric = FatTreeFabric(env, FatTreeConfig(k=4), SeededRng(1))
    monitor = QueueMonitor.over_fabric(fabric, period=1e-6)
    assert [p.name for p in monitor.ports] == [p.name for p in fabric.all_ports()]
    assert {p.hop_index for p in monitor.ports} == {1, 2, 3, 4, 5, 6}
    # Two packets behind a busy transmitter on every port: each one
    # holds a queue when sampled.
    for port in monitor.ports:
        for seq in range(2):
            port.send(Packet(PacketType.DATA, None, seq, 0, 1, 1500, priority=1))
    monitor.sample()
    assert {s.port_name for s in monitor.samples} == {p.name for p in monitor.ports}


def test_idle_fabric_produces_no_samples():
    env, fabric, collector, _ = sim()
    monitor = QueueMonitor.over_fabric(fabric, period=1e-6)
    monitor.start()
    env.run(until=1e-5)
    monitor.stop()
    assert monitor.samples == []


def test_contention_queues_at_last_hop_not_core():
    """Many senders, one receiver: queueing concentrates at the
    receiver's ToR-down port (hop 4); the sprayed core stays shallow —
    the paper's 'why pHost works' argument made measurable."""
    env, fabric, collector, _ = sim()
    monitor = QueueMonitor.over_fabric(fabric, period=2e-6)
    monitor.start()
    collector.expected_flows = 11
    for i, sender in enumerate(range(1, 12)):
        flow = Flow(i, sender, 0, 1460 * 12, 0.0)
        env.schedule_at(0.0, fabric.hosts[sender].agent.start_flow, flow)
    env.run(until=0.01)
    monitor.stop()
    peaks = monitor.peak_bytes_by_hop()
    assert peaks.get(4, 0) > 0
    assert peaks.get(4, 0) >= peaks.get(3, 0)
    means = monitor.mean_bytes_by_hop()
    assert means[4] > 0


def test_peak_tracks_maximum():
    env, fabric, collector, _ = sim()
    port = fabric.hosts[0].port
    monitor = QueueMonitor(env, [port], period=1e-6)
    from repro.net.packet import Packet, PacketType

    # jam three packets behind a busy port, sample, then let them drain
    flow = Flow(99, 0, 1, 1460 * 1000, 0.0)  # far from completion
    for seq in range(4):
        port.send(Packet(PacketType.DATA, flow, seq, 0, 1, 1500, priority=1))
    monitor.sample()
    env.run(until=1e-4)
    monitor.sample()
    assert monitor.peak_bytes_by_hop()[1] == 3 * 1500
