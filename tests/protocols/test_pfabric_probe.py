"""Tests for pFabric's probe mode (§4.3 of the pFabric paper)."""

from __future__ import annotations

import pytest

from repro.experiments.runner import build_simulation
from repro.experiments.spec import ExperimentSpec
from repro.net.packet import Flow, PacketType
from repro.net.topology import TopologyConfig
from repro.protocols.pfabric.agent import PROBE_SEQ
from repro.protocols.pfabric.config import PFabricConfig


def sim(config=None):
    spec = ExperimentSpec(
        protocol="pfabric",
        workload="fixed:1460",
        n_flows=1,
        topology=TopologyConfig.small(),
        protocol_config=config or PFabricConfig(probe_after_timeouts=3),
        seed=1,
    )
    ctx = build_simulation(spec)
    return ctx.env, ctx.fabric, ctx.collector, ctx.config


def start(env, fabric, collector, flow):
    collector.expected_flows = (collector.expected_flows or 0) + 1
    env.schedule_at(flow.arrival, fabric.hosts[flow.src].agent.start_flow, flow)


class Blackout:
    """Swallows all DATA toward a host while active."""

    def __init__(self, agent):
        self.active = True
        self.eaten = 0
        original = agent.on_packet

        def lossy(pkt):
            if self.active and pkt.ptype == PacketType.DATA:
                self.eaten += 1
                return
            original(pkt)

        agent.on_packet = lossy


def test_blackout_triggers_probe_mode_and_recovery():
    env, fabric, collector, cfg = sim()
    dst = 5
    blackout = Blackout(fabric.hosts[dst].agent)
    flow = Flow(1, 0, dst, 20 * 1460, 0.0)
    start(env, fabric, collector, flow)
    # lift the blackout after ~20 RTOs: the flow must by then be probing
    env.schedule_at(20 * cfg.rto, setattr, blackout, "active", False)
    env.run(until=0.1)
    src_state = None
    # flow deallocates on completion; inspect counters via collector
    assert flow.completed
    assert blackout.eaten >= cfg.init_cwnd  # the initial window was eaten
    agent = fabric.hosts[0].agent
    assert agent.timeouts >= cfg.probe_after_timeouts


def test_probe_mode_throttles_retransmissions():
    """While blacked out, a probing flow sends ~1 tiny probe per RTO
    instead of a window of 1500B retransmissions."""
    env, fabric, collector, _ = sim(PFabricConfig(probe_after_timeouts=2))
    dst = 5
    blackout = Blackout(fabric.hosts[dst].agent)
    flow = Flow(1, 0, dst, 10 * 1460, 0.0)
    start(env, fabric, collector, flow)
    env.run(until=50 * 45e-6)  # 50 RTOs of blackout
    # retransmissions stopped growing once probing started
    assert not flow.completed
    assert collector.data_pkts_retransmitted <= 4 * 10  # bounded, not 50 windows
    # probes kept flowing (the blackout ate them as DATA)
    assert blackout.eaten > 10


def test_probe_ack_restores_normal_operation():
    env, fabric, collector, cfg = sim(PFabricConfig(probe_after_timeouts=2))
    dst = 5
    blackout = Blackout(fabric.hosts[dst].agent)
    flow = Flow(1, 0, dst, 8 * 1460, 0.0)
    start(env, fabric, collector, flow)
    env.schedule_at(10 * cfg.rto, setattr, blackout, "active", False)
    env.run(until=0.05)
    assert flow.completed
    assert collector.n_completed == 1


def test_probe_seq_never_counts_as_data():
    env, fabric, collector, _ = sim()
    dst = fabric.config.hosts_per_rack
    flow = Flow(1, 0, dst, 3 * 1460, 0.0)
    agent = fabric.hosts[dst].agent
    start(env, fabric, collector, flow)
    env.run(until=0.01)
    delivered_before = collector.data_pkts_delivered
    # inject a stray probe after completion: must only elicit a probe-ACK
    from repro.net.packet import Packet

    probe = Packet(PacketType.DATA, flow, PROBE_SEQ, 0, dst, 40, priority=1)
    agent.on_packet(probe)
    assert collector.data_pkts_delivered == delivered_before


def test_probing_disabled_when_threshold_zero():
    env, fabric, collector, cfg = sim(PFabricConfig(probe_after_timeouts=0))
    dst = 5
    blackout = Blackout(fabric.hosts[dst].agent)
    flow = Flow(1, 0, dst, 6 * 1460, 0.0)
    start(env, fabric, collector, flow)
    env.run(until=20 * cfg.rto)
    # without probe mode, every RTO re-blasts the window
    assert collector.data_pkts_retransmitted > 6 * 5


@pytest.mark.parametrize("last_seen", [True, False])
def test_probes_never_touch_the_seq_maps(last_seen):
    """PROBE_SEQ is -1, which as an index names a seq map's last slot.
    A probe DATA and a probe ACK must move no delivery, duplicate or
    ACK count, whether or not the flow's last seq was already seen."""
    from repro.net.packet import Packet

    env, fabric, collector, _ = sim()
    src, dst = fabric.hosts[0].agent, fabric.hosts[5].agent
    flow = Flow(1, 0, 5, 4 * 1460, 0.0)
    collector.expected_flows = 1
    src.start_flow(flow)
    last = flow.n_pkts - 1
    if last_seen:
        dst.on_packet(Packet(PacketType.DATA, flow, last, 0, 5, 1500))
        src.on_packet(Packet(PacketType.ACK, flow, last, 5, 0, 40))
    state = src.src_flows[flow.fid]
    before = (
        collector.data_pkts_delivered, collector.data_pkts_duplicate,
        state.remaining(), state.in_flight,
    )
    dst.on_packet(Packet(PacketType.DATA, flow, PROBE_SEQ, 0, 5, 40))
    src.on_packet(Packet(PacketType.ACK, flow, PROBE_SEQ, 5, 0, 40))
    after = (
        collector.data_pkts_delivered, collector.data_pkts_duplicate,
        state.remaining(), state.in_flight,
    )
    assert after == before
    assert not flow.completed


class _Wire:
    """Stands in for an agent's host: keeps what the agent sends."""

    def __init__(self, host):
        self.node_id = host.node_id
        self.sent = []

    def send(self, pkt):
        self.sent.append(pkt)


@pytest.mark.parametrize(
    "protocol,label", [("pfabric", "pFabric"), ("dctcp", "DCTCP"), ("fastpass", "Fastpass")]
)
def test_one_receiver_contract(protocol, label):
    """pFabric, DCTCP and Fastpass share one receiver and one ACK path.
    A DATA packet with a negative seq carries no data: it is ACKed, and
    neither it nor its ACK moves a received or ACKed count.  Data that
    arrives after the flow finished is a duplicate and is still ACKed.
    Any other packet type is an error that names the protocol."""
    from repro.net.packet import Packet

    ctx = build_simulation(
        ExperimentSpec(
            protocol=protocol, workload="fixed:1460", n_flows=1,
            topology=TopologyConfig.small(), seed=1,
        )
    )
    collector = ctx.collector
    src, dst = ctx.fabric.hosts[0].agent, ctx.fabric.hosts[5].agent
    dst.host = wire = _Wire(dst.host)
    flow = Flow(1, 0, 5, 3 * 1460, 0.0)
    collector.expected_flows = 1
    src.start_flow(flow)
    dst.on_packet(Packet(PacketType.DATA, flow, 0, 0, 5, 1500))
    src.on_packet(wire.sent.pop())
    sender, receiver = src.src_flows[flow.fid], dst.dst_flows[flow.fid]

    def counts():
        return (
            receiver.n_received, bytes(receiver.received),
            sender.n_acked, bytes(sender.acked),
            collector.data_pkts_delivered, collector.data_pkts_duplicate,
        )

    before = counts()
    dst.on_packet(Packet(PacketType.DATA, flow, -1, 0, 5, 40))
    (ack,) = wire.sent
    assert (ack.ptype, ack.seq) == (PacketType.ACK, -1)
    src.on_packet(wire.sent.pop())
    assert counts() == before

    for seq in range(1, flow.n_pkts):
        dst.on_packet(Packet(PacketType.DATA, flow, seq, 0, 5, 1500))
    assert flow.finish is not None
    wire.sent.clear()
    duplicates = collector.data_pkts_duplicate
    dst.on_packet(Packet(PacketType.DATA, flow, 0, 0, 5, 1500))
    assert collector.data_pkts_duplicate == duplicates + 1
    assert [(a.ptype, a.seq) for a in wire.sent] == [(PacketType.ACK, 0)]

    with pytest.raises(ValueError, match=label):
        dst.on_packet(Packet(PacketType.TOKEN, flow, 0, 0, 5, 40))
