"""Tests for switches and the spraying/ECMP routing closures.

These exercise real fabrics end to end at the packet level: a raw data
packet is injected at a host NIC and must arrive at the right host,
taking randomized core paths when racks differ.
"""

from __future__ import annotations

import pytest

from repro.net.packet import Flow, Packet, PacketType
from repro.net.routing import ECMP, make_core_route, make_tor_route
from repro.net.topology import Fabric, TopologyConfig
from repro.sim.engine import EventLoop
from repro.sim.randoms import SeededRng


class Recorder:
    """Stand-in agent capturing deliveries at a host."""

    def __init__(self):
        self.packets = []
        self.nic_pull = None

    def on_packet(self, pkt):
        self.packets.append(pkt)


def fabric_with_recorders(topo=None, seed=1):
    env = EventLoop()
    fabric = Fabric(env, topo or TopologyConfig.small(), SeededRng(seed))
    recorders = []
    for host in fabric.hosts:
        rec = Recorder()
        host.install_agent(rec)
        recorders.append(rec)
    return env, fabric, recorders


def send_raw(fabric, src, dst, seq=0):
    flow = Flow(seq, src, dst, 1460, 0.0)
    pkt = Packet(PacketType.DATA, flow, seq, src, dst, 1500, priority=1)
    fabric.hosts[src].send(pkt)
    return pkt


def send_paced(env, fabric, src, dst, n, flow=None):
    """Inject n packets at line rate so the 36kB NIC never overflows."""
    interval = 1.3e-6
    for seq in range(n):
        if flow is None:
            f = Flow(seq, src, dst, 1460, 0.0)
        else:
            f = flow
        pkt = Packet(PacketType.DATA, f, seq, src, dst, 1500, priority=1)
        env.schedule_at(seq * interval, fabric.hosts[src].send, pkt)


def test_intra_rack_delivery():
    env, fabric, recorders = fabric_with_recorders()
    send_raw(fabric, 0, 1)
    env.run()
    assert len(recorders[1].packets) == 1
    assert recorders[1].packets[0].hops == 1  # only the ToR forwarded it


def test_inter_rack_delivery_crosses_two_switches():
    env, fabric, recorders = fabric_with_recorders()
    dst = fabric.config.hosts_per_rack  # next rack
    send_raw(fabric, 0, dst)
    env.run()
    assert len(recorders[dst].packets) == 1
    assert recorders[dst].packets[0].hops == 3  # ToR up, core, ToR down


def test_every_pair_is_deliverable():
    env, fabric, recorders = fabric_with_recorders()
    n = fabric.config.n_hosts
    seq = 0
    for src in range(n):
        for dst in range(n):
            if src != dst:
                send_raw(fabric, src, dst, seq)
                seq += 1
    env.run()
    for dst, rec in enumerate(recorders):
        assert len(rec.packets) == n - 1
        assert all(p.dst == dst for p in rec.packets)


def test_packet_spraying_uses_all_cores():
    env, fabric, _ = fabric_with_recorders(seed=7)
    dst = fabric.config.hosts_per_rack
    send_paced(env, fabric, 0, dst, 200)
    env.run()
    forwarded = [core.pkts_forwarded for core in fabric.cores]
    assert sum(forwarded) == 200
    # uniform spraying: every core carries a healthy share
    for count in forwarded:
        assert count > 200 / len(forwarded) / 3


def test_ecmp_pins_flow_to_one_core():
    topo = TopologyConfig.small()
    topo = TopologyConfig(
        n_racks=topo.n_racks,
        hosts_per_rack=topo.hosts_per_rack,
        n_cores=topo.n_cores,
        load_balancing=ECMP,
    )
    env, fabric, _ = fabric_with_recorders(topo)
    dst = fabric.config.hosts_per_rack
    flow = Flow(77, 0, dst, 100_000, 0.0)
    send_paced(env, fabric, 0, dst, 50, flow=flow)
    env.run()
    used = [core for core in fabric.cores if core.pkts_forwarded > 0]
    assert len(used) == 1
    assert used[0].pkts_forwarded == 50


def test_unknown_lb_mode_rejected(rng):
    with pytest.raises(ValueError):
        make_tor_route({}, [], 0, rng, mode="magic")


def test_switch_without_route_raises(env):
    from repro.net.switch import Switch

    sw = Switch(0, "tor")
    pkt = Packet(PacketType.DATA, None, 0, 0, 1, 1500)
    with pytest.raises(RuntimeError):
        sw.receive(pkt)
