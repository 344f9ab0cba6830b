"""Unit tests for the fabric builder and ideal-FCT computation."""

from __future__ import annotations

import pytest

from repro.net.packet import Flow, Packet, PacketType
from repro.net.topology import Fabric, TopologyConfig
from repro.sim.engine import EventLoop
from repro.sim.randoms import SeededRng
from repro.sim.units import HEADER_BYTES, MSS_BYTES


def build(topo=None, seed=1):
    env = EventLoop()
    fabric = Fabric(env, topo or TopologyConfig.small(), SeededRng(seed))
    return env, fabric


def test_paper_topology_dimensions():
    topo = TopologyConfig.paper()
    assert topo.n_hosts == 144
    assert topo.n_racks == 9
    assert topo.n_cores == 4
    assert topo.access_gbps == 10.0
    assert topo.core_gbps == 40.0
    assert topo.buffer_bytes == 36_000
    assert topo.mtu_tx_time == pytest.approx(1.2e-6)


def test_fabric_wiring_counts():
    env, fabric = build()
    topo = fabric.config
    assert len(fabric.hosts) == topo.n_hosts
    assert len(fabric.tors) == topo.n_racks
    assert len(fabric.cores) == topo.n_cores
    for tor in fabric.tors:
        assert len(tor.ports) == topo.hosts_per_rack + topo.n_cores
    for core in fabric.cores:
        assert len(core.ports) == topo.n_racks


def test_rack_membership_and_hop_count():
    env, fabric = build()
    hpr = fabric.config.hosts_per_rack
    assert fabric.same_rack(0, hpr - 1)
    assert not fabric.same_rack(0, hpr)
    assert fabric.hop_count(0, 1) == 2
    assert fabric.hop_count(0, hpr) == 4


def test_topology_validation():
    with pytest.raises(ValueError):
        TopologyConfig(n_racks=0)
    with pytest.raises(ValueError):
        TopologyConfig(access_gbps=-1)
    with pytest.raises(ValueError):
        TopologyConfig(buffer_bytes=1000)  # under two MTUs


def test_opt_fct_single_packet_interrack():
    env, fabric = build()
    topo = fabric.config
    src, dst = 0, topo.hosts_per_rack  # different racks
    size = 1000
    wire = (size + HEADER_BYTES) * 8.0
    expected = (
        wire / topo.access_bps * 2
        + wire / topo.core_bps * 2
        + 4 * topo.propagation_delay
    )
    assert fabric.opt_fct(size, src, dst) == pytest.approx(expected)


def test_opt_fct_multi_packet_pipelines_on_access_link():
    env, fabric = build()
    topo = fabric.config
    src, dst = 0, topo.hosts_per_rack
    one = fabric.opt_fct(MSS_BYTES, src, dst)
    two = fabric.opt_fct(2 * MSS_BYTES, src, dst)
    # adding one full packet costs exactly one access serialization
    assert two - one == pytest.approx(1500 * 8 / topo.access_bps)


def test_opt_fct_monotone_in_size():
    env, fabric = build()
    sizes = [1, 1460, 10_000, 100_000, 1_000_000]
    opts = [fabric.opt_fct(s, 0, 5) for s in sizes]
    assert opts == sorted(opts)
    assert all(o > 0 for o in opts)


def test_opt_fct_intra_rack_faster_than_inter_rack():
    env, fabric = build()
    hpr = fabric.config.hosts_per_rack
    assert fabric.opt_fct(10_000, 0, 1) < fabric.opt_fct(10_000, 0, hpr)


def test_drop_accounting_by_hop():
    env, fabric = build()
    flow = Flow(1, 0, 1, 1500, 0.0)
    pkt = Packet(PacketType.DATA, flow, 0, 0, 1, 1500)
    fabric._record_drop(pkt, 3)
    fabric._record_drop(pkt, 3)
    fabric._record_drop(pkt, 1)
    assert fabric.drops_by_hop[3] == 2
    assert fabric.drops_by_hop[1] == 1
    assert fabric.drops_total == 3
    fabric.reset_counters()
    assert fabric.drops_total == 0


def test_drop_hook_invoked():
    # Subscribers to each drop list are called in attach order.
    env, fabric = build()
    seen = []
    fabric.drop_hooks.append(lambda pkt, hop: seen.append(("a", hop)))
    fabric.drop_hooks.append(lambda pkt, hop: seen.append(("b", hop)))
    fabric.fault_drop_hooks.append(lambda pkt, hop: seen.append(("fault", hop)))
    pkt = Packet(PacketType.DATA, None, 0, 0, 1, 1500)
    fabric._record_drop(pkt, 2)
    fabric.record_fault_drop(pkt, 3)
    assert seen == [("a", 2), ("b", 2), ("fault", 3)]


def test_base_rtt_positive_and_symmetric():
    env, fabric = build()
    hpr = fabric.config.hosts_per_rack
    assert fabric.base_rtt(0, hpr) == pytest.approx(fabric.base_rtt(hpr, 0))
    assert fabric.base_rtt(0, 1) < fabric.base_rtt(0, hpr)
