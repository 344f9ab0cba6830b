"""Tests for the k-ary fat-tree fabric."""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.net.fattree import FAT_TREE_HOP_NAMES, FatTreeConfig, FatTreeFabric
from repro.net.packet import Flow, Packet, PacketType
from repro.sim.engine import EventLoop
from repro.sim.randoms import SeededRng
from repro.validate import run_digest


class Recorder:
    def __init__(self):
        self.packets = []
        self.nic_pull = None

    def on_packet(self, pkt):
        self.packets.append(pkt)


def build(k=4, seed=1, **cfg_kwargs):
    env = EventLoop()
    config = FatTreeConfig(k=k, **cfg_kwargs)
    fabric = FatTreeFabric(env, config, SeededRng(seed))
    recorders = []
    for host in fabric.hosts:
        rec = Recorder()
        host.install_agent(rec)
        recorders.append(rec)
    return env, fabric, recorders


def test_dimensions_k4():
    cfg = FatTreeConfig(k=4)
    assert cfg.n_hosts == 16
    assert cfg.n_pods == 4
    assert cfg.hosts_per_pod == 4
    assert cfg.n_cores == 4
    env, fabric, _ = build(k=4)
    assert len(fabric.edges) == 8
    assert len(fabric.aggs) == 8
    assert len(fabric.cores) == 4
    # port counts: edge = k/2 hosts + k/2 aggs; agg = k/2 + k/2; core = k
    assert all(len(e.ports) == 4 for e in fabric.edges)
    assert all(len(a.ports) == 4 for a in fabric.aggs)
    assert all(len(c.ports) == 4 for c in fabric.cores)


def test_config_validation():
    with pytest.raises(ValueError):
        FatTreeConfig(k=3)       # odd
    with pytest.raises(ValueError):
        FatTreeConfig(k=0)
    with pytest.raises(ValueError):
        FatTreeConfig(link_gbps=0)
    with pytest.raises(ValueError):
        FatTreeConfig(load_balancing="magic")


def test_hop_counts():
    env, fabric, _ = build(k=4)
    assert fabric.hop_count(0, 1) == 2     # same edge
    assert fabric.hop_count(0, 2) == 4     # same pod, different edge
    assert fabric.hop_count(0, 4) == 6     # different pod


def send_paced(env, fabric, src, dst, n):
    for seq in range(n):
        flow = Flow(seq, src, dst, 1460, 0.0)
        pkt = Packet(PacketType.DATA, flow, seq, src, dst, 1500, priority=1)
        env.schedule_at(seq * 1.3e-6, fabric.hosts[src].send, pkt)


def test_every_pair_deliverable():
    env, fabric, recorders = build(k=4)
    n = fabric.config.n_hosts
    t = 0.0
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            flow = Flow(src * n + dst, src, dst, 1460, 0.0)
            pkt = Packet(PacketType.DATA, flow, 0, src, dst, 1500, priority=1)
            env.schedule_at(t, fabric.hosts[src].send, pkt)
            t += 1.3e-6
    env.run()
    for dst, rec in enumerate(recorders):
        assert len(rec.packets) == n - 1
        assert all(p.dst == dst for p in rec.packets)


def test_cross_pod_traverses_six_ports():
    env, fabric, recorders = build(k=4)
    send_paced(env, fabric, 0, 4, 1)
    env.run()
    (pkt,) = recorders[4].packets
    assert pkt.hops == 5  # edge, agg, core, agg, edge forwarded it


def test_spraying_spreads_over_cores():
    env, fabric, _ = build(k=4, seed=3)
    send_paced(env, fabric, 0, 4, 200)  # cross-pod
    env.run()
    used = [c.pkts_forwarded for c in fabric.cores]
    # edge sprays over 2 aggs; agg j reaches cores 2j..2j+1 -> all 4 usable
    assert sum(used) == 200
    assert all(u > 10 for u in used)


def test_opt_fct_distances():
    env, fabric, _ = build(k=4)
    same_edge = fabric.opt_fct(10_000, 0, 1)
    same_pod = fabric.opt_fct(10_000, 0, 2)
    cross_pod = fabric.opt_fct(10_000, 0, 4)
    assert same_edge < same_pod < cross_pod


def test_hop_names_cover_drop_indices():
    env, fabric, _ = build(k=4)
    assert set(fabric.drops_by_hop) == set(FAT_TREE_HOP_NAMES)


@pytest.mark.parametrize("protocol", ["phost", "pfabric", "fastpass"])
def test_protocols_run_end_to_end_on_fat_tree(protocol):
    spec = ExperimentSpec(
        protocol=protocol,
        workload="imc10",
        load=0.6,
        n_flows=100,
        topology=FatTreeConfig(k=4),
        max_flow_bytes=120_000,
        seed=5,
    )
    result = run_experiment(spec)
    assert result.completion_rate == 1.0
    assert result.mean_slowdown() >= 1.0 - 1e-9


def test_fastpass_still_beaten_by_phost_on_fat_tree():
    """The paper's comparison is topology-robust given full bisection."""
    base = dict(workload="imc10", load=0.6, n_flows=150,
                topology=FatTreeConfig(k=4), max_flow_bytes=120_000, seed=6)
    phost = run_experiment(ExperimentSpec(protocol="phost", **base))
    fastpass = run_experiment(ExperimentSpec(protocol="fastpass", **base))
    assert fastpass.mean_slowdown() > 1.5 * phost.mean_slowdown()


def test_bigger_radix_builds():
    env, fabric, _ = build(k=6)
    assert fabric.config.n_hosts == 54
    assert len(fabric.cores) == 9


#: Unfaulted run digests of tiny imc10 runs (100 flows, seed 7) on the
#: fat-tree, recorded before the fat-tree became a subclass of
#: ``Fabric`` routed by ``repro.net.routing``: the rewiring must leave
#: every spray draw, ECMP hash and port construction where it was.
FAT_TREE_DIGESTS = {
    (4, "spray", "phost"): "aa20eafef1f2dee0242d5ac5ce596f51a07001093346ac90020c145b55635160",
    (4, "spray", "pfabric"): "96501164256b5f2db1694d700ec597588a83eee57b1e58bf89f2418623b26dbe",
    (4, "spray", "fastpass"): "8e7f0f0fb6339bce8f70aecaea1ea922a653f728a33fbb7c91d2c0b06f81c899",
    (4, "ecmp", "phost"): "832b8557e19ffd3af72a1999b5821bfc424fce6dd293ae7ba0f3598d3caad87d",
    (4, "ecmp", "pfabric"): "4bb903ed88777bbf6962e74bdcab5d8a91e5df3ba0b005b7aba3789d5f2d9321",
    (4, "ecmp", "fastpass"): "fef72ad647fe3d5cfe4757743bba3ab7dbde0e8ee3d1b3ef0e5d2608b1ad3895",
    (6, "spray", "phost"): "25af2cac3841736a7a4f7d97508c4811547afd3a8eef97258ba4a59eaa17ee6c",
    (6, "spray", "pfabric"): "8d3e920d3cd1db0e2bbfdbba2b71f140c801f469fc38f7ea333e577af0296c7c",
    (6, "spray", "fastpass"): "33dbe27a52301451490175e3cb0ada579d64fa6defd2252e3570f8a6c2c62171",
    (6, "ecmp", "phost"): "8a368e62f396d4ca70aa96bf089e8513c99d0b925bc27481f1d25a0a8beabc12",
    (6, "ecmp", "pfabric"): "03fe314c0e21a4d6ea05f5f9470e6cc02a400fae93b9cc340cc5f8d7975642ef",
    (6, "ecmp", "fastpass"): "67fe36aa6d096d76bf5f3b8ea26b56118e7ffcff5f77e8f42e220dadf29d6628",
}


@pytest.mark.parametrize("k,lb,protocol", sorted(FAT_TREE_DIGESTS))
def test_unfaulted_fat_tree_digest_is_pinned(k, lb, protocol):
    spec = ExperimentSpec(
        protocol=protocol,
        workload="imc10",
        load=0.6,
        n_flows=100,
        topology=FatTreeConfig(k=k, load_balancing=lb),
        max_flow_bytes=120_000,
        seed=7,
    )
    assert run_digest(run_experiment(spec)) == FAT_TREE_DIGESTS[(k, lb, protocol)]
