"""Tests for the k-ary fat-tree fabric."""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.net.fattree import FAT_TREE_HOP_NAMES, FatTreeConfig, FatTreeFabric
from repro.net.packet import Flow, Packet, PacketType
from repro.sim.engine import EventLoop
from repro.sim.randoms import SeededRng
from repro.validate import run_digest
from tests.validate.test_golden_trace import GOLDEN_PATH


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


#: Unfaulted tiny imc10 runs (100 flows, seed 7) on the fat-tree whose
#: run digests are pinned in ``tests/validate/golden_digests.json``
#: (rewritten by ``scripts/refresh_goldens.py``): spray draws, ECMP
#: hashes and port construction must stay where they are.
FAT_TREE_CASES = [
    (k, lb, protocol)
    for k in (4, 6)
    for lb in ("ecmp", "spray")
    for protocol in ("fastpass", "pfabric", "phost")
]


def fat_tree_key(k: int, lb: str, protocol: str) -> str:
    """The case's name in ``golden_digests.json``."""
    return f"fattree-k{k}-{lb}-{protocol}-imc10-seed7"


def fat_tree_digest(k: int, lb: str, protocol: str) -> str:
    spec = ExperimentSpec(
        protocol=protocol,
        workload="imc10",
        load=0.6,
        n_flows=100,
        topology=FatTreeConfig(k=k, load_balancing=lb),
        max_flow_bytes=120_000,
        seed=7,
    )
    return run_digest(run_experiment(spec))


def compute_fat_tree_digests() -> dict:
    """Every fat-tree pin, keyed as in ``golden_digests.json``."""
    return {fat_tree_key(*case): fat_tree_digest(*case) for case in FAT_TREE_CASES}


@pytest.mark.parametrize("k,lb,protocol", FAT_TREE_CASES)
def test_unfaulted_fat_tree_digest_is_pinned(k, lb, protocol):
    goldens = json.loads(GOLDEN_PATH.read_text())
    assert fat_tree_digest(k, lb, protocol) == goldens[fat_tree_key(k, lb, protocol)]
