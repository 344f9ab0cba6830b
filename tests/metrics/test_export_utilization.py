"""Tests for record export/import, JSON summaries, and link-utilization
accounting."""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.metrics.export import load_records, result_to_json, save_records
from repro.net.topology import TopologyConfig


@pytest.fixture(scope="module")
def result():
    spec = ExperimentSpec(
        protocol="phost", workload="imc10", n_flows=60,
        topology=TopologyConfig.small(), max_flow_bytes=100_000,
        with_deadlines=True, seed=3,
    )
    return run_experiment(spec)


def test_records_round_trip(tmp_path, result):
    path = tmp_path / "records.csv"
    assert save_records(result.records, path) == len(result.records)
    loaded = load_records(path)
    assert len(loaded) == len(result.records)
    for a, b in zip(result.records, loaded):
        assert a == b  # frozen dataclasses compare by value
    # derived metrics agree
    from repro.metrics.slowdown import mean_slowdown

    assert mean_slowdown(loaded) == pytest.approx(result.mean_slowdown())


def test_load_rejects_foreign_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_records(path)


def test_result_to_json(tmp_path, result):
    path = result_to_json(result, tmp_path / "summary.json")
    payload = json.loads(path.read_text())
    assert payload["spec"]["protocol"] == "phost"
    assert payload["spec"]["topology"]["n_racks"] == 3
    assert payload["metrics"]["n_completed"] == 60
    assert payload["metrics"]["mean_slowdown"] >= 1.0


def test_incomplete_flow_round_trips_as_none(tmp_path):
    from repro.metrics.records import FlowRecord

    record = FlowRecord(fid=1, src=0, dst=1, size_bytes=10, n_pkts=1,
                        tenant=0, arrival=0.0, finish=None, opt=1.0)
    path = tmp_path / "r.csv"
    save_records([record], path)
    (loaded,) = load_records(path)
    assert loaded.finish is None
    assert loaded.slowdown is None


# ----------------------------------------------------------------------
# Link utilization
# ----------------------------------------------------------------------

def test_utilization_by_hop_reflects_traffic():
    from repro.experiments.runner import build_simulation
    from repro.net.packet import Flow

    spec = ExperimentSpec(protocol="phost", workload="fixed:1", n_flows=1,
                          topology=TopologyConfig.small(), seed=1)
    ctx = build_simulation(spec)
    env, fabric, collector, _ = ctx.env, ctx.fabric, ctx.collector, ctx.config
    dst = fabric.config.hosts_per_rack  # inter-rack: exercises all hops
    flow = Flow(1, 0, dst, 200 * 1460, 0.0)
    collector.expected_flows = 1
    env.schedule_at(0.0, fabric.hosts[0].agent.start_flow, flow)
    env.run(until=0.01)
    assert flow.completed
    util = fabric.utilization_by_hop(flow.finish)
    assert set(util) == {1, 2, 3, 4}
    # one busy NIC out of 12 -> hop-1 mean ~1/12; core carried the same
    # bytes over 2x-faster links and 6 ports -> much lower
    assert util[1] == pytest.approx(1 / 12, rel=0.25)
    assert util[3] < util[1]
    assert all(0 <= u <= 1.0 for u in util.values())


def test_utilization_requires_positive_duration(fabric):
    with pytest.raises(ValueError):
        fabric.utilization_by_hop(0.0)


@pytest.fixture(params=["two-tier", "fat-tree"])
def any_fabric(request, env, rng):
    from repro.net.fattree import FatTreeConfig, FatTreeFabric
    from repro.net.topology import Fabric

    if request.param == "fat-tree":
        return FatTreeFabric(env, FatTreeConfig(k=4), rng)
    return Fabric(env, TopologyConfig.small(), rng)


def test_reset_counters_clears_port_bytes(any_fabric):
    from repro.net.packet import Packet, PacketType

    fabric = any_fabric
    for port in fabric.all_ports():
        port.bytes_sent = 999
        port.pkts_sent = 9
        port.max_qlen_bytes = 9000
        port.max_qlen_pkts = 9
    pkt = Packet(PacketType.DATA, None, 0, 0, 1, 1500)
    fabric._record_drop(pkt, 2)
    fabric.record_fault_drop(pkt, 2, "loss")
    fabric.reset_counters()
    for port in fabric.all_ports():
        assert (port.bytes_sent, port.pkts_sent) == (0, 0)
        assert (port.max_qlen_bytes, port.max_qlen_pkts) == (0, 0)
    assert fabric.drops_total == 0
    assert set(fabric.drops_by_hop.values()) == {0}
    assert fabric.fault_drops_total == 0
    assert set(fabric.fault_drops_by_hop.values()) == {0}
    assert fabric.fault_drops_by_reason == {}
