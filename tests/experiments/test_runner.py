"""Integration tests for the experiment runner and special drivers."""

from __future__ import annotations

import pytest

from repro.protocols.phost.config import PHostConfig
from repro.experiments.runner import (
    run_experiment,
    run_incast,
    run_tenant_fairness,
)
from repro.experiments.spec import ExperimentSpec
from repro.net.topology import TopologyConfig

TINY = dict(topology=TopologyConfig.small(), max_flow_bytes=100_000, n_flows=80)


@pytest.mark.parametrize("protocol", ["phost", "pfabric", "fastpass"])
def test_each_protocol_completes_all_flows(protocol):
    spec = ExperimentSpec(protocol=protocol, workload="imc10", seed=2, **TINY)
    result = run_experiment(spec)
    assert result.n_completed == result.n_flows
    assert result.completion_rate == 1.0
    assert result.mean_slowdown() >= 1.0 - 1e-9
    assert all(r.slowdown is None or r.slowdown >= 1.0 - 1e-9 for r in result.records)


def test_runs_are_deterministic_given_seed():
    spec = ExperimentSpec(protocol="phost", workload="datamining", seed=11, **TINY)
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert [(r.fid, r.finish) for r in a.records] == [(r.fid, r.finish) for r in b.records]
    assert a.drops.by_hop == b.drops.by_hop


def test_different_seeds_differ():
    base = ExperimentSpec(protocol="phost", workload="datamining", **TINY)
    a = run_experiment(base.variant(seed=1))
    b = run_experiment(base.variant(seed=2))
    assert [r.finish for r in a.records] != [r.finish for r in b.records]


def test_unknown_protocol_and_workload_rejected():
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec(protocol="tcp-reno", **TINY))
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec(workload="cachefollower", **TINY))


def test_bimodal_and_fixed_workloads_run():
    spec = ExperimentSpec(
        protocol="phost", workload="bimodal", bimodal_fraction_short=0.9,
        topology=TopologyConfig.small(), n_flows=50, seed=3,
    )
    result = run_experiment(spec)
    assert result.completion_rate == 1.0
    spec = ExperimentSpec(
        protocol="phost", workload="fixed:2920",
        topology=TopologyConfig.small(), n_flows=30, seed=3,
    )
    result = run_experiment(spec)
    assert all(r.size_bytes == 2920 for r in result.records)


def test_permutation_tm_runs():
    spec = ExperimentSpec(
        protocol="phost", workload="imc10", traffic_matrix="permutation",
        seed=4, **TINY,
    )
    result = run_experiment(spec)
    assert result.completion_rate == 1.0
    # all flows of one source go to one destination
    by_src = {}
    for r in result.records:
        by_src.setdefault(r.src, set()).add(r.dst)
    assert all(len(dsts) == 1 for dsts in by_src.values())


def test_deadline_assignment_plumbs_through():
    spec = ExperimentSpec(
        protocol="phost", workload="imc10", with_deadlines=True, seed=5, **TINY,
    )
    result = run_experiment(spec)
    assert all(r.deadline is not None for r in result.records)
    assert 0.0 <= result.deadline_met_fraction() <= 1.0


def test_stability_sampling_collects_series():
    spec = ExperimentSpec(
        protocol="phost", workload="imc10", stability_samples=8, seed=6, **TINY,
    )
    result = run_experiment(spec)
    assert len(result.stability) >= 8
    assert result.stability[-1].frac_arrived == pytest.approx(1.0)


def test_time_guard_halts_overloaded_run():
    spec = ExperimentSpec(
        protocol="pfabric", workload="imc10", load=4.0, seed=7,
        time_guard_factor=1.05, **TINY,
    )
    result = run_experiment(spec)
    assert result.n_completed < result.n_flows  # guard fired, no deadlock


def test_incast_driver_closed_loop():
    result = run_incast(
        "phost", n_senders=4, total_bytes=400_000, n_requests=3,
        topology=TopologyConfig.small(), seed=8,
    )
    assert len(result.rcts) == 3
    assert len(result.fcts) == 12
    assert result.mean_rct >= result.mean_fct > 0
    # RCT lower bound: receiver link must carry all bytes of a request
    assert result.mean_rct >= 400_000 * 8 / 10e9


def test_tenant_fairness_driver_shares_sum_to_one():
    result = run_tenant_fairness(
        "phost",
        {0: "imc10", 1: "websearch"},
        bytes_per_tenant=3_000_000,
        topology=TopologyConfig.small(),
        max_flow_bytes=200_000,
        protocol_config=PHostConfig.tenant_fair(),
        seed=9,
    )
    assert sum(result.shares.values()) == pytest.approx(1.0)
    assert set(result.drain_time) == {0, 1}
    assert all(v > 0 for v in result.throughput_bps.values())


def test_flow_arrivals_are_streamed_through_the_event_heap():
    """run_flow_list holds the next arrival in the heap, not all of
    them: pending events track flows in flight, not flows to come."""
    from repro.experiments.runner import build_simulation, run_flow_list
    from repro.net.packet import Flow

    spec = ExperimentSpec(protocol="phost", workload="fixed:1460", seed=3, **TINY)
    ctx = build_simulation(spec)
    n_hosts = ctx.fabric.config.n_hosts
    # 300 one-packet flows, 100 us apart (each is long done before the
    # next), given out of arrival order and with one pair tied.
    flows = [
        Flow(i, i % n_hosts, (i + 1) % n_hosts, 1460, (i - 1 if i == 7 else i) * 1e-4)
        for i in reversed(range(300))
    ]
    started, pending = [], []
    arrived = ctx.collector.flow_arrived

    def spy(flow, now):
        started.append(flow.fid)
        pending.append(ctx.env.pending_count())
        arrived(flow, now)

    ctx.collector.flow_arrived = spy
    result = run_flow_list(spec, flows, ctx)
    assert result.n_completed == 300
    # sorted by arrival; the tie (fids 7 and 6 at 6e-4) keeps list order
    assert started == [0, 1, 2, 3, 4, 5, 7, 6] + list(range(8, 300))
    assert max(pending) < 20
