"""Tests for the windowed throughput/concurrency series."""

from __future__ import annotations

import pytest

from repro import make_spec, run_experiment
from repro.experiments.runner import build_simulation
from repro.experiments.spec import ExperimentSpec
from repro.metrics.timeseries import ThroughputSeries
from repro.net.packet import Flow
from repro.net.topology import TopologyConfig
from repro.sim.engine import EventLoop


def wired_sim(window=50e-6):
    spec = ExperimentSpec(
        protocol="phost", workload="fixed:1", n_flows=1,
        topology=TopologyConfig.small(), seed=1,
    )
    ctx = build_simulation(spec)
    env, fabric, collector, _ = ctx.env, ctx.fabric, ctx.collector, ctx.config
    series = ThroughputSeries(env, window)
    collector.add_observer(series)
    return env, fabric, collector, series


def test_window_validation():
    with pytest.raises(ValueError):
        ThroughputSeries(EventLoop(), 0)


def test_bytes_binned_and_totalled():
    env, fabric, collector, series = wired_sim()
    flows = [Flow(i, i, (i + 4) % 12, 1460 * 5, i * 30e-6) for i in range(4)]
    collector.expected_flows = len(flows)
    for f in flows:
        env.schedule_at(f.arrival, fabric.hosts[f.src].agent.start_flow, f)
    env.run(until=0.05)
    assert all(f.completed for f in flows)
    assert series.total_bytes() == sum(f.size_bytes for f in flows)
    windows = series.windows()
    assert windows == sorted(windows, key=lambda w: w.start)
    assert sum(w.flows_completed for w in windows) == 4
    assert sum(w.flows_arrived for w in windows) == 4
    assert series.peak_goodput_bps() > 0


def test_active_flow_tracking():
    env, fabric, collector, series = wired_sim()
    # two overlapping flows to the same receiver
    a = Flow(1, 0, 5, 1460 * 200, 0.0)
    b = Flow(2, 1, 5, 1460 * 200, 0.0)
    collector.expected_flows = 2
    for f in (a, b):
        env.schedule_at(f.arrival, fabric.hosts[f.src].agent.start_flow, f)
    env.run(until=0.05)
    assert series.peak_active_flows == 2
    assert series.active_flows == 0  # everyone finished


def test_goodput_bounded_by_link_rate():
    env, fabric, collector, series = wired_sim(window=100e-6)
    flow = Flow(1, 0, 5, 1460 * 400, 0.0)
    collector.expected_flows = 1
    env.schedule_at(0.0, fabric.hosts[0].agent.start_flow, flow)
    env.run(until=0.05)
    # one 10G access link feeds the receiver: payload goodput < 10 Gbps
    assert series.peak_goodput_bps() < 10e9
    assert series.peak_goodput_bps() > 5e9  # and the link was actually busy


def test_window_dataclass_goodput():
    from repro.metrics.timeseries import Window

    w = Window(start=0.0, bytes_delivered=125_000, flows_completed=1, flows_arrived=2)
    assert w.goodput_bps(1e-3) == pytest.approx(1e9)



class _AttachSeries:
    """Instrument hook: attaches a ThroughputSeries to the run's collector."""

    def bind(self, ctx):
        self.collector = ctx.collector
        self.series = ThroughputSeries(ctx.env, 50e-6)
        ctx.collector.add_observer(self.series)


@pytest.mark.parametrize("protocol", ["phost", "pfabric"])
def test_series_survives_duplicate_deliveries(protocol):
    hook = _AttachSeries()
    spec = make_spec(protocol, "websearch", "tiny", seed=42).variant(instruments=(hook,))
    result = run_experiment(spec)
    assert hook.collector.data_pkts_duplicate > 0  # the hook was exercised
    assert result.n_completed == result.n_flows
    # Goodput counts each packet once: duplicates add no bytes.
    assert hook.series.total_bytes() == result.payload_bytes_delivered
