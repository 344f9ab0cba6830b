"""Delivery and concurrency over time, read from the sampled telemetry
series (`ColumnarSeries` columns filled by the periodic sampler)."""

from __future__ import annotations

import pytest

from repro import make_spec, run_experiment
from repro.experiments.runner import run_flow_list
from repro.experiments.spec import ExperimentSpec
from repro.net.packet import Flow
from repro.net.topology import TopologyConfig
from repro.obs import ChromeTraceSink, ObservabilityConfig
from repro.validate import standard_auditors


def sampled_run(flows, window=50e-6):
    spec = ExperimentSpec(
        protocol="phost", workload="fixed:1", n_flows=1,
        topology=TopologyConfig.small(), seed=1,
        observability=ObservabilityConfig(sample_period=window),
    )
    result = run_flow_list(spec, flows)
    assert result.n_completed == len(flows)
    return result, result.telemetry.series


def test_bytes_binned_and_totalled():
    flows = [Flow(i, i, (i + 4) % 12, 1460 * 5, i * 30e-6) for i in range(4)]
    result, series = sampled_run(flows)
    assert series.times == sorted(series.times) and len(series) > 2
    delivered = series.column("pkts.delivered")
    assert delivered == sorted(delivered)  # cumulative, one row per window
    assert delivered[-1] * 1460 == sum(f.size_bytes for f in flows)
    assert result.payload_bytes_delivered == sum(f.size_bytes for f in flows)
    assert series.column("flows.completed")[-1] == 4


def test_active_flow_tracking():
    # two overlapping flows to the same receiver
    flows = [Flow(1, 0, 5, 1460 * 200, 0.0), Flow(2, 1, 5, 1460 * 200, 0.0)]
    _, series = sampled_run(flows)
    active = series.column("flows.active")
    assert max(active) == 2
    assert active[-1] == 0  # everyone finished


def test_goodput_bounded_by_link_rate():
    window = 100e-6
    flows = [Flow(1, 0, 5, 1460 * 400, 0.0)]
    _, series = sampled_run(flows, window=window)
    delivered = series.column("pkts.delivered")
    goodput_bps = [
        (b - a) * 1460 * 8 / window for a, b in zip(delivered, delivered[1:])
    ]
    # one 10G access link feeds the receiver: payload goodput < 10 Gbps
    assert max(goodput_bps) < 10e9
    assert max(goodput_bps) > 5e9  # and the link was actually busy


class _CaptureCollector:
    """Instrument hook: keeps the run's collector for inspection."""

    def bind(self, ctx):
        self.collector = ctx.collector


@pytest.mark.parametrize("protocol", ["phost", "pfabric"])
def test_series_survives_duplicate_deliveries(protocol):
    # Every stacked observer (sink, auditors) takes duplicate
    # deliveries, and the sampled delivery count holds each packet once.
    hook = _CaptureCollector()
    spec = make_spec(protocol, "websearch", "tiny", seed=42).variant(
        instruments=(hook, ChromeTraceSink(), *standard_auditors()),
        observability=ObservabilityConfig(sample_period=100e-6),
    )
    result = run_experiment(spec)
    collector = hook.collector
    assert collector.data_pkts_duplicate > 0  # the hook was exercised
    assert result.n_completed == result.n_flows
    assert result.audit.ok
    assert result.telemetry.series.column("pkts.delivered")[-1] == (
        collector.data_pkts_delivered
    )
