"""Queue occupancy per port and hop, watched through telemetry — including
the §2.3 claim that contention lives at the edge, not the core.

Telemetry registers ``port.qlen_bytes{hop=,port=}`` (and its high-water
mark) for every port of the fabric; the periodic sampler turns those
gauges into columns of a `ColumnarSeries`.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import build_simulation, run_flow_list
from repro.experiments.spec import ExperimentSpec
from repro.net.fattree import FatTreeConfig
from repro.net.packet import Flow, Packet, PacketType
from repro.net.topology import TopologyConfig
from repro.obs import ObservabilityConfig, PeriodicSampler, Telemetry

QLEN = "port.qlen_bytes"


def spec(topology=None, sample_period=None):
    return ExperimentSpec(
        protocol="phost",
        workload="fixed:1460",
        n_flows=1,
        topology=topology or TopologyConfig.small(),
        observability=ObservabilityConfig(sample_period=sample_period),
        seed=1,
    )


def qlen_gauges(ctx):
    return [i for i in ctx.obs.instruments() if i.name == QLEN]


def series_of(ctx):
    (telemetry,) = ctx.hooks_of_type(Telemetry)
    return telemetry.sampler.series


def peak_bytes_by_hop(series):
    """Max sampled ``port.qlen_bytes`` per hop class."""
    peaks = {}
    for name, values in series.columns.items():
        if name.startswith(QLEN + "{"):
            hop = int(name.split("hop=")[1].split(",")[0])
            peaks[hop] = max(peaks.get(hop, 0.0), max(values))
    return peaks


def test_monitor_validates_inputs():
    with pytest.raises(ValueError):
        ObservabilityConfig(sample_period=0)
    with pytest.raises(ValueError):
        PeriodicSampler(period=1e-6, burn_in=-1.0)


def test_over_fabric_covers_all_port_classes():
    ctx = build_simulation(spec())
    gauges = qlen_gauges(ctx)
    assert sorted(g.labels["port"] for g in gauges) == sorted(
        p.name for p in ctx.fabric.all_ports()
    )
    assert {g.labels["hop"] for g in gauges} == {1, 2, 3, 4}


def test_over_fabric_samples_every_fat_tree_port():
    ctx = build_simulation(spec(topology=FatTreeConfig(k=4)))
    ports = ctx.fabric.all_ports()
    gauges = qlen_gauges(ctx)
    assert sorted(g.labels["port"] for g in gauges) == sorted(p.name for p in ports)
    assert {g.labels["hop"] for g in gauges} == {1, 2, 3, 4, 5, 6}
    # Two packets behind a busy transmitter on every port: each one
    # holds a queue when read.
    for port in ports:
        for seq in range(2):
            port.send(Packet(PacketType.DATA, None, seq, 0, 1, 1500, priority=1))
    assert all(g.read() == 1500 for g in gauges)


def test_idle_fabric_produces_no_samples():
    # Sampling an idle fabric records only empty queues.
    ctx = build_simulation(spec(sample_period=1e-6))
    ctx.env.run(until=1e-5)
    peaks = peak_bytes_by_hop(series_of(ctx))
    assert peaks == {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}


def test_contention_queues_at_last_hop_not_core():
    """Many senders, one receiver: queueing concentrates at the
    receiver's ToR-down port (hop 4); the sprayed core stays shallow —
    the paper's 'why pHost works' argument made measurable."""
    flows = [Flow(i, sender, 0, 1460 * 12, 0.0) for i, sender in enumerate(range(1, 12))]
    result = run_flow_list(spec(sample_period=2e-6), flows)
    assert result.n_completed == 11
    peaks = peak_bytes_by_hop(result.telemetry.series)
    assert peaks[4] > 0
    assert peaks[4] >= peaks[3]


def test_peak_tracks_maximum():
    ctx = build_simulation(spec(sample_period=1e-6))
    port = ctx.fabric.hosts[0].port
    # jam three packets behind a busy port, then let them drain
    flow = Flow(99, 0, 1, 1460 * 1000, 0.0)  # far from completion
    for seq in range(4):
        port.send(Packet(PacketType.DATA, flow, seq, 0, 1, 1500, priority=1))
    ctx.env.run(until=1e-4)
    series = series_of(ctx)
    column = f"{QLEN}{{hop=1,port={port.name}}}"
    assert series.peak(column) == (0.0, 3 * 1500)
    assert series.column(column)[-1] == 0
    high_water = f"port.qlen_max_bytes{{hop=1,port={port.name}}}"
    assert series.column(high_water)[-1] == 3 * 1500
