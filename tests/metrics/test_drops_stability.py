"""Tests for drop stats and the Fig. 7 stability machinery."""

from __future__ import annotations

import pytest

from repro.metrics.collector import MetricsCollector
from repro.metrics.drops import DropStats
from repro.metrics.stability import (
    StabilitySample,
    StabilityTracker,
    samples_stable,
)
from repro.metrics.throughput import normalized_throughput, per_host_goodput_gbps
from repro.net.packet import Flow
from repro.sim.engine import EventLoop


def test_drop_stats_math():
    stats = DropStats(
        by_hop={1: 10, 2: 1, 3: 2, 4: 7},
        total_drops=20,
        pkts_injected=900,
        pkts_retransmitted=100,
    )
    assert stats.drop_rate == pytest.approx(0.02)
    assert stats.edge_drops == 17
    assert stats.fabric_drops == 3
    names = [name for name, _ in stats.rows()]
    assert names == ["host NIC", "ToR up", "core", "ToR down"]


def test_fat_tree_drop_stats_name_all_six_hops():
    from repro.net.fattree import FatTreeConfig, FatTreeFabric
    from repro.net.packet import Packet, PacketType
    from repro.sim.randoms import SeededRng

    fabric = FatTreeFabric(EventLoop(), FatTreeConfig(k=4), SeededRng(1))
    pkt = Packet(PacketType.DATA, None, 0, 0, 1, 1500)
    for hop, count in {1: 1, 3: 2, 4: 4, 5: 8, 6: 16}.items():
        for _ in range(count):
            fabric._record_drop(pkt, hop)
    stats = DropStats.from_run(fabric, MetricsCollector())
    assert stats.rows() == [
        ("host NIC", 1),
        ("edge up", 0),
        ("agg up", 2),
        ("core", 4),
        ("agg down", 8),
        ("edge down", 16),
    ]
    assert stats.edge_drops == 17
    assert stats.fabric_drops == 14
    assert "agg down=8, edge down=16" in str(stats)


def test_drop_rate_zero_when_nothing_sent():
    stats = DropStats(by_hop={}, total_drops=0, pkts_injected=0, pkts_retransmitted=0)
    assert stats.drop_rate == 0.0


def test_stability_tracker_samples_on_schedule():
    env = EventLoop()
    c = MetricsCollector()
    c.total_pkts_offered = 100
    tracker = StabilityTracker(env, c, period=1e-3)
    tracker.start()
    f = Flow(1, 0, 1, 1460 * 50, 0.0)
    env.schedule_at(0.5e-3, c.flow_arrived, f, 0.5e-3)
    env.run(until=3.5e-3)
    tracker.stop()
    assert len(tracker.samples) == 3
    # the flow (50 of 100 offered pkts) arrived before the first sample
    assert tracker.samples[0].frac_arrived == pytest.approx(0.5)
    assert tracker.samples[-1].frac_pending == pytest.approx(0.5)


def test_tracker_requires_positive_period():
    with pytest.raises(ValueError):
        StabilityTracker(EventLoop(), MetricsCollector(), period=0)


def _series(pendings, arriveds=None):
    arriveds = arriveds or [i / len(pendings) for i in range(1, len(pendings) + 1)]
    return [
        StabilitySample(time=i * 1.0, frac_arrived=a, frac_pending=p)
        for i, (a, p) in enumerate(zip(arriveds, pendings))
    ]


def test_flat_series_is_stable():
    assert samples_stable(_series([0.05] * 12))


def test_ramp_then_plateau_is_stable():
    """The ramp-up transient must not count against stability."""
    ramp = [0.02 * i for i in range(1, 5)]
    plateau = [0.09, 0.08, 0.09, 0.09, 0.08, 0.09, 0.09, 0.09]
    assert samples_stable(_series(ramp + plateau))


def test_rising_series_is_unstable():
    assert not samples_stable(_series([0.03 * i for i in range(1, 13)]))


def test_drain_after_arrivals_does_not_mask_instability():
    """Pending rising during arrivals, then draining to zero afterwards
    (frac_arrived pinned at 1.0) must still read as unstable."""
    rising = _series([0.05 * i for i in range(1, 9)])
    draining = [
        StabilitySample(time=100 + i, frac_arrived=1.0, frac_pending=0.4 - 0.05 * i)
        for i in range(8)
    ]
    assert not samples_stable(rising + draining)


def test_few_samples_defaults_to_stable():
    assert samples_stable(_series([0.5, 0.9]))


def test_throughput_normalization():
    c = MetricsCollector()
    c.payload_bytes_delivered = 125_000_000  # 1 Gbit
    c.first_arrival = 0.0
    c.last_completion = 1.0
    assert per_host_goodput_gbps(c, n_hosts=10) == pytest.approx(0.1)
    assert normalized_throughput(c, 10, 10e9) == pytest.approx(0.01)
    assert per_host_goodput_gbps(c, 0) == 0.0
