"""Event-loop profiler tests.

The acceptance criterion: per-event-type counts sum to exactly the
loop's total dispatched events, and a profiled run is byte-identical to
the unprofiled run of the same spec.
"""

from __future__ import annotations

import pytest

from repro.experiments.defaults import make_spec
from repro.experiments.runner import run_experiment
from repro.obs import EventLoopProfiler, ObservabilityConfig
from repro.sim.engine import EventLoop


def tick():
    pass


def tock():
    pass


def test_counts_by_qualname():
    env = EventLoop()
    profiler = EventLoopProfiler()
    env.set_profiler(profiler)
    for i in range(5):
        env.schedule_at(i * 1.0, tick)
    env.schedule_at(2.5, tock)
    env.run()
    stats = profiler.by_type()
    assert stats["tick"]["count"] == 5
    assert stats["tock"]["count"] == 1
    assert profiler.total_events == 6
    assert stats["tick"]["first_sim_time"] == 0.0
    assert stats["tick"]["last_sim_time"] == 4.0


@pytest.mark.parametrize("protocol", ["phost", "pfabric", "fastpass", "dctcp"])
def test_profiled_run_is_the_unprofiled_run_with_counts(protocol):
    """The profiler rides the one dispatch loop: same digest, same
    event total, and per-type counts summing to exactly that total."""
    from repro.validate import run_digest

    bare = make_spec(protocol, "websearch", "tiny", seed=42)
    reference = run_experiment(bare)
    result = run_experiment(
        bare.variant(
            observability=ObservabilityConfig(sample_period=None, profile=True)
        )
    )
    profile = result.telemetry.profile
    assert profile is not None
    counted = sum(stats["count"] for stats in profile["by_type"].values())
    assert counted == profile["total_events"] == result.events_processed
    assert result.events_processed == reference.events_processed
    assert run_digest(result) == run_digest(reference)
    assert profile["wall_self_seconds"] > 0.0


def test_removing_profiler_restores_plain_loop():
    env = EventLoop()
    profiler = EventLoopProfiler()
    env.set_profiler(profiler)
    env.schedule_at(0.0, tick)
    env.run()
    assert profiler.total_events == 1
    env.set_profiler(None)
    env.schedule_at(1.0, tick)
    env.run()
    assert profiler.total_events == 1  # unprofiled events not recorded
    assert env.events_processed == 2


def test_heartbeat_emission_and_eta():
    beats = []
    # Interval 0.0: every 256-event check fires a heartbeat.
    profiler = EventLoopProfiler(
        heartbeat_wall_seconds=0.0, on_heartbeat=beats.append
    )
    env = EventLoop()
    env.set_profiler(profiler)
    for i in range(600):
        env.schedule_at(i * 1e-6, tick)
    env.run(until=1e-3)
    assert profiler.heartbeats_emitted == len(beats) == 2  # at 256 and 512
    hb = beats[-1]
    assert hb.events_total == 512
    assert hb.sim_now == pytest.approx(511e-6)
    assert hb.eta_seconds is not None and hb.eta_seconds >= 0.0
    assert "ev/s" in str(hb)


def test_negative_heartbeat_interval_rejected():
    with pytest.raises(ValueError):
        EventLoopProfiler(heartbeat_wall_seconds=-1.0)


def test_report_and_ranking():
    env = EventLoop()
    profiler = EventLoopProfiler()
    env.set_profiler(profiler)
    for i in range(10):
        env.schedule_at(float(i), tick)
    env.schedule_at(0.5, tock)
    env.run()
    ranked = profiler.ranked()
    assert {row["event"] for row in ranked} == {"tick", "tock"}
    assert ranked[0]["self_seconds"] >= ranked[-1]["self_seconds"]
    text = profiler.report()
    assert "tick" in text and "11 events" in text
    hist = profiler.sim_time_histogram("tick")
    assert hist is not None and hist.count == 10


def test_hotspots_share_and_per_event_cost():
    env = EventLoop()
    profiler = EventLoopProfiler()
    env.set_profiler(profiler)
    for i in range(8):
        env.schedule_at(float(i), tick)
    env.schedule_at(0.5, tock)
    env.run()
    spots = profiler.hotspots(top=2)
    assert len(spots) == 2
    # shares are fractions of the total self-time, hottest first
    assert spots[0]["self_seconds"] >= spots[1]["self_seconds"]
    for row in spots:
        assert 0.0 <= row["share"] <= 1.0
        assert row["mean_seconds"] * row["count"] == pytest.approx(
            row["self_seconds"]
        )
    assert sum(r["share"] for r in profiler.hotspots(top=10)) == pytest.approx(1.0)
    text = profiler.report()
    assert "hotspot #1:" in text and "% of self-time" in text


def test_hotspots_empty_profile():
    profiler = EventLoopProfiler()
    assert profiler.hotspots() == []
    assert "hotspot" not in profiler.report()
