"""End-to-end telemetry: the fig9c incast acceptance check and the CLI.

The acceptance criterion from the issue: a tiny fig9c incast run with
sampling enabled must emit a queue-depth time series in which the
bottleneck destination port's sampled occupancy visibly peaks.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import main
from repro.experiments.defaults import SCALES
from repro.experiments.runner import run_incast
from repro.obs import ObservabilityConfig, validate_chrome_trace
from tests.net.models import use_two_event_hop


@pytest.fixture(scope="module")
def incast_report():
    result = run_incast(
        "phost",
        n_senders=9,
        total_bytes=1_000_000,
        n_requests=3,
        topology=SCALES["tiny"].topology,
        seed=42,
        observability=ObservabilityConfig(sample_period=20e-6),
    )
    assert result.telemetry is not None
    return result.telemetry


def test_incast_sampler_took_samples(incast_report):
    assert incast_report.samples_taken >= 10
    assert incast_report.n_instruments > 0
    series = incast_report.series
    assert len(series.times) == incast_report.samples_taken


def test_incast_bottleneck_port_peaks_at_destination(incast_report):
    series = incast_report.series
    qlen_cols = [n for n in series.names() if n.startswith("port.qlen_bytes{")]
    assert qlen_cols, "no queue-depth columns sampled"
    peaks = {name: series.peak(name)[1] for name in qlen_cols}
    hottest = max(peaks, key=lambda n: peaks[n])
    # 9 senders converge on one receiver: the deepest queue in the whole
    # fabric must be a ToR-down (hop 4) port, and the pile-up must be
    # visible — several packets deep, not a one-packet blip.
    assert "hop=4" in hottest, f"bottleneck not at destination: {hottest}"
    assert peaks[hottest] >= 3 * 1500, f"no visible peak: {peaks[hottest]}"
    # The destination port dwarfs every sender-side (hop 1) queue.
    hop1_max = max(
        (v for n, v in peaks.items() if "hop=1" in n), default=0.0
    )
    assert peaks[hottest] > hop1_max


def test_incast_high_water_gauge_agrees_with_series(incast_report):
    series = incast_report.series
    hottest = max(
        (n for n in series.names() if n.startswith("port.qlen_bytes{")),
        key=lambda n: series.peak(n)[1],
    )
    hwm_col = hottest.replace("port.qlen_bytes{", "port.qlen_max_bytes{")
    # The true high-water mark can exceed any sampled instant, never the
    # other way around.
    assert series.peak(hwm_col)[1] >= series.peak(hottest)[1]


def test_cli_full_observability_run(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    out_dir = tmp_path / "obs"
    rc = main(
        [
            "--run", "phost", "websearch",
            "--scale", "tiny",
            "--obs",
            "--profile",
            "--chrome-trace", str(trace),
            "--obs-out", str(out_dir),
            "--json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    obs = payload["obs"]
    assert obs["samples"] >= 1
    assert obs["n_instruments"] > 0
    assert obs["profile"]["total_events"] > 0
    assert obs["chrome_trace"] == str(trace)
    assert validate_chrome_trace(str(trace))
    written = {name.rsplit("/", 1)[-1] for name in obs["written"]}
    assert {"series.jsonl", "profile.txt", "summary.txt"} <= written
    # Every series row is one JSON object keyed by instrument name.
    lines = (out_dir / "series.jsonl").read_text().splitlines()
    assert len(lines) == obs["samples"]
    first = json.loads(lines[0])
    assert "t" in first and any(k.startswith("flows.") for k in first)


def test_cli_text_mode_prints_summary(capsys):
    rc = main(["--run", "phost", "websearch", "--scale", "tiny", "--obs"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "telemetry" in out.lower()
    assert "samples" in out.lower()


def _link_util_readings() -> dict:
    from repro import ExperimentSpec, TopologyConfig
    from repro.experiments.runner import run_flow_list
    from repro.net.packet import Flow

    spec = ExperimentSpec(
        protocol="phost", workload="fixed:1", n_flows=1, topology=TopologyConfig.small(),
        seed=1, observability=ObservabilityConfig(sample_period=100e-6),
    )
    result = run_flow_list(spec, [Flow(0, 0, 5, 400 * 1460, 0.0)])
    series = result.telemetry.series
    return {
        name: series.column(name) for name in series.names() if name.startswith("link.util{")
    }


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
def test_link_util_never_reads_above_line_rate(fused, monkeypatch):
    """A busy link's utilization counts the part of the packet on the
    wire, so a window never reads more than the link can carry, on the
    one-event hop and on the plain two-event one (tests/net/models.py)."""
    if not fused:
        use_two_event_hop(monkeypatch)
    readings = _link_util_readings()
    # The destination's downlink is saturated for most of the flow.
    assert max(readings["link.util{hop=4,port=tor1.down.h5}"]) > 0.99
    assert max(max(col) for col in readings.values()) <= 1.0 + 1e-9


def test_link_util_is_blind_to_port_fusion(monkeypatch):
    """``link.util`` reads the in-flight packet through ``busy_until``
    and the seq of the event being dispatched; the plain two-event hop
    reads it off its pending serialization-done event, and both hops
    give the same series."""
    fused = _link_util_readings()
    use_two_event_hop(monkeypatch)
    assert fused == _link_util_readings()
