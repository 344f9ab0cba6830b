"""Regression diffs and the HTML dashboard (repro.obs.report)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.net.topology import TopologyConfig
from repro.obs import ObservabilityConfig
from repro.obs.report import (
    DEFAULT_THRESHOLDS,
    Threshold,
    diff_entries,
    render_dashboard,
    validate_dashboard,
)
from repro.obs.store import LedgerEntry, RunLedger


# ----------------------------------------------------------------------
# Diff threshold logic (synthetic entries — no simulation needed)
# ----------------------------------------------------------------------

def _entry(metrics, spec_hash="a" * 64, digest="b" * 64, seed=42):
    return LedgerEntry(
        Path("/nonexistent"),
        {
            "meta": {
                "spec_hash": spec_hash,
                "family_hash": "f" * 64,
                "run_digest": digest,
                "protocol": "phost",
                "workload": "websearch",
                "load": 0.6,
                "seed": seed,
            },
            "metrics": metrics,
        },
    )


BASE_METRICS = {
    "mean_slowdown": 2.0,
    "p99_slowdown": 8.0,
    "nfct": 1.5,
    "completion_rate": 1.0,
    "goodput_gbps_per_host": 0.8,
    "drop_rate": 0.01,
    "duration": 0.02,
    "events_processed": 1000,
    "wall_seconds": 1.0,
}


def _diff(changes, *, same_spec=True):
    candidate = dict(BASE_METRICS, **changes)
    baseline = _entry(BASE_METRICS)
    other = _entry(
        candidate,
        spec_hash=("a" if same_spec else "c") * 64,
        digest="d" * 64,
        seed=42 if same_spec else 43,
    )
    return diff_entries(baseline, other)


def test_identical_metrics_pass():
    diff = _diff({})
    assert diff.ok
    assert not diff.regressions


def test_slowdown_regression_beyond_threshold_fails():
    diff = _diff({"mean_slowdown": 2.0 * 1.30})  # > 25% worse
    assert not diff.ok
    assert [r.metric for r in diff.regressions] == ["mean_slowdown"]


def test_slowdown_within_threshold_passes():
    assert _diff({"mean_slowdown": 2.0 * 1.20}).ok


def test_improvement_never_regresses():
    assert _diff({"mean_slowdown": 1.0, "drop_rate": 0.0}).ok


def test_lower_is_worse_direction_for_completion_rate():
    diff = _diff({"completion_rate": 0.95})  # dropped 0.05 > 0.02 abs
    assert [r.metric for r in diff.regressions] == ["completion_rate"]
    # Rising completion is an improvement, not a regression.
    base = _entry(dict(BASE_METRICS, completion_rate=0.9))
    cand = _entry(dict(BASE_METRICS, completion_rate=1.0), digest="d" * 64)
    assert diff_entries(base, cand).ok


def test_events_pin_enforced_only_within_same_spec():
    same = _diff({"events_processed": 1001}, same_spec=True)
    assert [r.metric for r in same.regressions] == ["events_processed"]
    cross = _diff({"events_processed": 1001}, same_spec=False)
    assert cross.ok
    row = next(r for r in cross.rows if r.metric == "events_processed")
    assert "not pinned" in row.note


def test_wall_clock_is_advisory_only():
    diff = _diff({"wall_seconds": 2.0})  # 2x slower
    assert diff.ok  # advisory rows never gate
    row = next(r for r in diff.rows if r.metric == "wall_seconds")
    assert row.regressed and row.advisory


def test_missing_metric_is_reported_not_regressed():
    candidate = dict(BASE_METRICS)
    del candidate["nfct"]
    diff = diff_entries(_entry(BASE_METRICS), _entry(candidate, digest="d" * 64))
    row = next(r for r in diff.rows if r.metric == "nfct")
    assert row.note == "missing" and not row.regressed
    assert diff.ok


def test_custom_threshold_overrides_defaults():
    tight = [Threshold("mean_slowdown", rel=0.01)]
    diff = diff_entries(
        _entry(BASE_METRICS),
        _entry(dict(BASE_METRICS, mean_slowdown=2.1), digest="d" * 64),
        thresholds=tight,
    )
    assert not diff.ok


def test_default_thresholds_pin_events_and_advise_on_wall():
    by_metric = {t.metric: t for t in DEFAULT_THRESHOLDS}
    assert by_metric["wall_seconds"].advisory  # machine-dependent
    events = by_metric["events_processed"]  # a pure function of the spec
    assert events.exact and events.same_spec_only


def test_summary_mentions_verdict():
    text = _diff({"mean_slowdown": 3.0}).summary()
    assert "REGRESSED" in text and "mean_slowdown" in text


# ----------------------------------------------------------------------
# Dashboard (rendered from a real two-seed tiny ledger)
# ----------------------------------------------------------------------

def _tiny_spec(seed, chrome_path=None):
    return ExperimentSpec(
        protocol="phost",
        workload="fixed:20000",
        n_flows=8,
        topology=TopologyConfig.small(),
        seed=seed,
        observability=ObservabilityConfig(
            sample_period=50e-6,
            chrome_trace=None if chrome_path is None else str(chrome_path),
        ),
    )


@pytest.fixture(scope="module")
def two_seed_ledger(tmp_path_factory):
    root = tmp_path_factory.mktemp("ledger-dash")
    ledger = RunLedger(root / "ledger")
    for seed in (42, 43):
        trace = root / f"trace-{seed}.json"
        ledger.put(run_experiment(_tiny_spec(seed, chrome_path=trace)))
    return ledger


def test_dashboard_renders_and_validates(two_seed_ledger, tmp_path):
    out = render_dashboard(two_seed_ledger, tmp_path / "dash.html")
    assert validate_dashboard(out) == []
    html = out.read_text()
    assert "<svg" in html  # at least one chart panel rendered
    assert 'data-points="0"' not in html
    assert "Cross-run regression diffs" in html
    assert "Per-port queue depth" in html


def test_dashboard_cross_seed_diff_shows_no_unexpected_regressions(
    two_seed_ledger, tmp_path
):
    # The ISSUE's acceptance check: two seeds of the same tiny spec must
    # diff clean under the default thresholds.
    families = [m for m in two_seed_ledger.families().values() if len(m) >= 2]
    assert families
    for members in families:
        diff = diff_entries(members[-2], members[-1])
        assert diff.ok, diff.summary()
    html = render_dashboard(two_seed_ledger, tmp_path / "dash.html").read_text()
    assert "no unexpected regressions" in html


def test_validate_flags_missing_artifact(two_seed_ledger, tmp_path):
    out = render_dashboard(two_seed_ledger, tmp_path / "dash.html")
    # Remove one referenced chrome trace: validation must notice.
    entry = two_seed_ledger.entries()[0]
    victims = [a for a in entry.artifacts if a.endswith(".json")]
    assert victims
    Path(victims[0]).unlink()
    problems = validate_dashboard(out)
    assert any("artifact missing" in p for p in problems)


def test_validate_flags_empty_dashboard(tmp_path):
    empty = RunLedger(tmp_path / "empty-ledger")
    out = render_dashboard(empty, tmp_path / "dash.html")
    problems = validate_dashboard(out)
    assert any("no panels or tables" in p for p in problems)


def test_validate_flags_missing_file(tmp_path):
    problems = validate_dashboard(tmp_path / "never-rendered.html")
    assert problems and "does not exist" in problems[0]
