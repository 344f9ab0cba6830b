"""Figure T — adversarial workloads beyond the paper (not a paper figure).

The paper evaluates homogeneous Poisson arrivals over uniform traffic
matrices; fig-T stresses everything the paper held fixed: trace replay,
hot-rack skew with rack affinity, a 4x mid-run load burst, job-structured
coflows scored by JCT, and a deadline/loss/arbiter-blackout storm — each
against all four protocols (the paper's three plus the repository-added
DCTCP baseline).  The table's "best protocol" notes record which
transport wins where; the acceptance bounds below pin the qualitative
claims (near-full completion everywhere, faults only where injected,
job metrics only where jobs exist).
"""

import math
import tempfile

import pytest

from repro.experiments.defaults import make_spec
from repro.experiments.figures import run_figure
from repro.experiments.runner import run_experiment
from repro.faults import ArbiterBlackout, FaultPlan
from repro.validate import (
    CausalityAuditor,
    ConservationAuditor,
    TokenLedgerAuditor,
    standard_auditors,
)
from repro.workloads.skew import SkewConfig

SCENARIOS = ("traced", "hotrack", "ramp", "coflow", "storm")
PROTOCOLS = ("phost", "pfabric", "fastpass", "dctcp")


def _assert_adversarial(result):
    assert {r["scenario"] for r in result.rows} == set(SCENARIOS)
    assert len(result.rows) == len(SCENARIOS) * len(PROTOCOLS)
    for row in result.rows:
        scenario, protocol = row["scenario"], row["protocol"]
        where = f"{protocol} under {scenario}"
        # Near-full completion even under adversarial pressure: the
        # storm may strand a few deadline flows, everything else drains.
        floor = 0.90 if scenario == "storm" else 0.95
        assert row["completion"] >= floor, f"{where}: completion {row['completion']}"
        assert row["mean_slowdown"] >= 1.0, where
        assert row["p99_slowdown"] >= row["mean_slowdown"] * 0.99, where

        # Job metrics exist exactly where jobs exist.
        if scenario == "coflow":
            assert math.isfinite(row["mean_jct_ms"]) and row["mean_jct_ms"] > 0, where
        else:
            assert math.isnan(row["mean_jct_ms"]), where

        # Deadlines exist only in the storm; injected faults likewise.
        if scenario == "storm":
            assert 0.5 <= row["deadline_met"] <= 1.0, (
                f"{where}: deadline_met {row['deadline_met']}"
            )
            assert row["fault_drops"] > 0, where
        else:
            assert math.isnan(row["deadline_met"]), where
            assert row["fault_drops"] == 0, where

    # The replayed trace is the plain generated workload: it must not be
    # harder than the skewed scenario built from the same size mix.
    for protocol in PROTOCOLS:
        traced = result.row_where(scenario="traced", protocol=protocol)
        hot = result.row_where(scenario="hotrack", protocol=protocol)
        assert traced["mean_slowdown"] <= hot["mean_slowdown"] * 1.5, protocol

    winners = [n for n in result.notes if "best protocol" in n]
    assert len(winners) == len(SCENARIOS)
    for note in winners:
        assert note.split("best protocol ")[1] in PROTOCOLS


def test_figT(regen):
    result = regen("figT")
    _assert_adversarial(result)


@pytest.mark.smoke
@pytest.mark.figT
def test_figT_smoke(smoke_regen):
    """Tiny-scale fig-T for the CI figT-smoke tier."""
    result = smoke_regen("figT")
    _assert_adversarial(result)


@pytest.mark.smoke
@pytest.mark.figT
def test_figT_leaves_no_trace_file(monkeypatch, tmp_path):
    """The traced scenario's JSONL trace lives in a temporary directory
    that is removed once figT's runs are done."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    run_figure("figT", scale="tiny", seed=42)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.smoke
@pytest.mark.figT
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_storm_scenario_completes_with_clean_audits(protocol):
    """The acceptance bar for the nastiest composition: hot-rack incast
    skew + deadlines + 0.5% wire loss + an arbiter blackout, and the
    conservation, token-ledger and causality auditors must all balance
    (injected drops ledgered, no token leaks during the blackout, no
    effect preceding its cause)."""
    spec = make_spec(
        protocol, "websearch", "tiny", seed=42,
        traffic_matrix="skewed",
        skew=SkewConfig(hot_racks=(0,), src_hot_fraction=0.2, dst_hot_fraction=0.9),
        with_deadlines=True,
        faults=FaultPlan(
            loss_rate=0.005,
            arbiter_blackouts=(ArbiterBlackout(start=0.002, end=0.004),),
            seed=42,
        ),
        instruments=standard_auditors(),
    )
    result = run_experiment(spec)
    assert result.n_completed >= 0.9 * result.n_flows
    assert result.fault_drops > 0
    report = result.audit
    assert report.ok, report.summary()
    for auditor_name in (
        ConservationAuditor.name,
        TokenLedgerAuditor.name,
        CausalityAuditor.name,
    ):
        assert not [v for v in report.violations() if v.auditor == auditor_name]
