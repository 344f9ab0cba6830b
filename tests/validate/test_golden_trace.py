"""Golden-trace regression harness.

Two tiny-scale scenarios — the Figure 3 websearch sweep point and the
Figure 9c incast — are fingerprinted with the order-independent run
digest and compared against committed goldens.  Any behavioural change
(scheduling order, drop policy, token pacing, RNG consumption) moves
the digest even when summary statistics barely shift.

To refresh after an intentional change::

    PYTHONPATH=src python scripts/refresh_goldens.py

Both scenarios also run under the full auditor set and must pass with
zero violations — the goldens certify *validated* behaviour, not just
reproducible behaviour.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.defaults import SCALES, make_spec
from repro.experiments.runner import run_experiment, run_incast
from repro.validate import incast_digest, run_digest, standard_auditors

GOLDEN_PATH = Path(__file__).parent / "golden_digests.json"

#: Events dispatched by the bare fig3-tiny pHost seed-42 run.
FIG3_TINY_PHOST_EVENTS = 54092


def _fig3_tiny(instruments=(), protocol="phost"):
    spec = make_spec(protocol, "websearch", "tiny", seed=42)
    return run_experiment(spec.variant(instruments=instruments))


def _fig9c_tiny(instruments=(), protocol="phost"):
    return run_incast(
        protocol,
        n_senders=9,
        total_bytes=1_000_000,
        n_requests=3,
        topology=SCALES["tiny"].topology,
        seed=42,
        instruments=instruments,
    )


def _figT_tiny(instruments=(), protocol="phost"):
    """The canonical figT adversarial scenario: hot-rack skew with
    affinity, a mid-run load burst, and coflow-structured arrivals —
    every new workload axis consumes RNG in one fingerprinted run."""
    from repro.workloads.coflows import CoflowConfig
    from repro.workloads.ramp import LoadProfile
    from repro.workloads.skew import SkewConfig

    spec = make_spec(protocol, "websearch", "tiny", seed=42).variant(
        traffic_matrix="skewed",
        skew=SkewConfig(hot_racks=(0,), src_hot_fraction=0.6,
                        dst_hot_fraction=0.8, rack_affinity=0.2),
        load_profile=LoadProfile(((0.0, 1.0), (0.005, 3.0), (0.01, 1.0))),
        coflows=CoflowConfig(min_flows=2, max_flows=5),
    )
    return run_experiment(spec.variant(instruments=instruments))


#: Protocols with committed golden fingerprints: the paper's lead
#: transport plus the repository-added DCTCP baseline (which always
#: runs on the generic dataplane engine, so its goldens also pin the
#: ProgramQueue semantics and the stage-ledger audits).
GOLDEN_PROTOCOLS = ("phost", "dctcp")


def compute_goldens():
    """(digests, audit reports) for every golden scenario.

    Shared with ``scripts/refresh_goldens.py`` so the committed file and
    the test can never disagree about what is being fingerprinted.
    """
    digests = {}
    reports = {}
    for protocol in GOLDEN_PROTOCOLS:
        fig3 = _fig3_tiny(standard_auditors(), protocol)
        fig9c = _fig9c_tiny(standard_auditors(), protocol)
        figT = _figT_tiny(standard_auditors(), protocol)
        digests[f"fig3-tiny-{protocol}-websearch-seed42"] = run_digest(fig3)
        digests[f"fig9c-tiny-{protocol}-incast9-seed42"] = incast_digest(fig9c)
        digests[f"figT-tiny-{protocol}-skew-coflow-burst-seed42"] = run_digest(figT)
        reports[f"fig3-tiny-{protocol}-websearch-seed42"] = fig3.audit
        reports[f"fig9c-tiny-{protocol}-incast9-seed42"] = fig9c.audit
        reports[f"figT-tiny-{protocol}-skew-coflow-burst-seed42"] = figT.audit
    return digests, reports


@pytest.fixture(scope="module")
def goldens():
    assert GOLDEN_PATH.exists(), (
        "no committed goldens; run scripts/refresh_goldens.py"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def computed():
    return compute_goldens()


@pytest.mark.parametrize("protocol", GOLDEN_PROTOCOLS)
def test_fig3_audit_clean(computed, protocol):
    report = computed[1][f"fig3-tiny-{protocol}-websearch-seed42"]
    assert report.ok, report.summary()
    assert report.total_violations == 0


@pytest.mark.parametrize("protocol", GOLDEN_PROTOCOLS)
def test_fig9c_audit_clean(computed, protocol):
    report = computed[1][f"fig9c-tiny-{protocol}-incast9-seed42"]
    assert report.ok, report.summary()


@pytest.mark.parametrize("protocol", GOLDEN_PROTOCOLS)
def test_figT_audit_clean(computed, protocol):
    report = computed[1][f"figT-tiny-{protocol}-skew-coflow-burst-seed42"]
    assert report.ok, report.summary()
    assert report.total_violations == 0


def test_dctcp_goldens_audit_stage_ledgers(computed):
    """The DCTCP goldens certify the generic engine: its audit must have
    actually exercised the dataplane stage-ledger checks."""
    report = computed[1]["fig3-tiny-dctcp-websearch-seed42"]
    invariants = report.to_dict()["auditors"]["conservation"]["invariants"]
    assert invariants["dataplane-stage-ledger"]["checked"] > 0
    assert invariants["dataplane-mark-ledger"]["checked"] > 0


def test_digests_match_committed_goldens(computed, goldens):
    # The file also holds the fat-tree pins (tests/net/test_fattree.py).
    tiny = {name: digest for name, digest in goldens.items() if not name.startswith("fattree-")}
    assert computed[0] == tiny, (
        "run digests diverged from committed goldens; if the behaviour "
        "change is intentional, run scripts/refresh_goldens.py"
    )


@pytest.fixture(scope="module")
def bare_fig3():
    return _fig3_tiny()


def test_fig3_digest_stable_across_invocations(computed, bare_fig3):
    again = run_digest(bare_fig3)
    assert again == computed[0]["fig3-tiny-phost-websearch-seed42"], (
        "same spec, two invocations, different digests — and the first "
        "run carried auditors, so attaching them must not perturb the "
        "simulation either"
    )


def test_fig3_tiny_events_pin_and_golden(bare_fig3, goldens):
    # The digest ignores how many events it took to get there; the
    # dispatch count is pinned separately so a schedule change that
    # happens to leave every flow's outcome alone still shows up.
    assert bare_fig3.events_processed == FIG3_TINY_PHOST_EVENTS
    assert run_digest(bare_fig3) == goldens["fig3-tiny-phost-websearch-seed42"]


def test_fig9c_digest_stable_across_invocations(computed):
    again = incast_digest(_fig9c_tiny())
    assert again == computed[0]["fig9c-tiny-phost-incast9-seed42"]


def test_figT_digest_stable_across_invocations(computed):
    again = run_digest(_figT_tiny())
    assert again == computed[0]["figT-tiny-phost-skew-coflow-burst-seed42"]
