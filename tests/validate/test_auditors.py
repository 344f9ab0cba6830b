"""Mutation self-tests: each auditor must detect its injected fault.

A validator that has never seen a violation is untested code.  These
tests deliberately break one invariant per run — a double-counted
delivery, a token materialised out of thin air, an event smuggled into
the heap with a past timestamp — and assert that the matching auditor
fires, names the right invariant, and pins the first offending event.
"""

from __future__ import annotations

import heapq

import pytest

from repro.experiments.runner import build_simulation, run_flow_list
from repro.experiments.spec import ExperimentSpec
from repro.net.packet import Flow
from repro.net.topology import TopologyConfig
from repro.protocols.phost.tokens import Token
from repro.validate import (
    AuditReport,
    CausalityAuditor,
    ConservationAuditor,
    TokenLedgerAuditor,
    run_digest,
    standard_auditors,
)


def run_phost(flows, instruments, mutate=None, seed=11):
    """Run an explicit flow list on pHost, optionally sabotaging the
    freshly built context before the clock starts."""
    spec = ExperimentSpec(
        protocol="phost",
        workload="fixed:1",  # ignored by run_flow_list
        n_flows=1,
        topology=TopologyConfig.small(),
        instruments=instruments,
        seed=seed,
    )
    ctx = build_simulation(spec)
    if mutate is not None:
        mutate(ctx)
    return run_flow_list(spec, flows, ctx)


def two_flows():
    return [
        Flow(0, 0, 5, 30_000, 0.0),
        Flow(1, 2, 7, 300_000, 0.0),
    ]


# ----------------------------------------------------------------------
# Clean baseline
# ----------------------------------------------------------------------

def test_clean_run_passes_every_auditor():
    result = run_phost(two_flows(), standard_auditors())
    assert result.n_completed == 2
    assert result.audit is not None
    assert result.audit.ok, result.audit.summary()
    assert result.audit.total_violations == 0
    assert result.audit.first_violation() is None


def test_no_instruments_means_no_report():
    result = run_phost(two_flows(), ())
    assert result.audit is None


def test_report_from_hooks_ignores_non_auditors():
    class NotAnAuditor:
        def bind(self, ctx):
            return self

    assert AuditReport.from_hooks([NotAnAuditor()]) is None


# ----------------------------------------------------------------------
# Mutation 1: double-counted delivery -> ConservationAuditor
# ----------------------------------------------------------------------

def test_conservation_detects_double_delivery():
    witnessed = {}

    def mutate(ctx):
        original = ctx.collector.data_delivered

        def double_once(pkt):
            original(pkt)
            if not witnessed:
                witnessed["fid"], witnessed["seq"] = pkt.flow.fid, pkt.seq
                original(pkt)  # the fault: the same packet counted twice

        ctx.collector.data_delivered = double_once

    result = run_phost(two_flows(), (ConservationAuditor(),), mutate=mutate)
    report = result.audit
    assert not report.ok
    check = report.auditors[0].checks["delivery-once"]
    assert check.violation_count >= 1
    first = report.first_violation()
    assert first.auditor == "conservation"
    assert first.invariant == "delivery-once"
    assert first.context["fid"] == witnessed["fid"]
    assert first.context["seq"] == witnessed["seq"]
    assert first.time > 0.0


# ----------------------------------------------------------------------
# Mutation 2: token materialised from nowhere -> TokenLedgerAuditor
# ----------------------------------------------------------------------

def test_token_ledger_detects_token_leak():
    def mutate(ctx):
        def leak():
            for host in ctx.fabric.hosts:
                for state in host.agent.source.flows.values():
                    if not state.done and not state.all_sent():
                        # The fault: a token the destination never minted.
                        state.add_token(Token(0, 1, ctx.env.now + 1.0))
                        return
            raise AssertionError("no live flow to leak a token into")

        ctx.env.schedule_at(50e-6, leak)

    result = run_phost(two_flows(), (TokenLedgerAuditor(),), mutate=mutate)
    report = result.audit
    assert not report.ok
    check = report.auditors[0].checks["global-ledger"]
    assert check.violation_count == 1
    first = report.first_violation()
    assert first.auditor == "token-ledger"
    assert first.invariant == "global-ledger"
    assert "leak" in first.message


def test_token_ledger_inert_for_non_phost():
    spec = ExperimentSpec(
        protocol="pfabric",
        workload="fixed:1",
        n_flows=1,
        topology=TopologyConfig.small(),
        instruments=(TokenLedgerAuditor(),),
        seed=3,
    )
    result = run_flow_list(spec, two_flows(), build_simulation(spec))
    assert result.audit.ok
    # Inert: nothing was even checked.
    assert result.audit.auditors[0].checks["token-range"].checked == 0


# ----------------------------------------------------------------------
# Mutation 3: event smuggled into the past -> CausalityAuditor
# ----------------------------------------------------------------------

def test_causality_detects_past_scheduled_event():
    def mutate(ctx):
        env = ctx.env

        def smuggle():
            # The fault: bypass schedule_at()'s past-time guard.
            entry = [env.now / 2, env._seq + 10**6, lambda: None, (), env]
            heapq.heappush(env._heap, entry)
            env._live += 1

        env.schedule_at(40e-6, smuggle)

    result = run_phost(two_flows(), (CausalityAuditor(),), mutate=mutate)
    report = result.audit
    assert not report.ok
    check = report.auditors[0].checks["no-past-event"]
    assert check.violation_count == 1
    first = report.first_violation()
    assert first.invariant == "no-past-event"
    assert first.context["scheduled"] == pytest.approx(20e-6)
    assert first.context["clock"] == pytest.approx(40e-6)


# ----------------------------------------------------------------------
# Post-completion sends: legal until the source has seen the ACK
# ----------------------------------------------------------------------

def test_send_while_completing_ack_in_flight_is_context_not_violation():
    """Regression (bench-scale websearch, seed 207): flow 98's source
    spends a re-issued token 0.4 us after the destination completed the
    flow and 1.1 us before the ACK reaches it.  That is pHost working as
    designed, so it is tallied; the digest is the unaudited run's."""
    from repro import make_spec, run_experiment

    spec = make_spec("phost", "websearch", "bench", seed=207)
    result = run_experiment(spec.variant(instruments=standard_auditors()))
    assert result.audit.total_violations == 0
    assert result.audit.context["causality"] == {"post_completion_retransmits": 1}
    assert run_digest(result) == (
        "cb7c1b851e0509a37d41d57046e10bca07ceeeb6cd4c58b287ac3f22190aaffe"
    )


def test_causality_detects_send_after_source_saw_the_ack():
    from repro.net.packet import Packet, PacketType

    auditor = CausalityAuditor()
    spec = ExperimentSpec(
        protocol="phost", workload="fixed:1", n_flows=1,
        topology=TopologyConfig.small(), instruments=(auditor,), seed=11,
    )
    ctx = build_simulation(spec)
    flow = Flow(0, 0, 5, 30_000, 0.0)
    data = Packet(PacketType.DATA, flow, 3, flow.src, flow.dst, 1500, 1, 0.0)
    ack = Packet(PacketType.ACK, flow, flow.n_pkts, flow.dst, flow.src, 40, 0, 0.0)
    auditor.flow_arrived(flow, 0.0)
    auditor.flow_completed(flow, 0.0)

    auditor.data_sent(data, False)  # ACK still in flight: context only
    assert auditor.ok
    ctx.fabric.hosts[flow.src].agent.on_packet(ack)
    auditor.data_sent(data, False)  # the source knows: a real violation
    assert [v.invariant for v in auditor.violations] == ["flow-lifecycle"]
    auditor.finalize(ctx)
    assert auditor.context == {"post_completion_retransmits": 1}


# ----------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------

def test_report_to_dict_and_export(tmp_path):
    import json

    from repro.metrics.export import audit_report_to_json

    result = run_phost(two_flows(), standard_auditors())
    payload = result.audit.to_dict()
    assert payload["ok"] is True
    assert payload["total_violations"] == 0
    assert payload["first_violation"] is None
    assert set(payload["auditors"]) == {"conservation", "token-ledger", "causality"}
    for entry in payload["auditors"].values():
        assert entry["ok"] is True
        for inv in entry["invariants"].values():
            assert inv["violations"] == 0

    out = audit_report_to_json(result.audit, tmp_path / "audit.json")
    assert json.loads(out.read_text()) == json.loads(
        json.dumps(payload, sort_keys=True)
    )


def test_violation_context_survives_to_json(tmp_path):
    import json

    from repro.metrics.export import audit_report_to_json

    def mutate(ctx):
        original = ctx.collector.data_delivered
        fired = []

        def double_once(pkt):
            original(pkt)
            if not fired:
                fired.append(pkt)
                original(pkt)

        ctx.collector.data_delivered = double_once

    result = run_phost(two_flows(), (ConservationAuditor(),), mutate=mutate)
    out = audit_report_to_json(result.audit, tmp_path / "bad.json")
    payload = json.loads(out.read_text())
    assert payload["ok"] is False
    first = payload["first_violation"]
    assert first["invariant"] == "delivery-once"
    assert "fid" in first["context"] and "seq" in first["context"]


def test_cli_audit_flag(tmp_path, capsys):
    import json

    from repro.experiments.cli import main

    out = tmp_path / "audit.json"
    code = main([
        "--run", "phost", "websearch", "--scale", "tiny", "--flows", "20",
        "--audit", "--audit-json", str(out), "--json",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["audit"]["ok"] is True
    assert json.loads(out.read_text())["ok"] is True
