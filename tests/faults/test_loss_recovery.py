"""Loss-recovery battery: force-drop each packet class a protocol
depends on and assert the recovery path fires *and* the flow completes.

Each test runs one explicit flow through :func:`build_simulation` /
:func:`run_flow_list` with a :class:`ScriptedDrop` aimed at a single
packet class.  All scripted rules pin ``hop=1`` (the sending host's
NIC) so one logical packet matches exactly once even though it transits
up to four links.  The last test instead downs a ToR-core link pair
under a whole fig3-tiny workload with every auditor attached.
"""

from __future__ import annotations

import pytest

from repro.experiments.defaults import make_spec
from repro.experiments.runner import build_simulation, run_experiment, run_flow_list
from repro.experiments.spec import ExperimentSpec
from repro.faults import ArbiterBlackout, FaultPlan, HostPause, LinkDown, ScriptedDrop
from repro.net.packet import Flow
from repro.net.topology import TopologyConfig
from repro.protocols.phost.config import PHostConfig
from repro.sim.units import MSS_BYTES
from repro.validate import standard_auditors

pytestmark = pytest.mark.faults

GUARD = 0.05  # seconds; >> every recovery timer at tiny scale


def _run_one(protocol, plan, *, protocol_config=None, n_pkts=10, before_run=None):
    """One flow h0 -> h1 on the small fabric under ``plan``.

    ``before_run(ctx)`` can instrument the built context (e.g. wrap a
    recovery entry point with a counter) before the clock starts.
    """
    spec = ExperimentSpec(
        protocol=protocol,
        topology=TopologyConfig.small(),
        n_flows=1,
        faults=plan,
        protocol_config=protocol_config,
        max_sim_time=GUARD,
    )
    ctx = build_simulation(spec)
    if before_run is not None:
        before_run(ctx)
    flow = Flow(0, 0, 1, n_pkts * MSS_BYTES, 0.0)
    result = run_flow_list(spec, [flow], ctx)
    return ctx, result


def _drop(ptype, count=1, skip=0):
    return FaultPlan(scripted=(ScriptedDrop(ptype, count=count, skip=skip, hop=1),))


# ----------------------------------------------------------------------
# pHost: RTS, TOKEN, DATA
# ----------------------------------------------------------------------

def test_phost_lost_rts_is_retried():
    # free_tokens=0 forces the token path: without the RTS reaching the
    # destination no data can ever flow, so completion proves recovery.
    rts_sends = []

    def count_rts(ctx):
        source = ctx.fabric.hosts[0].agent.source
        orig = source._send_rts
        source._send_rts = lambda state: (rts_sends.append(state.flow.fid), orig(state))[1]

    ctx, result = _run_one(
        "phost", _drop("rts"),
        protocol_config=PHostConfig(free_tokens=0),
        before_run=count_rts,
    )
    assert ctx.faults.drops_by_reason["scripted"] == 1
    assert len(rts_sends) >= 2, "lost RTS was never retransmitted"
    assert result.n_completed == 1


def test_phost_lost_rts_and_free_burst_still_recovers():
    # The nastiest pHost loss pattern: the RTS *and* every free-token
    # data packet die before the destination ever learns the flow
    # exists.  Nothing downstream can help (no dest state => no grants,
    # no re-ACK), so the only way out is the source-side lost-RTS
    # watchdog — which is armed under an active fault plan even when
    # the free budget is non-zero.  Regression for a silent-forever
    # flow first seen under bursty Gilbert-Elliott loss.
    plan = FaultPlan(scripted=(
        ScriptedDrop("rts", count=1, hop=1),
        ScriptedDrop("data", count=8, hop=1),  # the whole free budget
    ))
    rts_sends = []

    def count_rts(ctx):
        source = ctx.fabric.hosts[0].agent.source
        orig = source._send_rts
        source._send_rts = lambda state: (rts_sends.append(state.flow.fid), orig(state))[1]

    ctx, result = _run_one("phost", plan, n_pkts=20, before_run=count_rts)
    assert ctx.faults.drops_by_reason["scripted"] == 9
    assert len(rts_sends) >= 2, "watchdog never re-sent the RTS"
    assert result.n_completed == 1


def test_phost_lost_token_is_regranted():
    ctx, result = _run_one(
        "phost", _drop("token"), protocol_config=PHostConfig(free_tokens=0)
    )
    assert ctx.faults.drops_by_reason["scripted"] == 1
    dest = ctx.fabric.hosts[1].agent.destination
    # The destination's retx timeout re-granted the lost credit: more
    # tokens were minted than the flow has packets.
    assert dest.tokens_granted > result.records[0].n_pkts if result.records else True
    assert dest.tokens_granted >= 11  # 10 pkts + at least 1 regrant
    assert result.n_completed == 1


@pytest.mark.parametrize("skip", [0, 8], ids=["free-token-data", "granted-data"])
def test_phost_lost_data_is_retransmitted(skip):
    # skip=0 drops a free-token packet, skip=8 a granted-token packet
    # (the default config fronts 8 free tokens).
    ctx, result = _run_one("phost", _drop("data", skip=skip))
    assert ctx.faults.drops_by_reason["scripted"] == 1
    assert result.data_pkts_retransmitted >= 1, "recovery never resent the lost DATA"
    assert result.n_completed == 1


# ----------------------------------------------------------------------
# pFabric: DATA and ACK
# ----------------------------------------------------------------------

def test_pfabric_lost_data_triggers_rto():
    ctx, result = _run_one("pfabric", _drop("data", skip=9))  # drop the tail pkt
    agent = ctx.fabric.hosts[0].agent
    assert ctx.faults.drops_by_reason["scripted"] == 1
    assert agent.timeouts >= 1, "RTO never fired for the lost DATA"
    assert result.data_pkts_retransmitted >= 1
    assert result.n_completed == 1


def test_pfabric_lost_ack_is_survived():
    # ACKs transit hop 1 at the *receiver's* NIC.  Drop one mid-stream
    # ACK of flow 0; a second, longer flow keeps the simulation alive
    # past the victim source's RTO so the recovery actually runs (the
    # run otherwise stops the instant every destination is satisfied).
    plan = FaultPlan(scripted=(ScriptedDrop("ack", flow=0, seq=5, hop=1),))
    spec = ExperimentSpec(
        protocol="pfabric",
        topology=TopologyConfig.small(),
        n_flows=2,
        faults=plan,
        max_sim_time=GUARD,
    )
    ctx = build_simulation(spec)
    flows = [
        Flow(0, 0, 1, 10 * MSS_BYTES, 0.0),
        Flow(1, 2, 3, 200 * MSS_BYTES, 0.0),
    ]
    result = run_flow_list(spec, flows, ctx)
    agent = ctx.fabric.hosts[0].agent
    assert ctx.faults.drops_by_reason["scripted"] == 1
    assert agent.timeouts >= 1, "RTO never fired for the lost ACK"
    assert result.data_pkts_retransmitted >= 1
    assert result.n_completed == 2


# ----------------------------------------------------------------------
# Fastpass: DATA loss and allocation loss (arbiter blackout)
# ----------------------------------------------------------------------

def test_fastpass_lost_data_is_rerequested():
    ctx, result = _run_one("fastpass", _drop("data", skip=9))
    assert ctx.faults.drops_by_reason["scripted"] == 1
    # Recovery re-reports demand to the arbiter and resends in the
    # newly allocated slot.
    assert ctx.shared.requests_received >= 2
    assert result.data_pkts_retransmitted >= 1
    assert result.n_completed == 1


def test_fastpass_blackout_loses_allocation_then_recovers():
    # The flow arrives during the blackout: its REQUEST is lost and the
    # first epochs elapse unallocated.  The agent's recheck timer must
    # re-report the demand once the arbiter is back.
    plan = FaultPlan(arbiter_blackouts=(ArbiterBlackout(0.0, 150e-6),))
    ctx, result = _run_one("fastpass", plan)
    arbiter = ctx.shared
    agent = ctx.fabric.hosts[0].agent
    assert arbiter.requests_lost >= 1
    assert agent.requests_retried >= 1, "lost REQUEST was never re-reported"
    assert result.n_completed == 1
    # Data only ever flowed after the blackout lifted.
    assert result.records[0].finish > 150e-6


# ----------------------------------------------------------------------
# Host pause: both of a host's links dark for a window
# ----------------------------------------------------------------------

def test_host_pause_recovers_after_resume():
    plan = FaultPlan(host_pauses=(HostPause(host=1, pause_at=0.0, resume_at=200e-6),))
    ctx, result = _run_one(
        "phost", plan, protocol_config=PHostConfig(free_tokens=0)
    )
    # Everything sent into the paused host was black-holed...
    assert ctx.faults.drops_by_reason["link_down"] >= 1
    # ...yet the RTS retry carried the flow across the outage.
    assert result.n_completed == 1
    assert result.records[0].finish > 200e-6


# ----------------------------------------------------------------------
# Inter-rack link outage: a ToR uplink and the core->ToR downlink
# ----------------------------------------------------------------------

#: One ToR uplink dark for 100us mid-run, plus the reverse-direction
#: core downlink: spray exclusion steers traffic off the uplink, but
#: nothing can steer around a dead core->ToR hop, so real drops land.
CORE_OUTAGE = FaultPlan(
    link_downs=(
        LinkDown("tor1.up.c1", down_at=20e-6, up_at=120e-6),
        LinkDown("core1.down.tor1", down_at=30e-6, up_at=200e-6),
    ),
    seed=11,
)


@pytest.mark.parametrize("protocol", ("phost", "pfabric"))
def test_core_link_outage_recovers_with_clean_audits(protocol):
    spec = make_spec(protocol, "websearch", "tiny", seed=42).variant(
        faults=CORE_OUTAGE, instruments=standard_auditors()
    )
    result = run_experiment(spec)
    # Packets in flight on the dead links are lost...
    assert result.fault_drops > 0
    # ...every loss is ledgered (conservation, tokens, causality)...
    assert result.audit is not None and result.audit.ok, result.audit.summary()
    # ...and recovery carries every flow across the outage.
    assert result.n_completed == result.n_flows
