"""Hypothesis property tests for the fault layer.

Two families:

* the Gilbert–Elliott chain's empirical bad-state occupancy converges
  to the stationary distribution ``p / (p + r)`` for any parameters —
  checked against the exact asymptotic variance of a two-state Markov
  chain (a broken transition rule fails this everywhere, not just at a
  hand-picked operating point);
* link down/up schedules: no packet ever transits a link inside its
  down window, and spraying never selects a dead uplink while it is
  down (the route table's live set excludes it, and re-includes it
  after the link comes back).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.defaults import make_spec
from repro.experiments.runner import build_simulation, run_experiment, run_flow_list
from repro.experiments.spec import ExperimentSpec
from repro.faults import FaultPlan, GilbertElliott, LinkDown
from repro.faults.models import GilbertElliottLoss
from repro.faults.plan import parse_fault_plan
from repro.net.fattree import FatTreeConfig
from repro.net.packet import Flow
from repro.net.topology import TopologyConfig
from repro.sim.randoms import SeededRng
from repro.sim.units import MSS_BYTES

pytestmark = pytest.mark.faults


# ----------------------------------------------------------------------
# Gilbert–Elliott stationarity
# ----------------------------------------------------------------------

@given(
    p=st.floats(0.1, 0.9),
    r=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
@settings(deadline=None, max_examples=25)
def test_ge_occupancy_converges_to_stationary(p, r, seed):
    params = GilbertElliott(p, r)
    model = GilbertElliottLoss(params)
    rng = SeededRng(seed).stream("ge-property")
    n = 20_000
    for _ in range(n):
        model.lose(rng)
    pi = params.stationary_bad
    # Asymptotic variance of the occupancy of a two-state chain with
    # second eigenvalue lambda = 1 - p - r:
    # var ~ pi (1 - pi) / n * (1 + lambda) / (1 - lambda).
    lam = 1.0 - p - r
    sigma = math.sqrt(pi * (1.0 - pi) / n * (1.0 + lam) / (1.0 - lam))
    assert abs(model.occupancy_bad - pi) < 6.0 * sigma + 1e-9


@given(p=st.floats(0.01, 0.99), r=st.floats(0.01, 0.99))
@settings(deadline=None, max_examples=25)
def test_ge_draw_discipline_is_one_transition_per_packet(p, r):
    # loss_bad=1, loss_good=0 (the defaults) are degenerate: exactly one
    # uniform per packet, so two identically seeded chains stay in
    # lockstep regardless of loss outcomes.
    a, b = GilbertElliottLoss(GilbertElliott(p, r)), GilbertElliottLoss(GilbertElliott(p, r))
    ra, rb = SeededRng(5).stream("x"), SeededRng(5).stream("x")
    for _ in range(500):
        assert a.lose(ra) == b.lose(rb)
        assert a.bad == b.bad


# ----------------------------------------------------------------------
# Link down/up schedules
# ----------------------------------------------------------------------

def _cross_rack_flows(n=8, n_pkts=12):
    # rack0 (hosts 0-3) -> rack1 (hosts 4-7): every flow must cross a
    # tor0 uplink, exercising the spray choice on each packet.
    return [
        Flow(i, i % 4, 4 + (i % 4), n_pkts * MSS_BYTES, i * 2e-6)
        for i in range(n)
    ]


# Windows are bounded so the workload (~290us of cross-rack transfer)
# always outlasts the outage: both probes below must actually run
# before the simulation stops at all-flows-complete.
@given(
    down_at=st.floats(0.0, 60e-6),
    width=st.floats(10e-6, 120e-6),
)
@settings(deadline=None, max_examples=10)
def test_no_packet_transits_a_down_link(down_at, width):
    up_at = down_at + width
    plan = FaultPlan(link_downs=(LinkDown("tor0.up.c0", down_at, up_at),))
    spec = ExperimentSpec(
        protocol="phost",
        topology=TopologyConfig.small(),
        n_flows=8,
        faults=plan,
        max_sim_time=0.05,
    )
    ctx = build_simulation(spec)
    tap = ctx.faults.taps["tor0.up.c0"]
    transits = []
    tap.forward_hook = lambda pkt, t: transits.append(ctx.env.now)

    tor = ctx.fabric.tors[0]
    dead_port = next(p for p in tor.ports if p.name == "tor0.up.c0")
    probes = {}

    def probe(label):
        live = tor.route.live_uplinks()
        probes[label] = any(p is dead_port for p in live)

    ctx.env.schedule_at(down_at + width / 2.0, probe, "mid-window")
    ctx.env.schedule_at(up_at + 1e-6, probe, "after-up")

    result = run_flow_list(spec, _cross_rack_flows(n_pkts=120), ctx)
    assert result.n_completed == result.n_flows
    # The wire was silent for the whole down window...
    assert not [t for t in transits if down_at <= t < up_at]
    # ...because the spray table excluded the port while it was down
    # and restored it afterwards.
    assert probes == {"mid-window": False, "after-up": True}


def test_down_forever_link_never_forwards_again():
    plan = FaultPlan(link_downs=(LinkDown("tor0.up.c0", down_at=0.0),))
    spec = ExperimentSpec(
        protocol="phost",
        topology=TopologyConfig.small(),
        n_flows=8,
        faults=plan,
        max_sim_time=0.05,
    )
    ctx = build_simulation(spec)
    tap = ctx.faults.taps["tor0.up.c0"]
    tap.forward_hook = lambda pkt, t: pytest.fail("packet crossed a dead link")
    result = run_flow_list(spec, _cross_rack_flows(), ctx)
    assert result.n_completed == result.n_flows
    # Down from t=0 with spray exclusion: nothing is even *offered* to
    # the dead link, so the fault ledger stays empty too.
    assert tap.fault_drops == 0


def test_fat_tree_edge_uplink_down_from_start_is_routed_around():
    # The edge switch sprays over its pod's aggregation switches: with
    # one uplink dead from t=0 nothing is offered to it, exactly as on
    # the two-tier tree above.
    spec = make_spec(
        "phost",
        "websearch",
        "tiny",
        seed=42,
        topology=FatTreeConfig(k=4),
        max_flow_bytes=120_000,
        faults=parse_fault_plan("down=edge0.up.agg0@0"),
    )
    result = run_experiment(spec)
    assert result.completion_rate == 1.0
    assert result.fault_drops == 0


@pytest.mark.parametrize(
    "topology,patterns",
    [
        (TopologyConfig.small(), "h*.nic, tor*.down.h*, tor*.up.c*, core*.down.tor*"),
        (
            FatTreeConfig(k=4),
            "h*.nic, edge*.down.h*, edge*.up.agg*, agg*.down.edge*, "
            "agg*.up.core*, core*.down.pod*",
        ),
    ],
)
def test_unknown_link_error_lists_the_built_fabrics_names(topology, patterns):
    spec = ExperimentSpec(
        protocol="phost",
        topology=topology,
        n_flows=8,
        faults=FaultPlan(link_downs=(LinkDown("nosuch.up.c0", down_at=0.0),)),
    )
    with pytest.raises(ValueError) as err:
        build_simulation(spec)
    assert f"(known: {patterns})" in str(err.value)
