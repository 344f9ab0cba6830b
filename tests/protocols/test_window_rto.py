"""The window transports' RTO: a re-arm defers the live timer instead of
replacing it, and timers still fire in the order cancel-and-schedule
gives (the plain form, ``tests/net/models.py::use_eager_rto``)."""

from __future__ import annotations

import pytest

from repro.experiments.runner import build_simulation
from repro.experiments.spec import ExperimentSpec
from repro.net.packet import Flow
from repro.net.topology import TopologyConfig
from tests.net.models import use_eager_rto


def _agent(protocol):
    spec = ExperimentSpec(
        protocol=protocol, workload="fixed:1460", n_flows=1, topology=TopologyConfig.small()
    )
    ctx = build_simulation(spec)
    return ctx.env, ctx.fabric.hosts[0].agent


def _fires(protocol, first):
    """Flow 1's RTO is armed at 0 and re-armed at ``rto / 2``; flow 2's
    is first armed at ``rto / 2`` too, by an event ordered before or
    after the re-arm (``first``).  Both deadlines are ``1.5 rto``.
    Returns each timeout as (time, fid) and the events dispatched."""
    env, agent = _agent(protocol)
    rto = agent.config.rto
    fired = []

    def on_timeout(state):
        fired.append((env.now, state.flow.fid))
        return True  # handled: no resend, no re-arm

    agent.on_timeout = on_timeout
    states = {}
    for fid in (1, 2):
        state = states[fid] = agent.FlowState(Flow(fid, 0, 5, 10 * 1460, 0.0), agent.config)
        agent.src_flows[fid] = state
    env.schedule_at(0.0, agent._arm_rto, states[1])
    order = (2, 1) if first == "fresh" else (1, 2)
    for fid in order:
        env.schedule_at(rto / 2, agent._arm_rto, states[fid])
    env.run()
    return fired, env.events_processed


@pytest.mark.parametrize("first", ["deferred", "fresh"])
@pytest.mark.parametrize("protocol", ["pfabric", "dctcp"])
def test_deferred_and_eager_rto_deadlines_tie_in_the_eager_order(protocol, first, monkeypatch):
    fast, fast_events = _fires(protocol, first)
    use_eager_rto(monkeypatch)
    eager, eager_events = _fires(protocol, first)
    assert fast == eager
    assert [fid for _, fid in fast] == ([1, 2] if first == "deferred" else [2, 1])
    assert fast[0][0] == fast[1][0]
    # The deferred timer fires once early (at rto) and moves itself.
    assert fast_events == eager_events + 1


def test_a_new_ack_defers_the_live_rto():
    env, agent = _agent("pfabric")
    state = agent.FlowState(Flow(1, 0, 5, 10 * 1460, 0.0), agent.config)
    agent.src_flows[1] = state
    agent._arm_rto(state)
    timer = state.timer
    scheduled = env.wheel.scheduled_total
    env.run(until=agent.config.rto / 4)
    agent._arm_rto(state)
    assert state.timer is timer and state.rto_at == pytest.approx(1.25 * agent.config.rto)
    assert env.wheel.scheduled_total == scheduled and env.wheel.cancelled_total == 0
