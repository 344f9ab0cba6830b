"""SimContext: the one object owning a run's moving parts.

`build_simulation` must hand back a fully-populated context for every
registered protocol, with agents constructed through the `(host, ctx)`
factory and instrumentation hooks bound via `ExperimentSpec.instruments`.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import build_simulation, run_flow_list
from repro.experiments.spec import ExperimentSpec
from repro.net.packet import Flow
from repro.net.topology import TopologyConfig
from repro.obs import ChromeTraceSink
from repro.protocols.registry import get_protocol
from repro.sim import EventLoop, SeededRng, SimContext

ALL_PROTOCOLS = ["phost", "pfabric", "fastpass", "ideal"]


def tiny_spec(protocol: str, **overrides) -> ExperimentSpec:
    params = dict(
        protocol=protocol,
        workload="fixed:1460",
        n_flows=1,
        topology=TopologyConfig.small(),
        seed=1,
    )
    params.update(overrides)
    return ExperimentSpec(**params)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_build_simulation_returns_populated_context(protocol):
    ctx = build_simulation(tiny_spec(protocol))
    assert isinstance(ctx, SimContext)
    assert isinstance(ctx.env, EventLoop)
    assert isinstance(ctx.rng, SeededRng)
    assert ctx.collector is not None
    assert ctx.config is not None
    proto = get_protocol(protocol)
    if proto.shared_factory is not None:
        assert ctx.shared is not None  # e.g. the Fastpass arbiter
    else:
        assert ctx.shared is None
    assert ctx.hooks == []


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_agents_are_built_from_the_context(protocol):
    ctx = build_simulation(tiny_spec(protocol))
    for host in ctx.fabric.hosts:
        agent = host.agent
        assert agent.ctx is ctx
        assert agent.env is ctx.env
        assert agent.fabric is ctx.fabric
        assert agent.collector is ctx.collector
        assert agent.config is ctx.config
        assert agent.shared is ctx.shared


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_context_wiring_completes_a_flow(protocol):
    ctx = build_simulation(tiny_spec(protocol))
    flow = Flow(1, 0, 5, 3 * 1460, 0.0)
    ctx.collector.expected_flows = 1
    ctx.env.schedule_at(0.0, ctx.fabric.hosts[0].agent.start_flow, flow)
    ctx.env.run(until=0.05)
    assert flow.completed


def test_instruments_bind_through_the_spec():
    sink = ChromeTraceSink()
    spec = tiny_spec("phost", instruments=[sink])  # list normalizes to tuple
    assert spec.instruments == (sink,)
    ctx = build_simulation(spec)
    assert ctx.hooks == [sink]
    assert ctx.hooks_of_type(ChromeTraceSink) == [sink]
    result = run_flow_list(spec, [Flow(1, 0, 5, 2 * 1460, 0.0)], ctx)
    assert result.n_completed == 1
    assert [e["args"]["fid"] for e in sink.events if e["ph"] == "X"] == [1]


def test_add_hook_prefers_bind_over_attach():
    class BindHook:
        def __init__(self):
            self.bound_to = None

        def bind(self, ctx):
            self.bound_to = ctx

    class AttachHook:
        """The retired attach(collector, fabric) shape: not a hook."""

        def attach(self, collector, fabric):
            raise AssertionError("attach must not be called")

    ctx = build_simulation(tiny_spec("phost"))
    bind_hook = ctx.add_hook(BindHook())
    assert bind_hook.bound_to is ctx
    with pytest.raises(TypeError, match="AttachHook.*has no bind"):
        ctx.add_hook(AttachHook())
    assert ctx.hooks == [bind_hook]
    # Hooks are user input (spec.instruments): the error surfaces at
    # build time, naming the offender.
    with pytest.raises(TypeError, match="has no bind"):
        build_simulation(tiny_spec("phost", instruments=("not a hook",)))


def test_context_now_tracks_the_clock():
    ctx = build_simulation(tiny_spec("phost"))
    assert ctx.now == 0.0
    ctx.env.schedule_at(5e-6, lambda: None)
    ctx.env.run()
    assert ctx.now == pytest.approx(5e-6)
