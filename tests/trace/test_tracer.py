"""Per-flow and per-drop tracing of a run through `ChromeTraceSink`.

The sink is an ordinary instrumentation hook: it rides
``ExperimentSpec.instruments``, stacks on the collector's observer list
and subscribes to the fabric's drop lists, so several sinks (and the
auditors) watch one run side by side.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import build_simulation
from repro.experiments.spec import ExperimentSpec
from repro.net.packet import Flow
from repro.net.topology import TopologyConfig
from repro.obs import ChromeTraceSink


def traced_sim():
    # Sinks ride ExperimentSpec.instruments; build_simulation binds
    # them to the run's SimContext (no hand-wiring).
    sink = ChromeTraceSink()
    spec = ExperimentSpec(
        protocol="phost",
        workload="fixed:1460",
        n_flows=1,
        topology=TopologyConfig.small(),
        instruments=(sink,),
        seed=1,
    )
    ctx = build_simulation(spec)
    assert ctx.hooks == [sink]
    return ctx, sink


def run_flow(ctx, flow):
    ctx.collector.expected_flows = (ctx.collector.expected_flows or 0) + 1
    ctx.env.schedule_at(flow.arrival, ctx.fabric.hosts[flow.src].agent.start_flow, flow)


def of_phase(sink, ph):
    return [e for e in sink.events if e["ph"] == ph]


def drop_instants(sink):
    return [e for e in of_phase(sink, "i") if e["name"].startswith(("drop", "fault drop"))]


def test_full_flow_lifecycle_is_traced():
    ctx, sink = traced_sim()
    flow = Flow(1, 0, 5, 3 * 1460, 0.0)
    run_flow(ctx, flow)
    ctx.env.run(until=0.01)
    assert flow.completed
    (span,) = of_phase(sink, "X")  # one span per completed flow
    assert span["name"] == "flow 1"
    assert span["args"] == {
        "fid": 1, "src": 0, "dst": 5, "bytes": 3 * 1460, "finished": True,
    }
    assert span["ts"] == 0.0
    assert span["dur"] == pytest.approx(flow.finish * 1e6)
    rts = [e for e in of_phase(sink, "i") if e["name"] == "rts"]
    assert [e["args"] for e in rts] == [{"fid": 1, "src": 0, "dst": 5}]
    assert not drop_instants(sink)


def test_events_are_time_ordered():
    ctx, sink = traced_sim()
    for i in range(5):
        run_flow(ctx, Flow(i, i, (i + 2) % 12, 1460 * 4, i * 1e-6))
    ctx.env.run(until=0.01)
    instants = [e["ts"] for e in of_phase(sink, "i")]
    assert len(instants) >= 5 and instants == sorted(instants)
    # Spans are emitted at completion, so their end times are ordered.
    ends = [e["ts"] + e["dur"] for e in of_phase(sink, "X")]
    assert len(ends) == 5 and ends == sorted(ends)


def test_drop_events_capture_hop():
    ctx, sink = traced_sim()
    # blast one receiver from many senders to force last-hop drops
    for fid, sender in enumerate(range(1, 12)):
        run_flow(ctx, Flow(fid, sender, 0, 1460 * 8, 0.0))
    ctx.env.run(until=0.05)
    drops = drop_instants(sink)
    assert ctx.fabric.drops_total > 0
    assert len(drops) == ctx.fabric.drops_total
    for e in drops:
        assert e["name"] == f"drop hop{e['args']['hop']}"
        assert e["args"]["hop"] in ctx.fabric.hop_names


def test_observers_stack():
    # Observers are additive: a second sink coexists with the first
    # and both see the same events.
    ctx, sink = traced_sim()
    second = ChromeTraceSink().bind(ctx)
    for fid, sender in enumerate(range(1, 12)):
        run_flow(ctx, Flow(fid, sender, 0, 1460 * 8, 0.0))
    ctx.env.run(until=0.05)
    assert drop_instants(sink) and of_phase(sink, "X")
    assert second.events == sink.events


def test_same_tracer_double_attach_rejected():
    ctx, sink = traced_sim()
    with pytest.raises(RuntimeError):
        sink.bind(ctx)
