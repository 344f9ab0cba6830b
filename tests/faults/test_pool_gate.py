"""Regression: a corrupting fault plan must disable the PacketPool.

The injector retains corrupted packets for replay/inspection, so it
declares ``retains_packets`` — the same instrument contract tracers
use — and the runner must gate pooling off, otherwise retained packets
get recycled under the inspector's feet.  Loss-only plans hold no
references and must keep pooling on.
"""

from __future__ import annotations

import pytest

from repro.experiments.defaults import make_spec
from repro.experiments.runner import build_simulation, run_experiment
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.validate import standard_auditors

pytestmark = pytest.mark.faults


def _build(plan):
    return build_simulation(make_spec("phost", "websearch", "tiny", seed=42, faults=plan))


def test_corrupting_plan_disables_pool():
    ctx = _build(FaultPlan(corrupt_rate=0.001))
    assert ctx.faults.retains_packets
    assert not ctx.pool.enabled
    # Hosts must not have been handed the pool either.
    assert all(host.pool is not ctx.pool for host in ctx.fabric.hosts)


def test_loss_only_plan_keeps_pool_enabled():
    ctx = _build(FaultPlan(loss_rate=0.01))
    assert not ctx.faults.retains_packets
    assert ctx.pool.enabled


def test_no_faults_keeps_pool_enabled():
    ctx = _build(None)
    assert ctx.faults is None
    assert ctx.pool.enabled


def test_corruption_run_completes_with_clean_audits():
    spec = make_spec(
        "phost", "websearch", "tiny", seed=42,
        faults=FaultPlan(corrupt_rate=0.005, seed=3),
        instruments=standard_auditors(),
    )
    result = run_experiment(spec)
    assert result.n_completed == result.n_flows
    assert result.audit.ok, result.audit.summary()
    assert result.fault_drops > 0
    assert result.packet_pool is False  # the veto is on record


def test_injector_retains_corrupted_packets():
    spec = make_spec(
        "phost", "websearch", "tiny", seed=42,
        faults=FaultPlan(corrupt_rate=0.005, seed=3),
    )
    ctx = build_simulation(spec)
    from repro.experiments.runner import _generate_flows, run_flow_list
    from repro.sim.randoms import SeededRng

    flows = _generate_flows(spec, ctx.fabric, SeededRng(spec.seed))
    run_flow_list(spec, flows, ctx)
    inj = ctx.faults
    assert isinstance(inj, FaultInjector)
    assert inj.pkts_corrupted > 0
    assert len(inj.corrupted) == min(inj.pkts_corrupted, 4096)
    # Retained packets are real distinct objects, not pool-recycled
    # aliases: corruption implies the pool was off.
    assert len({id(p) for p in inj.corrupted}) == len(inj.corrupted)
