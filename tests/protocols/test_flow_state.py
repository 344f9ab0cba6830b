"""Per-flow state is freed with the flow.

Each transport keeps state for the flows still open and nothing for the
ones that finished: a completed flow is known by ``flow.finish``, not by
an id kept in a set.  Two runs of a protocol that differ only in how
many flows they carry must therefore end with the same amount of agent
state.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.experiments.defaults import make_spec
from repro.experiments.runner import run_experiment

_CONTAINERS = (dict, set, frozenset, list, deque, bytearray)


class _Grab:
    """A passive instrument that keeps the run's context."""

    ctx = None

    def bind(self, ctx):
        self.ctx = ctx
        return self


def _agent_state(protocol: str, n_flows: int) -> int:
    """Summed len() of every container attribute of every host agent
    (pHost's source and destination halves included) after a run."""
    grab = _Grab()
    spec = make_spec(protocol, "imc10", "tiny", n_flows=n_flows, seed=3)
    result = run_experiment(spec.variant(instruments=(grab,)))
    assert result.n_completed == n_flows
    total = 0
    for host in grab.ctx.fabric.hosts:
        agent = host.agent
        owners = [agent] + [
            getattr(agent, half) for half in ("source", "destination") if hasattr(agent, half)
        ]
        for owner in owners:
            total += sum(len(v) for v in vars(owner).values() if isinstance(v, _CONTAINERS))
    return total


@pytest.mark.parametrize("protocol", ["phost", "pfabric", "fastpass", "dctcp"])
def test_agent_state_does_not_grow_with_completed_flows(protocol):
    assert _agent_state(protocol, 80) == _agent_state(protocol, 160)
