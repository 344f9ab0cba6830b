"""Differential spec fuzz: the simulator's fast paths against their plain forms.

Hypothesis draws small specs: one of the four transports, the two-tier
or the k=4 fat-tree fabric with spray or ECMP, a fault plan (none,
Bernoulli loss, a link that goes down mid-run, a paused host), the
default dataplane or DCTCP's ECN program, and 20-60 flows.  Each spec
runs twice under the standard auditors: as is, and with the plain forms
of ``tests/net/models.py`` patched in (two events per hop, which also
asks the pHost NIC's pull source at every end of serialization; pHost
reissue checks that always re-arm; window RTOs cancelled and scheduled
anew on every arm).  Then:

* the two runs give the same run digest;
* on pHost, the two runs give the same token ledger: expired and stale
  tokens and the four retired totals, summed over the sources;
* the auditors are clean on both, port ledgers included;
* the fast run dispatches no more events than the plain one.

Tier 1 draws a few specs per run; ``pytest --hypothesis-profile=ci``
(the profile is registered in ``tests/conftest.py``) draws as many as
the profile allows.  A counterexample Hypothesis shrinks is kept on the
test as an ``@example``; none has been found so far.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.faults import FaultPlan, LinkDown
from repro.faults.plan import HostPause
from repro.net.fattree import FatTreeConfig
from repro.net.topology import TopologyConfig
from repro.protocols.phost.agent import PHostAgent
from repro.validate import run_digest, standard_auditors
from tests.net.models import use_eager_rto, use_polling_reissue, use_two_event_hop

#: Specs per test run: a handful in tier 1, the profile's budget under ``ci``.
EXAMPLES = settings.default.max_examples if settings.get_current_profile_name() == "ci" else 5


@st.composite
def small_specs(draw) -> ExperimentSpec:
    fat_tree = draw(st.booleans())
    balancing = draw(st.sampled_from(["spray", "ecmp"]))
    if fat_tree:
        topology = FatTreeConfig(k=4, load_balancing=balancing)
        uplink, n_hosts = "edge0.up.agg1", 16
    else:
        topology = replace(TopologyConfig.small(), load_balancing=balancing)
        uplink, n_hosts = "tor0.up.c1", 12
    fault = draw(st.sampled_from(["none", "loss", "link-down", "host-pause"]))
    start = draw(st.floats(20e-6, 200e-6))
    end = start + draw(st.floats(10e-6, 100e-6))
    if fault == "loss":
        plan = FaultPlan(loss_rate=draw(st.sampled_from([0.002, 0.02])), seed=draw(st.integers(0, 99)))
    elif fault == "link-down":
        plan = FaultPlan(link_downs=(LinkDown(uplink, start, end),))
    elif fault == "host-pause":
        plan = FaultPlan(host_pauses=(HostPause(draw(st.integers(0, n_hosts - 1)), start, end),))
    else:
        plan = None
    return ExperimentSpec(
        protocol=draw(st.sampled_from(["phost", "pfabric", "fastpass", "dctcp"])),
        workload=draw(st.sampled_from(["websearch", "imc10"])),
        n_flows=draw(st.integers(20, 60)),
        topology=topology,
        max_flow_bytes=120_000,
        dataplane=draw(st.sampled_from([None, "dctcp"])),
        faults=plan,
        seed=draw(st.integers(0, 999)),
    )


class TokenTotals:
    """A hook that sums the pHost sources' token counters at the end of
    a run (an empty tuple for other transports)."""

    FIELDS = (
        "tokens_expired", "tokens_stale", "tokens_received_retired",
        "tokens_spent_retired", "tokens_expired_retired", "tokens_unspent_retired",
    )

    def __init__(self):
        self.totals = ()

    def bind(self, ctx) -> None:
        pass

    def finalize(self, ctx) -> None:
        sources = [h.agent.source for h in ctx.fabric.hosts if isinstance(h.agent, PHostAgent)]
        if sources:
            self.totals = tuple(sum(getattr(s, f) for s in sources) for f in self.FIELDS)


def _audited(spec: ExperimentSpec):
    tokens = TokenTotals()
    result = run_experiment(spec.variant(instruments=standard_auditors() + (tokens,)))
    assert result.audit.ok, result.audit.summary()
    return result, tokens.totals


@settings(max_examples=EXAMPLES, deadline=None)
@given(small_specs())
def test_fast_paths_match_their_plain_forms(spec):
    fast, fast_tokens = _audited(spec)
    with pytest.MonkeyPatch.context() as patch:
        use_two_event_hop(patch)
        use_polling_reissue(patch)
        use_eager_rto(patch)
        plain, plain_tokens = _audited(spec)
    assert run_digest(fast) == run_digest(plain)
    assert fast_tokens == plain_tokens
    assert (spec.protocol == "phost") == bool(fast_tokens)
    assert fast.events_processed <= plain.events_processed
