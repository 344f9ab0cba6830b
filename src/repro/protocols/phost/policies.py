"""pHost scheduling policies (paper §3.3 "Local Scheduling Problem").

The same policy objects drive both ends:

* at the **destination**, picking which pending flow receives the next
  token (grant side);
* at the **source**, picking which flow's token to spend next (spend
  side).

A policy ranks candidate flow states by a key; the smallest key wins.
Candidates expose ``flow`` (the :class:`repro.net.packet.Flow`) and
``remaining_hint()`` (packets still needed).  ``ctx`` supplies
host-level state — currently per-tenant packet counters for the
tenant-fair policy of §3.3/Fig. 11.

Policies:

* :class:`SRPTPolicy` — fewest remaining packets first; emulates
  Shortest Remaining Processing Time and is the paper's default for
  minimizing mean slowdown.
* :class:`EDFPolicy` — earliest deadline first, for deadline traffic.
* :class:`FIFOPolicy` — oldest flow first (baseline/ablation).
* :class:`TenantFairPolicy` — tenant with the fewest packets scheduled
  so far wins; SRPT breaks ties within the tenant.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Protocol, Sequence

__all__ = [
    "SchedulingPolicy",
    "SRPTPolicy",
    "EDFPolicy",
    "FIFOPolicy",
    "TenantFairPolicy",
    "make_policy",
    "register_policy",
    "available_policies",
    "TenantCounters",
]


class _Candidate(Protocol):  # pragma: no cover - typing aid
    flow: object

    def remaining_hint(self) -> int: ...


class TenantCounters:
    """Per-tenant packet counters held by a host endpoint."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}

    def add(self, tenant: int, n: int = 1) -> None:
        self.counts[tenant] = self.counts.get(tenant, 0) + n

    def get(self, tenant: int) -> int:
        return self.counts.get(tenant, 0)


class SchedulingPolicy:
    """Base: rank candidates, smallest key first."""

    name = "abstract"

    #: True promises that :meth:`key` is a function of the flow alone —
    #: it reads only ``state.flow`` and ``state.remaining_hint()``,
    #: ignores ``ctx``, and ends in ``flow.fid`` so that no two flows
    #: share a key.  The destination then keeps its grantable flows in a
    #: heap ordered by key, re-keying a flow only when it accepts data,
    #: instead of calling :meth:`key` on every flow per token.  The
    #: default (False) is always safe: every pick scans with
    #: :meth:`select`.
    flow_local_key = False

    def key(self, state, ctx: Optional[TenantCounters]):  # pragma: no cover
        raise NotImplementedError

    def select(self, candidates: Sequence, ctx: Optional[TenantCounters] = None):
        """Return the best candidate, or None if there are none."""
        best = None
        best_key = None
        for state in candidates:
            k = self.key(state, ctx)
            if best_key is None or k < best_key:
                best_key = k
                best = state
        return best

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class SRPTPolicy(SchedulingPolicy):
    """Fewest remaining packets first; flow arrival breaks ties."""

    name = "srpt"
    flow_local_key = True

    def key(self, state, ctx=None):
        return (state.remaining_hint(), state.flow.arrival, state.flow.fid)


class EDFPolicy(SchedulingPolicy):
    """Earliest deadline first; deadline-less flows sort last (by SRPT)."""

    name = "edf"
    flow_local_key = True

    def key(self, state, ctx=None):
        deadline = state.flow.deadline
        if deadline is None:
            return (1, 0.0, state.remaining_hint(), state.flow.fid)
        return (0, deadline, state.remaining_hint(), state.flow.fid)


class FIFOPolicy(SchedulingPolicy):
    """Oldest flow first."""

    name = "fifo"
    flow_local_key = True

    def key(self, state, ctx=None):
        return (state.flow.arrival, state.flow.fid)


class TenantFairPolicy(SchedulingPolicy):
    """Fairness across tenants, SRPT within a tenant (paper §3.3).

    The destination "maintain[s] a counter for the number of packets
    received so far from each tenant and in each unit time assign[s] a
    token to a flow from the tenant with smaller count".
    """

    name = "tenant_fair"

    def key(self, state, ctx: Optional[TenantCounters] = None):
        count = ctx.get(state.flow.tenant) if ctx is not None else 0
        return (count, state.remaining_hint(), state.flow.arrival, state.flow.fid)


_POLICIES = {
    SRPTPolicy.name: SRPTPolicy,
    EDFPolicy.name: EDFPolicy,
    FIFOPolicy.name: FIFOPolicy,
    TenantFairPolicy.name: TenantFairPolicy,
}


def register_policy(policy_cls) -> None:
    """Register a custom :class:`SchedulingPolicy` subclass.

    After registration the policy is selectable by name in
    :class:`~repro.protocols.phost.config.PHostConfig` (``grant_policy`` /
    ``spend_policy``) — this is how downstream users plug their own
    scheduling objectives into pHost without touching the fabric
    (paper §3.3).
    """
    name = getattr(policy_cls, "name", None)
    if not name or name == "abstract":
        raise ValueError("policy class needs a non-abstract `name` attribute")
    _POLICIES[name] = policy_cls


def make_policy(name: str) -> SchedulingPolicy:
    """Instantiate a policy by its registry name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None


def available_policies() -> Iterable[str]:
    return sorted(_POLICIES)
