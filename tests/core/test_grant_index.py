"""The destination's grant index against its oracle, the policy scan.

A :class:`PHostDestination` whose grant policy declares
``flow_local_key`` keeps its grantable flows in a heap; any other
policy makes every pick scan ``self.states`` with ``policy.select``.
Both must grant the same ``(time, fid, seq)`` stream.  Two destinations
— one as built, one forced onto the scan — are driven through the same
random RTS / data / regrant / downgrade / completion sequence on their
own event loops and compared token for token.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net.packet import Flow, Packet, PacketType
from repro.net.pool import PacketPool
from repro.net.topology import TopologyConfig
from repro.protocols.phost.config import PHostConfig
from repro.protocols.phost.destination import PHostDestination
from repro.protocols.phost.policies import make_policy
from repro.sim.engine import EventLoop

ME = 1  # the destination's host id
TOPO = TopologyConfig.small()
MTU = TOPO.mtu_tx_time  # one MTU's serialization time on a host link
POLICIES = ["srpt", "edf", "fifo", "tenant_fair"]


class _Collector:
    def data_delivered(self, pkt):
        pass

    def data_duplicate(self, pkt):
        pass

    def flow_completed(self, flow, now):
        flow.finish = now


class _Host:
    node_id = ME


class _Agent:
    """Just enough of PHostAgent for a destination half on its own."""

    def __init__(self):
        self.env = EventLoop()
        self.pool = PacketPool(enabled=False)
        self.collector = _Collector()
        self.host = _Host()
        self.sent = []  # (time, type, fid, seq) of every control packet

    def send_control(self, pkt):
        self.sent.append((self.env.now, pkt.ptype.name, pkt.flow.fid, pkt.seq))

    def data_priority(self, flow):
        return 1


def _destination(policy_name, scan, downgrade_mtus=8.0):
    # A low threshold makes downgrades routine; a zero downgrade time
    # leaves only the tick's own bookkeeping to keep a downgraded flow
    # from being picked again on the same tick.
    config = PHostConfig(
        free_tokens=2, downgrade_threshold=3, downgrade_mtus=downgrade_mtus,
        grant_policy=policy_name,
    ).resolve(TOPO)
    dest = PHostDestination(_Agent(), config, make_policy(policy_name))
    if scan:
        dest._ranked = None  # the oracle: policy.select over the eligible scan
    return dest


def _flows():
    """Fresh flows per destination (completion is recorded on them).
    Sizes, arrivals, deadlines and tenants all collide somewhere, so
    every policy has ties to break down to the fid."""
    sizes = [1, 3, 3, 9, 9, 30]
    return [
        Flow(
            fid, 2 + fid, ME, n * 1460, arrival=(fid // 2) * 1e-6,
            tenant=fid % 2, deadline=None if fid % 3 == 0 else (fid % 2) * 1e-3,
        )
        for fid, n in enumerate(sizes)
    ]


def _apply(dest, flows, op):
    kind, f, arg = op
    flow = flows[f % len(flows)]
    env = dest.env
    state = dest.states.get(flow.fid)
    if kind == "rts":
        dest.on_rts(Packet(PacketType.RTS, flow, 0, flow.src, ME, 40))
    elif kind == "data":
        dest.on_data(Packet(PacketType.DATA, flow, arg % flow.n_pkts, flow.src, ME, 1500))
    elif kind == "advance":  # in units of a fifth of an MTU time: ticks land on and off grid
        env.run(until=env.now + (1 + arg) * MTU / 5)
    elif state is None:
        return
    elif kind == "regrant":
        dest._queue_regrants(state, state.missing())
        dest._maybe_start_timer()
    elif kind == "downgrade":
        dest._downgrade(state)
    elif kind == "complete":
        for seq in range(flow.n_pkts):
            dest.on_data(Packet(PacketType.DATA, flow, seq, flow.src, ME, 1500))


_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["rts", "rts", "data", "data", "data", "advance", "advance", "advance",
             "regrant", "downgrade", "complete"]
        ),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=60),
    ),
    max_size=80,
)


@pytest.mark.parametrize("policy_name", POLICIES)
@settings(max_examples=120, deadline=None)
@given(ops=_ops, downgrade_mtus=st.sampled_from([0.0, 8.0]))
# accepted data moves a flow ahead of one that led it on arrival time
@example(
    ops=[("rts", 3, 0), ("rts", 4, 0), ("data", 4, 0), ("advance", 0, 9), ("advance", 0, 9)],
    downgrade_mtus=8.0,
)
# a flow downgraded on a tick is not picked again on that tick
@example(
    ops=[("rts", 5, 0), ("rts", 3, 0)] + [("advance", 0, 60)] * 6, downgrade_mtus=0.0,
)
def test_grant_index_grants_what_the_scan_grants(policy_name, ops, downgrade_mtus):
    indexed = _destination(policy_name, False, downgrade_mtus)
    oracle = _destination(policy_name, True, downgrade_mtus)
    assert (indexed._ranked is None) == (policy_name == "tenant_fair")
    indexed_flows, oracle_flows = _flows(), _flows()
    for op in ops:
        _apply(indexed, indexed_flows, op)
        _apply(oracle, oracle_flows, op)
        assert indexed.agent.sent == oracle.agent.sent
    for dest in (indexed, oracle):  # drain: long enough for downgrades and reissues
        dest.env.run(until=dest.env.now + 200 * MTU)
    assert indexed.agent.sent == oracle.agent.sent
    assert indexed.env.events_processed == oracle.env.events_processed
    assert indexed.tokens_granted == oracle.tokens_granted


@pytest.mark.parametrize("policy_name", ["srpt", "edf", "fifo"])
def test_grant_index_stays_proportional_to_the_flows_it_ranks(policy_name):
    """Every accepted data packet re-keys its flow; the superseded
    entries must not pile up for the length of the flow."""
    dest = _destination(policy_name, False)
    flows = [Flow(fid, 2 + fid, ME, 5000 * 1460, 0.0, deadline=1.0) for fid in range(3)]
    for flow in flows:
        dest.on_rts(Packet(PacketType.RTS, flow, 0, flow.src, ME, 40))
    for seq in range(4000):
        for flow in flows[1:]:  # never the top flow, so nothing surfaces to be popped
            dest.on_data(Packet(PacketType.DATA, flow, seq, flow.src, ME, 1500))
    assert len(dest._ranked) <= 2 * (len(dest.states) + 64) + 1
