"""Unit + property tests for the paper's two queue disciplines, as every
port runs them: the commodity and pFabric programs on the
:class:`~repro.dataplane.ProgramQueue` engine."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.net.packet import Flow, Packet, PacketType
from repro.dataplane import CommodityProgram, PFabricProgram, ProgramQueue


def commodity(capacity_bytes, n_bands=8):
    return ProgramQueue(CommodityProgram(n_bands), capacity_bytes)


def pfabric(capacity_bytes):
    return ProgramQueue(PFabricProgram(), capacity_bytes)


def make_pkt(size=1500, priority=1, remaining=0, flow=None, seq=0):
    pkt = Packet(PacketType.DATA, flow, seq, 0, 1, size, priority=priority)
    pkt.remaining = remaining
    return pkt


# ----------------------------------------------------------------------
# CommodityProgram (strict-priority, drop-tail)
# ----------------------------------------------------------------------

def test_priority_queue_serves_bands_strictly():
    q = commodity(100_000, n_bands=4)
    low = make_pkt(priority=3)
    mid = make_pkt(priority=1)
    high = make_pkt(priority=0)
    q.push(low)
    q.push(mid)
    q.push(high)
    assert q.pop() is high
    assert q.pop() is mid
    assert q.pop() is low
    assert q.pop() is None


def test_priority_queue_fifo_within_band():
    q = commodity(100_000)
    first, second = make_pkt(priority=2), make_pkt(priority=2)
    q.push(first)
    q.push(second)
    assert q.pop() is first
    assert q.pop() is second


def test_priority_queue_drop_tail_on_overflow():
    q = commodity(3000)
    a, b = make_pkt(1500), make_pkt(1500)
    assert q.push(a) == []
    assert q.push(b) == []
    victim = make_pkt(1500)
    assert q.push(victim) == [victim]  # incoming dropped, queued kept
    assert len(q) == 2


def test_priority_queue_out_of_range_bands_clamped():
    q = commodity(100_000, n_bands=2)
    q.push(make_pkt(priority=-3))
    q.push(make_pkt(priority=99))
    assert len(q) == 2
    assert q.pop().priority == -3  # clamped into band 0 (highest)


def test_priority_queue_requires_a_band():
    with pytest.raises(ValueError):
        commodity(1000, n_bands=0)


def test_priority_queue_small_control_fits_when_data_does_not():
    q = commodity(1600)
    q.push(make_pkt(1500))
    dropped = q.push(make_pkt(1500))
    assert dropped  # data overflows
    assert q.push(make_pkt(40, priority=0)) == []  # control squeezes in


# ----------------------------------------------------------------------
# PFabricProgram (priority drop / priority dequeue)
# ----------------------------------------------------------------------

def test_pfabric_evicts_largest_remaining_on_overflow():
    q = pfabric(3000)
    urgent = make_pkt(1500, remaining=1)
    bulk = make_pkt(1500, remaining=500)
    q.push(urgent)
    q.push(bulk)
    newcomer = make_pkt(1500, remaining=10)
    dropped = q.push(newcomer)
    assert dropped == [bulk]
    assert set(q.pkts) == {urgent, newcomer}


def test_pfabric_drops_incoming_when_it_is_least_urgent():
    q = pfabric(3000)
    a = make_pkt(1500, remaining=1)
    b = make_pkt(1500, remaining=2)
    q.push(a)
    q.push(b)
    worst = make_pkt(1500, remaining=99)
    assert q.push(worst) == [worst]


def test_pfabric_dequeues_most_urgent():
    q = pfabric(100_000)
    f1 = Flow(1, 0, 1, 10_000, 0.0)
    f2 = Flow(2, 0, 1, 10_000, 0.0)
    q.push(make_pkt(remaining=7, flow=f1, seq=0))
    q.push(make_pkt(remaining=3, flow=f2, seq=0))
    assert q.pop().flow is f2


def test_pfabric_starvation_avoidance_sends_oldest_of_best_flow():
    """The most urgent packet selects the flow; the flow's earliest
    queued packet is transmitted (pHost paper, footnote 1)."""
    q = pfabric(100_000)
    flow = Flow(1, 0, 1, 100_000, 0.0)
    older = make_pkt(remaining=9, flow=flow, seq=0)   # sent earlier, larger remaining
    newer = make_pkt(remaining=2, flow=flow, seq=7)   # more urgent stamp
    other = make_pkt(remaining=5, flow=Flow(2, 0, 1, 100_000, 0.0), seq=0)
    q.push(older)
    q.push(other)
    q.push(newer)
    popped = q.pop()
    assert popped is older  # flow chosen via `newer`, but oldest pkt goes


def test_pfabric_control_with_remaining_zero_never_dropped():
    q = pfabric(3000)
    q.push(make_pkt(1500, remaining=5))
    bulk = make_pkt(1500, remaining=6)
    q.push(bulk)
    ack = make_pkt(40, remaining=0)
    dropped = q.push(ack)
    # the full queue evicts its least-urgent *data*, never the ACK
    assert dropped == [bulk]
    assert q.pop() is ack


def test_pfabric_tie_break_drops_most_recent_arrival():
    q = pfabric(3000)
    first = make_pkt(1500, remaining=5)
    second = make_pkt(1500, remaining=5)
    q.push(first)
    q.push(second)
    third = make_pkt(1500, remaining=5)
    assert q.push(third) == [third]  # newest of the equal-priority set


@st.composite
def queue_ops(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["push", "pop"]),
                st.integers(min_value=40, max_value=1500),
                st.integers(min_value=0, max_value=100),
            ),
            max_size=80,
        )
    )


@given(queue_ops(), st.sampled_from(["priority", "pfabric"]))
def test_property_byte_accounting_and_capacity(ops, kind):
    cap = 6000
    q = commodity(cap) if kind == "priority" else pfabric(cap)
    held = {}  # id -> packet: pushed, and neither dropped nor popped since
    for op, size, rem in ops:
        if op == "push":
            pkt = make_pkt(size, priority=rem % 8, remaining=rem)
            held[id(pkt)] = pkt
            for dropped in q.push(pkt):
                del held[id(dropped)]
        else:
            popped = q.pop()
            if popped is not None:
                del held[id(popped)]
        expected = sum(p.size for p in held.values())
        assert q.bytes_queued == expected
        assert q.bytes_queued <= cap
        assert (len(q) == 0) == (not q)
