"""Unit tests for the match-action dataplane engine.

Two kinds of coverage:

* **the engine against plain-loop models** — the queue edge cases
  (zero-byte budget, exact fit, eviction ties, starvation avoidance)
  run on :class:`ProgramQueue` with each reference program and on the
  matching model in ``tests/dataplane/models.py``, and a Hypothesis
  test drives the two side by side over random push/pop sequences;
* **engine properties** — the per-stage ledgers the auditors reconcile,
  stage binding, and the registry plumbing.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.dataplane import (
    CommodityProgram,
    DataplaneProgram,
    DctcpEcnProgram,
    PFabricProgram,
    ProgramQueue,
    available_dataplanes,
    get_dataplane,
    register_dataplane,
)
from repro.net.packet import Flow, Packet, PacketType
from tests.dataplane.models import CommodityModel, DctcpModel, PFabricModel


def make_pkt(size=1500, priority=1, remaining=0, flow=None, seq=0):
    pkt = Packet(PacketType.DATA, flow, seq, 0, 1, size, priority=priority)
    pkt.remaining = remaining
    return pkt


def commodity_queue(kind, capacity):
    if kind == "model":
        return CommodityModel(capacity)
    return ProgramQueue(CommodityProgram(), capacity)


def pfabric_queue(kind, capacity):
    if kind == "model":
        return PFabricModel(capacity)
    return ProgramQueue(PFabricProgram(), capacity)


# ----------------------------------------------------------------------
# Edge cases, engine and model
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["model", "program"])
@pytest.mark.parametrize("make_queue", [commodity_queue, pfabric_queue])
def test_zero_byte_budget_drops_everything(kind, make_queue):
    q = make_queue(kind, 0)
    pkt = make_pkt(40)
    assert q.push(pkt) == [pkt]
    assert len(q) == 0
    assert q.bytes_queued == 0
    assert q.pop() is None


@pytest.mark.parametrize("kind", ["model", "program"])
@pytest.mark.parametrize("make_queue", [commodity_queue, pfabric_queue])
def test_exact_fit_push_is_admitted(kind, make_queue):
    """A packet that lands occupancy exactly on the budget is kept;
    one more byte would overflow."""
    q = make_queue(kind, 3000)
    assert q.push(make_pkt(1500)) == []
    assert q.push(make_pkt(1500)) == []  # exactly at capacity
    assert q.bytes_queued == 3000
    extra = make_pkt(40)
    assert extra in q.push(extra)  # even 40B over budget must drop
    assert q.bytes_queued == 3000


@pytest.mark.parametrize("kind", ["model", "program"])
def test_pfabric_eviction_tie_on_equal_remaining_drops_newest(kind):
    """Urgency ties break on arrival stamp: the newest (the incoming
    packet) is the victim, buffered packets survive."""
    q = pfabric_queue(kind, 3000)
    first = make_pkt(1500, remaining=5)
    second = make_pkt(1500, remaining=5)
    q.push(first)
    q.push(second)
    third = make_pkt(1500, remaining=5)
    assert q.push(third) == [third]
    assert len(q) == 2


@pytest.mark.parametrize("kind", ["model", "program"])
def test_pfabric_starvation_avoidance_sends_oldest_of_best_flow(kind):
    """The most urgent packet selects the *flow*; the flow's earliest
    queued packet is transmitted (pHost paper, footnote 1)."""
    q = pfabric_queue(kind, 100_000)
    flow = Flow(1, 0, 1, 100_000, 0.0)
    older = make_pkt(remaining=9, flow=flow, seq=0)
    newer = make_pkt(remaining=2, flow=flow, seq=7)
    other = make_pkt(remaining=5, flow=Flow(2, 0, 1, 100_000, 0.0), seq=0)
    q.push(older)
    q.push(other)
    q.push(newer)
    assert q.pop() is older


@pytest.mark.parametrize("kind", ["model", "program"])
def test_commodity_strict_priority_and_fifo(kind):
    q = commodity_queue(kind, 100_000)
    low = make_pkt(priority=3)
    mid_a = make_pkt(priority=1)
    mid_b = make_pkt(priority=1)
    q.push(low)
    q.push(mid_a)
    q.push(mid_b)
    assert q.pop() is mid_a
    assert q.pop() is mid_b
    assert q.pop() is low
    assert q.pop() is None


@pytest.mark.parametrize("kind", ["model", "program"])
def test_commodity_clamps_out_of_range_bands(kind):
    q = commodity_queue(kind, 100_000)
    q.push(make_pkt(priority=-3))
    q.push(make_pkt(priority=99))
    assert len(q) == 2
    assert q.pop().priority == -3  # clamped into band 0 (highest)


# ----------------------------------------------------------------------
# Engine stage ledgers
# ----------------------------------------------------------------------

def test_engine_stage_ledgers_balance():
    q = ProgramQueue(CommodityProgram(), 3000)
    kept_a, kept_b, refused = make_pkt(1500), make_pkt(1500), make_pkt(1500)
    q.push(kept_a)
    q.push(kept_b)
    q.push(refused)  # drop-tail: incoming refused
    q.pop()
    st = q.state
    assert st.classified == 3
    assert st.admitted == 2
    assert st.dropped_incoming == 1
    assert st.evicted == 0
    assert st.scheduled == 1
    assert st.classified == st.admitted + st.dropped_incoming
    assert st.admitted == st.scheduled + len(q) + st.evicted


def test_engine_eviction_ledger_counts_displaced_buffered_packets():
    q = ProgramQueue(PFabricProgram(), 3000)
    q.push(make_pkt(1500, remaining=1))
    bulk = make_pkt(1500, remaining=500)
    q.push(bulk)
    assert q.push(make_pkt(1500, remaining=10)) == [bulk]
    st = q.state
    assert st.admitted == 3       # all three entered the buffer
    assert st.evicted == 1        # the bulk packet was displaced
    assert st.dropped_incoming == 0
    assert st.admitted == st.scheduled + len(q) + st.evicted


def test_engine_peek_matches_pop_without_removal():
    q = ProgramQueue(CommodityProgram(), 100_000)
    a, b = make_pkt(priority=2), make_pkt(priority=0)
    q.push(a)
    q.push(b)
    assert q.peek() is b
    assert len(q) == 2
    assert q.pop() is b


@pytest.mark.parametrize("kind", ["model", "program"])
def test_pfabric_peek_matches_pop_without_removal(kind):
    """peek() applies the dequeue rule, starvation avoidance included:
    it is not the head of the buffer."""
    q = pfabric_queue(kind, 100_000)
    flow = Flow(1, 0, 1, 100_000, 0.0)
    head = make_pkt(remaining=5, flow=Flow(2, 0, 1, 100_000, 0.0))
    older = make_pkt(remaining=9, flow=flow, seq=0)
    newer = make_pkt(remaining=2, flow=flow, seq=7)
    for pkt in (head, older, newer):
        q.push(pkt)
    assert q.peek() is older  # flow chosen via `newer`; its oldest packet goes
    assert len(q) == 3
    assert q.pop() is older
    assert q.peek() is newer and q.pop() is newer
    assert q.peek() is head and q.pop() is head
    assert q.peek() is None


# ----------------------------------------------------------------------
# The engine against the plain-loop models
# ----------------------------------------------------------------------

_FLOWS = [None] + [Flow(fid, 0, 1, 100_000, 0.0) for fid in (1, 2, 3)]

_PAIRS = {
    "commodity": (lambda cap: ProgramQueue(CommodityProgram(4), cap),
                  lambda cap: CommodityModel(cap, n_bands=4)),
    "pfabric": (lambda cap: ProgramQueue(PFabricProgram(), cap), PFabricModel),
    "dctcp": (
        lambda cap: ProgramQueue(DctcpEcnProgram(4, mark_threshold_bytes=1500), cap),
        lambda cap: DctcpModel(cap, n_bands=4, mark_threshold_bytes=1500),
    ),
}

_ops = st.lists(
    st.one_of(
        st.just(("pop",)),
        st.tuples(
            st.just("push"),
            st.sampled_from([40, 40, 700, 1500]),  # control packets and data
            st.integers(min_value=-1, max_value=5),  # priority, clamped to 4 bands
            st.integers(min_value=0, max_value=4),  # few values: ties in remaining
            st.sampled_from(_FLOWS),
            st.sampled_from([PacketType.DATA, PacketType.ACK]),
        ),
    ),
    max_size=120,
)


def _twins(serial, size, priority, remaining, flow, ptype):
    """Two equal packets, one per queue, so marks stay comparable."""
    pair = []
    for _ in range(2):
        pkt = Packet(ptype, flow, serial, 0, 1, size, priority=priority)
        pkt.remaining = remaining
        pair.append(pkt)
    return pair


def _seen(pkt):
    return None if pkt is None else (pkt.seq, pkt.ecn)


def _all_seen(pkts):
    return [_seen(pkt) for pkt in pkts]


@given(
    st.sampled_from(sorted(_PAIRS)), _ops, st.sampled_from([0, 1500, 3100, 6000]),
)
@example(  # a 1500-byte arrival into 40-byte packets: 30 victims at once
    "pfabric", [("push", 40, 1, 3, None, PacketType.DATA)] * 30
    + [("push", 1500, 1, 0, None, PacketType.DATA)], 1500,
)
def test_programs_match_their_reference_models(name, ops, capacity):
    """Random push/pop sequences give the same drops, in the same
    order, the same ECN marks and the same dequeue order on the engine
    and on the program's plain-loop model."""
    make_engine, make_model = _PAIRS[name]
    engine, model = make_engine(capacity), make_model(capacity)
    for serial, op in enumerate(ops):
        if op[0] == "push":
            mine, theirs = _twins(serial, *op[1:])
            assert _all_seen(engine.push(mine)) == _all_seen(model.push(theirs))
        else:
            assert _seen(engine.peek()) == _seen(model.peek())
            assert _seen(engine.pop()) == _seen(model.pop())
        assert _all_seen(engine.pkts) == _all_seen(model.pkts)
        assert (engine.bytes_queued, engine.pkts_queued) == (
            model.bytes_queued, model.pkts_queued,
        )
        assert engine.state.marked == model.marked


def test_meter_mark_counts_without_dropping():
    class MarkAll(DataplaneProgram):
        name = "mark-all-test"

        def meter(self, pkt, q):
            return True

    q = ProgramQueue(MarkAll(), 100_000)
    q.push(make_pkt())
    q.push(make_pkt())
    assert q.state.marked == 2
    assert q.state.admitted == 2  # marking never removes a packet
    assert q.state.marked <= q.state.classified


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_builtin_programs_registered():
    names = available_dataplanes()
    for expected in ("commodity", "pfabric", "dctcp"):
        assert expected in names


def test_unknown_dataplane_is_a_clear_error():
    with pytest.raises(ValueError, match="unknown dataplane"):
        get_dataplane("no-such-program")


def test_external_registration_round_trips():
    class Custom(DataplaneProgram):
        name = "custom-test-program"

    program = Custom()
    register_dataplane(program)
    assert get_dataplane("custom-test-program") is program
    assert "custom-test-program" in available_dataplanes()


def test_every_program_runs_on_the_engine():
    """``make_queue`` builds the engine for every program, with only the
    stages the program overrides bound."""
    commodity = get_dataplane("commodity").make_queue(1000)
    pfabric = get_dataplane("pfabric").make_queue(1000)
    dctcp = get_dataplane("dctcp").make_queue(1000)
    for queue, program in (
        (commodity, CommodityProgram), (pfabric, PFabricProgram), (dctcp, DctcpEcnProgram),
    ):
        assert type(queue) is ProgramQueue and type(queue.program) is program
        assert queue.capacity_bytes == 1000
    assert commodity.meter is None and pfabric.meter is None
    assert dctcp.meter is not None  # the only reference program that marks


def test_inherited_stages_keep_their_contract():
    """A program that overrides nothing is one FIFO band with
    drop-tail, exactly as the stage defaults say."""

    class Bare(DataplaneProgram):
        name = "bare-test-program"

    q = Bare().make_queue(3000)
    a, b, c = make_pkt(priority=5), make_pkt(priority=0), make_pkt()
    assert q.push(a) == [] and q.push(b) == []
    assert q.push(c) == [c]
    assert q.pop() is a and q.pop() is b and q.pop() is None
    assert q.state.to_dict() == {
        "classified": 3, "marked": 0, "admitted": 2,
        "dropped_incoming": 1, "evicted": 0, "scheduled": 2,
    }
