"""DCTCP ECN program behaviour + the shared no-drop sentinel contract."""

from __future__ import annotations

import pytest

from repro.dataplane import CommodityProgram, DctcpEcnProgram, ProgramQueue
from repro.dataplane.program import _NO_DROP
from repro.net.packet import Flow, Packet, PacketType


def data_pkt(size=1500, priority=1):
    return Packet(PacketType.DATA, None, 0, 0, 1, size, priority=priority)


def ack_pkt():
    return Packet(PacketType.ACK, None, 0, 1, 0, 40, priority=0)


# ----------------------------------------------------------------------
# ECN marking
# ----------------------------------------------------------------------

def test_marks_data_at_or_above_threshold():
    q = ProgramQueue(DctcpEcnProgram(mark_threshold_bytes=3000), 100_000)
    first, second, third = data_pkt(), data_pkt(), data_pkt()
    q.push(first)   # occupancy 0 before push: unmarked
    q.push(second)  # occupancy 1500: unmarked
    q.push(third)   # occupancy 3000 >= K: marked
    assert (first.ecn, second.ecn, third.ecn) == (0, 0, 1)
    assert q.state.marked == 1


def test_marking_observes_occupancy_excluding_the_arrival():
    """The meter runs before the provisional append: a packet whose own
    size would cross the threshold is not marked."""
    q = ProgramQueue(DctcpEcnProgram(mark_threshold_bytes=1000), 100_000)
    pkt = data_pkt(1500)
    q.push(pkt)
    assert pkt.ecn == 0


def test_acks_never_marked():
    q = ProgramQueue(DctcpEcnProgram(mark_threshold_bytes=0), 100_000)
    ack = ack_pkt()
    q.push(data_pkt())
    q.push(ack)
    assert ack.ecn == 0
    assert q.state.marked == 1  # only the data packet


def test_marked_packets_are_not_dropped():
    """Marking and dropping are independent ledger columns."""
    q = ProgramQueue(DctcpEcnProgram(mark_threshold_bytes=0), 100_000)
    pkt = data_pkt()
    assert q.push(pkt) == []
    assert pkt.ecn == 1
    assert q.state.marked == 1
    assert q.state.dropped_incoming == 0
    assert q.pop() is pkt


def test_evicts_lowest_priority_class_protecting_acks():
    """Per-class drop: a full buffer sheds the newest data packet, not
    an arriving high-priority ACK."""
    q = ProgramQueue(DctcpEcnProgram(), 3000)
    q.push(data_pkt())
    q.push(data_pkt())
    ack = ack_pkt()
    dropped = q.push(ack)
    assert ack not in dropped
    assert len(dropped) == 1 and dropped[0].ptype == PacketType.DATA
    assert q.pop() is ack  # and it schedules first (band 0)


def test_data_only_overflow_degenerates_to_drop_tail():
    q = ProgramQueue(DctcpEcnProgram(), 3000)
    q.push(data_pkt())
    q.push(data_pkt())
    incoming = data_pkt()
    assert q.push(incoming) == [incoming]
    assert q.state.dropped_incoming == 1
    assert q.state.evicted == 0


def test_threshold_and_band_validation():
    with pytest.raises(ValueError):
        DctcpEcnProgram(mark_threshold_bytes=-1)
    with pytest.raises(ValueError):
        DctcpEcnProgram(n_bands=0)


# ----------------------------------------------------------------------
# The shared _NO_DROP sentinel is read-only
# ----------------------------------------------------------------------

def test_no_drop_sentinel_compares_as_empty_list():
    q = ProgramQueue(CommodityProgram(), 100_000)
    assert q.push(data_pkt()) == []


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.append(1),
        lambda s: s.extend([1]),
        lambda s: s.insert(0, 1),
        lambda s: s.pop(),
        lambda s: s.remove(1),
        lambda s: s.clear(),
        lambda s: s.sort(),
        lambda s: s.reverse(),
        lambda s: s.__setitem__(0, 1),
        lambda s: s.__delitem__(0),
        lambda s: s.__iadd__([1]),
        lambda s: s.__imul__(2),
    ],
    ids=[
        "append", "extend", "insert", "pop", "remove", "clear",
        "sort", "reverse", "setitem", "delitem", "iadd", "imul",
    ],
)
def test_no_drop_sentinel_refuses_mutation(mutate):
    with pytest.raises(TypeError, match="read-only"):
        mutate(_NO_DROP)
    assert _NO_DROP == []  # still pristine for every other caller


def test_mutating_caller_is_caught_not_corrupting():
    """The regression this guards: a caller that appends to the empty
    push() result would silently poison every later no-drop return.
    Now it raises at the offending call site instead."""
    q = ProgramQueue(CommodityProgram(), 100_000)
    result = q.push(data_pkt())
    with pytest.raises(TypeError):
        result.append(data_pkt())
    # a fresh push still reports no drops
    assert q.push(data_pkt()) == []
