"""Cut-through at idle ports is invisible.

A :class:`Port` over a queue class that declares ``cut_through = True``
skips the queue when a fitting packet finds the port idle and the queue
empty.  Two oracles replay the same timed send sequence with every
packet pushed and popped: the program's plain-loop model
(``tests/dataplane/models.py``), and the same :class:`ProgramQueue`
with the port's cut-through turned off.  Deliveries (with their ECN
marks), port counters, high-water marks and the event loop's sequence
counter must all come out identical, and a ``ProgramQueue`` that cuts
through must also leave the same stage ledgers.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.dataplane import (
    CommodityProgram,
    DctcpEcnProgram,
    PFabricProgram,
    ProgramQueue,
)
from repro.net.packet import Flow, Packet, PacketType
from repro.net.port import Port
from repro.sim.engine import EventLoop
from tests.dataplane.models import CommodityModel, DctcpModel, PFabricModel

RATE_BPS = 10e9
PROP_S = 200e-9

_FLOWS = [None] + [Flow(fid, 0, 1, 100_000, 0.0) for fid in (1, 2, 3)]

_sends = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1e-7, 1.3e-6, 5e-6]),  # gap before the send
        st.sampled_from([40, 700, 1500, "oversize"]),
        st.integers(min_value=0, max_value=3),  # priority band
        st.integers(min_value=0, max_value=4),  # pFabric remaining
        st.sampled_from(_FLOWS),
    ),
    max_size=40,
)


class Sink:
    def __init__(self, env):
        self.env = env
        self.got = []

    def receive(self, pkt):
        self.got.append((self.env.now, pkt.seq, pkt.ecn))


def _run(queue, sends, pull_budget, cut_through=True):
    """Replay ``sends`` into a fresh port over ``queue``; a pull source
    offers ``pull_budget`` extra data packets whenever the port idles.
    ``cut_through=False`` forces every packet through push and pop."""
    env = EventLoop()
    port = Port(env, RATE_BPS, PROP_S, queue)
    if not cut_through:
        port.cut_through = False
    sink = Sink(env)
    port.connect(sink)
    if pull_budget:
        left = [pull_budget]

        def pull():
            if not left[0]:
                return None
            left[0] -= 1
            return Packet(PacketType.DATA, None, 1000 + left[0], 0, 1, 1500, priority=3)

        port.pull_source = pull
        env.schedule_at(0.0, port.kick)
    t = 0.0
    for serial, (gap, size, priority, remaining, flow) in enumerate(sends):
        t += gap
        if size == "oversize":
            size = queue.capacity_bytes + 1
        pkt = Packet(PacketType.DATA, flow, serial, 0, 1, size, priority=priority)
        pkt.remaining = remaining
        env.schedule_at(t, port.send, pkt)
    env.run()
    counters = (
        port.pkts_enqueued, port.pkts_sent, port.pkts_dropped, port.pkts_pulled,
        port.max_qlen_bytes, port.max_qlen_pkts,
    )
    state = getattr(queue, "state", None)
    ledger = state.to_dict() if state is not None else None
    return sink.got, counters, env._seq, ledger


@given(_sends, st.sampled_from([1500, 3000, 6000]), st.sampled_from([0, 0, 3]))
def test_cut_through_matches_the_program_engine(sends, capacity, pull_budget):
    for program, model in (
        (CommodityProgram(), CommodityModel(capacity)),
        (PFabricProgram(), PFabricModel(capacity)),
        (DctcpEcnProgram(mark_threshold_bytes=1500),
         DctcpModel(capacity, mark_threshold_bytes=1500)),
        # A zero threshold marks every DATA packet, cut through or not.
        (DctcpEcnProgram(mark_threshold_bytes=0),
         DctcpModel(capacity, mark_threshold_bytes=0)),
    ):
        assert (
            _run(ProgramQueue(program, capacity), sends, pull_budget)[:3]
            == _run(model, sends, pull_budget)[:3]
        )


@given(_sends, st.sampled_from([1500, 3000, 6000]), st.sampled_from([0, 0, 3]))
def test_program_queue_cut_through_keeps_its_ledgers(sends, capacity, pull_budget):
    for program in (
        CommodityProgram(),
        PFabricProgram(),
        DctcpEcnProgram(mark_threshold_bytes=1500),
        DctcpEcnProgram(mark_threshold_bytes=0),
    ):
        cut = _run(ProgramQueue(program, capacity), sends, pull_budget)
        pushed = _run(ProgramQueue(program, capacity), sends, pull_budget, cut_through=False)
        assert cut == pushed


class CountingQueue(ProgramQueue):
    __slots__ = ("pushes",)

    def __init__(self, capacity_bytes):
        super().__init__(CommodityProgram(), capacity_bytes)
        self.pushes = 0

    def push(self, pkt):
        self.pushes += 1
        return super().push(pkt)


def test_oversize_packet_at_an_idle_port_is_dropped_through_push():
    env = EventLoop()
    drops = []
    queue = CountingQueue(1500)
    port = Port(env, RATE_BPS, PROP_S, queue, on_drop=lambda pkt, hop: drops.append(pkt))
    port.connect(Sink(env))
    big = Packet(PacketType.DATA, None, 0, 0, 1, 1501)
    port.send(big)
    assert queue.pushes == 1 and drops == [big]
    assert not port.busy and port.pkts_dropped == 1
    assert (port.max_qlen_bytes, port.max_qlen_pkts) == (0, 0)
    port.send(Packet(PacketType.DATA, None, 1, 0, 1, 1500))  # fits: cut through
    assert queue.pushes == 1 and port.busy
    assert (port.max_qlen_bytes, port.max_qlen_pkts) == (1500, 1)


class HandWrittenFifo:
    """A queue written against the port protocol, with no cut-through
    declaration."""

    def __init__(self, capacity_bytes):
        self.capacity_bytes = capacity_bytes
        self.pkts = []
        self.bytes_queued = 0
        self.pkts_queued = 0
        self.pushes = 0

    def push(self, pkt):
        self.pushes += 1
        if self.bytes_queued + pkt.size > self.capacity_bytes:
            return [pkt]
        self.pkts.append(pkt)
        self.bytes_queued += pkt.size
        self.pkts_queued += 1
        return []

    def pop(self):
        if not self.pkts:
            return None
        pkt = self.pkts.pop(0)
        self.bytes_queued -= pkt.size
        self.pkts_queued -= 1
        return pkt

    def __len__(self):
        return self.pkts_queued


def _idle_sends(queue):
    """Four packets, each arriving after the port has drained; returns
    the port."""
    env = EventLoop()
    port = Port(env, RATE_BPS, PROP_S, queue)
    sink = Sink(env)
    port.connect(sink)
    for seq in range(4):
        env.schedule_at(seq * 5e-6, port.send, Packet(PacketType.DATA, None, seq, 0, 1, 1500))
    env.run()
    assert [seq for _, seq, _ in sink.got] == [0, 1, 2, 3]
    return port


def test_undeclared_queue_sees_every_packet():
    queue = HandWrittenFifo(36_000)
    assert not _idle_sends(queue).cut_through
    assert queue.pushes == 4


def test_program_queue_ledgers_see_every_packet():
    queue = ProgramQueue(CommodityProgram(), 36_000)
    _idle_sends(queue)
    assert queue.state.classified == queue.state.scheduled == 4
