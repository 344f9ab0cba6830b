"""Unit tests for the output port (queue + serializer + link)."""

from __future__ import annotations

import pytest

from repro.net.packet import Flow, Packet, PacketType
from repro.net.port import Port
from repro.dataplane import CommodityProgram, ProgramQueue
from repro.sim.engine import EventLoop
from tests.net.models import use_two_event_hop


class Sink:
    def __init__(self):
        self.received = []
        self.times = []

    def receive(self, pkt):
        self.received.append(pkt)


class TimedSink(Sink):
    def __init__(self, env):
        super().__init__()
        self.env = env

    def receive(self, pkt):
        super().receive(pkt)
        self.times.append(self.env.now)


def make_port(env, rate=10e9, prop=200e-9, cap=36_000, **kwargs):
    port = Port(env, rate, prop, CommodityProgram().make_queue(cap), **kwargs)
    sink = TimedSink(env)
    port.connect(sink)
    return port, sink


def data_pkt(size=1500, priority=1, seq=0):
    return Packet(PacketType.DATA, None, seq, 0, 1, size, priority=priority)


def test_single_packet_timing():
    env = EventLoop()
    port, sink = make_port(env)
    pkt = data_pkt(1500)
    port.send(pkt)
    env.run()
    # arrival = serialization (1.2us) + propagation (200ns)
    assert sink.times == [pytest.approx(1.2e-6 + 200e-9)]
    assert port.bytes_sent == 1500
    assert port.pkts_sent == 1


def test_back_to_back_packets_serialize_sequentially():
    env = EventLoop()
    port, sink = make_port(env)
    port.send(data_pkt(1500, seq=0))
    port.send(data_pkt(1500, seq=1))
    env.run()
    assert sink.times[0] == pytest.approx(1.4e-6)
    assert sink.times[1] == pytest.approx(2.6e-6)  # +1 serialization


def test_priority_band_preempts_between_packets():
    env = EventLoop()
    port, sink = make_port(env)
    port.send(data_pkt(1500, priority=2, seq=0))  # starts transmitting
    port.send(data_pkt(1500, priority=2, seq=1))
    port.send(data_pkt(40, priority=0, seq=99))   # control arrives later
    env.run()
    # control jumps ahead of the queued data packet (not the in-flight one)
    assert [p.seq for p in sink.received] == [0, 99, 1]


def test_drop_callback_reports_hop():
    env = EventLoop()
    drops = []
    port = Port(
        env, 10e9, 0.0, CommodityProgram().make_queue(3000), hop_index=4,
        on_drop=lambda pkt, hop: drops.append((pkt, hop)),
    )
    port.connect(Sink())
    for seq in range(4):
        port.send(data_pkt(1500, seq=seq))
    env.run()
    # one in flight + two queued fit (3000B); the fourth drops
    assert len(drops) == 1
    assert drops[0][1] == 4


def test_pull_source_feeds_idle_port():
    env = EventLoop()
    port, sink = make_port(env)
    supply = [data_pkt(1500, seq=i) for i in range(3)]

    def pull():
        return supply.pop(0) if supply else None

    port.pull_source = pull
    port.kick()
    env.run()
    assert [p.seq for p in sink.received] == [0, 1, 2]


def test_queued_control_beats_pull_data():
    env = EventLoop()
    port, sink = make_port(env)
    supply = [data_pkt(1500, seq=1)]
    port.pull_source = lambda: supply.pop(0) if supply else None
    port.send(data_pkt(40, priority=0, seq=0))
    env.run()
    assert [p.seq for p in sink.received] == [0, 1]


def test_kick_while_busy_is_harmless():
    env = EventLoop()
    port, sink = make_port(env)
    port.send(data_pkt(1500))
    port.kick()
    port.kick()
    env.run()
    assert len(sink.received) == 1


def test_unconnected_port_drops_silently():
    env = EventLoop()
    port = Port(env, 10e9, 0.0, CommodityProgram().make_queue(36_000))
    port.send(data_pkt())
    env.run()  # no exception
    assert port.pkts_sent == 1


def test_queue_high_water_marks():
    env = EventLoop()
    port, sink = make_port(env)
    # Three packets back-to-back: the first starts transmitting
    # immediately, so at most two sit in the queue at once.
    for seq in range(3):
        port.send(data_pkt(1500, seq=seq))
    assert port.max_qlen_pkts == 2
    assert port.max_qlen_bytes == 3000
    env.run()
    # Draining never lowers a high-water mark.
    assert port.max_qlen_pkts == 2
    assert port.max_qlen_bytes == 3000
    assert len(port.queue) == 0


def test_high_water_reflects_post_drop_occupancy():
    env = EventLoop()
    # Capacity of two packets: the third push overflows and is dropped.
    port, sink = make_port(env, cap=3_000)
    for seq in range(6):
        port.send(data_pkt(1500, seq=seq))
    assert port.pkts_dropped > 0
    assert port.max_qlen_bytes <= 3_000
    assert port.max_qlen_pkts <= 2


def _one_then_two_event(monkeypatch, run):
    """``run()`` on the port's one-event hop, then on the plain two-event
    hop (tests/net/models.py); returns both outcomes."""
    fast = run()
    use_two_event_hop(monkeypatch)
    return fast, run()


def test_fused_and_classic_paths_deliver_identically(monkeypatch):
    """The one-event hop is pure mechanics: arrival times, delivery
    order and port counters match the two-event hop exactly; only the
    number of events differs."""

    def run():
        env = EventLoop()
        port, sink = make_port(env)
        for seq in range(8):
            port.send(data_pkt(1500 if seq % 2 else 700, seq=seq))
        env.schedule_at(2e-6, port.send, data_pkt(40, priority=0, seq=100))
        env.run()
        return (
            [p.seq for p in sink.received],
            sink.times,
            port.bytes_sent,
            port.pkts_sent,
        )

    fused, classic = _one_then_two_event(monkeypatch, run)
    assert fused == classic


def test_fused_backlog_delivers_in_order_two_events_per_packet():
    """A lone busy port with a 50-packet backlog: ordered deliveries,
    one arrival per packet, and one wake-up for each of the 49 packets
    that waited behind another."""
    env = EventLoop()
    port, sink = make_port(env, cap=200_000)  # hold all 50 packets
    for seq in range(50):
        port.send(data_pkt(1500, seq=seq))
    env.run()
    assert port.pkts_dropped == 0
    assert [p.seq for p in sink.received] == list(range(50))
    assert env.events_processed == 50 + 49


def test_idle_hop_is_one_event():
    """Nothing waits behind a lone packet, so its hop is its arrival."""
    env = EventLoop()
    port, sink = make_port(env)
    port.send(data_pkt(1500))
    env.run()
    assert env.events_processed == 1 and port.pkts_sent == 1 and not port.busy


# ----------------------------------------------------------------------
# The tie rule: serialization start reserves s (end of serialization)
# and s + 1 (arrival).  Times below are exact binary fractions: at 8 b/s
# a packet of n bytes serializes in n seconds.

RATE_8 = 8.0


class CountingQueue(ProgramQueue):
    """The commodity engine, counting packets that went through push."""

    __slots__ = ("pushes",)

    def __init__(self, capacity_bytes=36_000):
        super().__init__(CommodityProgram(), capacity_bytes)
        self.pushes = 0

    def push(self, pkt):
        self.pushes += 1
        return super().push(pkt)


class SeqSink:
    """Records each arrival as (time, seq of its event, packet seq)."""

    def __init__(self, env):
        self.env = env
        self.got = []

    def receive(self, pkt):
        self.got.append((self.env.now, self.env._seq_now, pkt.seq))


class Forward:
    """The far end of a link that hands every packet to another port."""

    def __init__(self, port):
        self.port = port

    def receive(self, pkt):
        self.port.send(pkt)


def _readings(port):
    return (port.busy, port.pkts_sent, port.bytes_sent, port.bytes_serialized())


def test_arrival_before_another_ports_serialization_end(monkeypatch):
    """Port a starts before port b, so a's arrival (seq s_a + 1) sorts
    before b's end of serialization (s_b) at their shared timestamp:
    b is still busy, so the forwarded packet goes through b's queue."""

    def run():
        env = EventLoop()
        b = Port(env, RATE_8, 0.5, CountingQueue())
        sink = SeqSink(env)
        b.connect(sink)
        a = Port(env, RATE_8, 1.0, CountingQueue())
        a.connect(Forward(b))
        a.send(data_pkt(2, seq=1))  # arrives at b's end of serialization, 3.0
        b.send(data_pkt(3, seq=0))  # serializes over [0, 3]
        env.run()
        return sink.got, b.queue.pushes, _readings(b), env._seq

    fast, model = _one_then_two_event(monkeypatch, run)
    assert fast == model
    got, pushes, _, _ = fast
    assert [(t, pkt) for t, _, pkt in got] == [(3.5, 0), (5.5, 1)]
    assert pushes == 1  # queued, not cut through


@pytest.mark.parametrize("order", ["before", "after"])
def test_send_at_exactly_busy_until(order, monkeypatch):
    """A send at the instant serialization ends queues if its event is
    ordered before the end of serialization (seq s) and cuts through if
    it is ordered after, as on the two-event hop; the port's readers
    agree with that hop at that instant."""

    def run():
        env = EventLoop()
        port = Port(env, RATE_8, 0.5, CountingQueue())
        sink = SeqSink(env)
        port.connect(sink)
        seen = []

        def probe_and_send():
            seen.append(_readings(port))
            port.send(data_pkt(2, seq=1))
            seen.append(_readings(port))

        if order == "before":
            env.schedule_at(3.0, probe_and_send)
        port.send(data_pkt(3, seq=0))  # serializes over [0, 3]
        if order == "after":
            env.schedule_at(3.0, probe_and_send)
        env.schedule_at(1.5, lambda: seen.append(_readings(port)))
        env.run()
        seen.append(_readings(port))
        return sink.got, port.queue.pushes, seen, env._seq

    fast, model = _one_then_two_event(monkeypatch, run)
    assert fast == model
    got, pushes, seen, _ = fast
    assert [(t, pkt) for t, _, pkt in got] == [(3.5, 0), (5.5, 1)]
    assert seen[0] == (True, 0, 0, 1.5)  # half way through packet 0
    assert pushes == (1 if order == "before" else 0)
    assert seen[1][:3] == ((True, 0, 0) if order == "before" else (False, 1, 3))
    assert seen[-1] == (False, 2, 5, 5)


def test_zero_propagation_delay_wake_up_and_arrival_tie(monkeypatch):
    """With no propagation delay the arrival shares its timestamp with
    the wake-up that starts the next packet; s and s + 1 keep them
    apart and in the two-event hop's order, and an echo sent from the
    arrival finds the port as that hop would."""

    def run():
        env = EventLoop()
        port = Port(env, RATE_8, 0.0, CountingQueue(4))
        sink = SeqSink(env)
        port.connect(sink)
        echoed = []

        def echo(pkt):
            sink.got.append((env.now, env._seq_now, pkt.seq))
            if not echoed:
                echoed.append(_readings(port))
                port.send(data_pkt(1, seq=9))

        sink.receive = echo
        for seq in range(4):  # one on the wire, two queued, one dropped
            port.send(data_pkt(2, seq=seq))
        env.run()
        return sink.got, port.queue.pushes, echoed, _readings(port), port.pkts_dropped

    fast, model = _one_then_two_event(monkeypatch, run)
    assert fast == model
    got, pushes, echoed, _, dropped = fast
    assert [(t, pkt) for t, _, pkt in got] == [(2.0, 0), (4.0, 1), (6.0, 2), (7.0, 9)]
    assert dropped == 1 and pushes == 4  # the echo queued behind packet 1
    assert echoed == [(True, 1, 2, 2)]


def test_pull_timing_unchanged_by_fusion(monkeypatch):
    """The pull decision happens at serialization-done time on both
    paths (the receiver must not be able to influence it mid-hop)."""

    def run():
        env = EventLoop()
        port, sink = make_port(env)
        budget = [3]
        pull_times = []

        def pull():
            if budget[0]:
                budget[0] -= 1
                pull_times.append(round(env.now * 1e9))
                return data_pkt(1500, seq=10 - budget[0])
            return None

        port.pull_source = pull
        port.kick()
        env.run()
        return pull_times

    fused_t, classic_t = _one_then_two_event(monkeypatch, run)
    assert fused_t == classic_t


# ----------------------------------------------------------------------
# Pull on demand: ``pull_ready`` says the pull source may have work the
# port has not pulled; while it is clear the port does not ask.


class Supply:
    """A pull source over a list of packets that records each pull that
    found a packet as (time, seq of its event, packet seq) and, with
    ``clears``, clears the port's flag when it hands out its last one."""

    def __init__(self, env, port, clears=True):
        self.env = env
        self.port = port
        self.clears = clears
        self.pkts = []
        self.asked = 0
        self.pulled = []
        port.pull_source = self

    def __call__(self):
        self.asked += 1
        if not self.pkts:
            return None
        pkt = self.pkts.pop(0)
        self.pulled.append((self.env.now, self.env._seq_now, pkt.seq))
        if self.clears and not self.pkts:
            self.port.pull_ready = False
        return pkt

    def add_and_kick(self, pkt):
        self.pkts.append(pkt)
        self.port.kick()


def test_pull_source_that_clears_the_flag_is_not_asked_until_a_kick():
    env = EventLoop()
    port = Port(env, RATE_8, 0.5, CountingQueue())
    sink = SeqSink(env)
    port.connect(sink)
    supply = Supply(env, port)
    supply.pkts = [data_pkt(2, seq=0), data_pkt(2, seq=1)]
    port.kick()
    env.run()
    # Pulled at 0 and at 2, where the last packet cleared the flag: no
    # wake-up at 4, so two arrivals and one wake-up.
    assert supply.asked == 2 and not port.pull_ready
    assert env.events_processed == 3
    env.schedule_at(10.0, supply.add_and_kick, data_pkt(2, seq=2))
    env.run()
    assert supply.asked == 3
    assert [(t, pkt) for t, _, pkt in supply.pulled] == [(0.0, 0), (2.0, 1), (10.0, 2)]
    assert [(t, pkt) for t, _, pkt in sink.got] == [(2.5, 0), (4.5, 1), (12.5, 2)]


def test_kick_while_busy_is_pulled_at_the_end_of_serialization(monkeypatch):
    """A kick on a busy port with no wake-up pending arms one at
    ``(busy_until, s)``: the pull happens where the two-event hop's
    serialization-done event makes it."""

    def run():
        env = EventLoop()
        port = Port(env, RATE_8, 0.5, CountingQueue())
        sink = SeqSink(env)
        port.connect(sink)
        supply = Supply(env, port)
        port.kick()  # nothing to pull: the flag clears
        port.send(data_pkt(3, seq=0))  # serializes over [0, 3]
        armed = port._wake[2] is not None
        env.schedule_at(1.0, supply.add_and_kick, data_pkt(2, seq=1))
        env.run()
        return supply.pulled, sink.got, port._tx_seq, armed

    fast, model = _one_then_two_event(monkeypatch, run)
    assert fast[:2] == model[:2]
    pulled, got, _, armed = fast
    assert not armed  # the fast hop had no wake-up before the kick
    assert [(t, pkt) for t, _, pkt in pulled] == [(3.0, 1)]
    assert [(t, pkt) for t, _, pkt in got] == [(3.5, 0), (5.5, 1)]


@pytest.mark.parametrize("order", ["before", "after"])
def test_kick_at_exactly_busy_until(order, monkeypatch):
    """A kick at the instant serialization ends, from an event ordered
    before the end of serialization (seq s) or after it, pulls where
    the two-event hop pulls."""

    def run():
        env = EventLoop()
        port = Port(env, RATE_8, 0.5, CountingQueue())
        sink = SeqSink(env)
        port.connect(sink)
        supply = Supply(env, port)
        port.kick()  # nothing to pull: the flag clears
        if order == "before":
            env.schedule_at(3.0, supply.add_and_kick, data_pkt(2, seq=1))
        port.send(data_pkt(3, seq=0))  # serializes over [0, 3]
        s = port._tx_seq
        if order == "after":
            env.schedule_at(3.0, supply.add_and_kick, data_pkt(2, seq=1))
        env.run()
        return supply.pulled, sink.got, _readings(port), env._seq, s

    fast, model = _one_then_two_event(monkeypatch, run)
    assert fast == model
    pulled, got, _, _, s = fast
    # Before s: pulled under s; after s: pulled by the kick's own event.
    assert pulled[0][:2] == ((3.0, s) if order == "before" else (3.0, s + 2))
    assert [(t, pkt) for t, _, pkt in got] == [(3.5, 0), (5.5, 1)]


def test_control_packet_on_an_idle_phost_nic_is_one_event(monkeypatch):
    """Once a pull has found nothing, a control packet that starts on
    the idle pHost NIC costs its arrival only; the two-event hop also
    spends a serialization-done event that pulls nothing."""
    from repro.experiments.runner import build_simulation
    from repro.experiments.spec import ExperimentSpec
    from repro.net.topology import TopologyConfig

    def run():
        spec = ExperimentSpec(
            protocol="phost", workload="fixed:1460", n_flows=1, topology=TopologyConfig.small()
        )
        ctx = build_simulation(spec)
        agent = ctx.fabric.hosts[0].agent
        port = agent.host.port
        sink = Sink()
        port.connect(sink)
        port.kick()  # no flows: the pull finds nothing
        ack = agent.pool.control(PacketType.ACK, None, 0, 0, 1, 0.0)
        agent.send_control(ack)
        ctx.env.run()
        return sink.received == [ack], ctx.env.events_processed

    fast, model = _one_then_two_event(monkeypatch, run)
    assert fast == (True, 1)
    assert model == (True, 2)
