"""Unit tests for the output port (queue + serializer + link)."""

from __future__ import annotations

import pytest

from repro.net.packet import Flow, Packet, PacketType
from repro.net.port import Port
from repro.dataplane import CommodityProgram
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


def _fused_then_two_event(monkeypatch, run):
    """``run()`` on the port's fused hop, then on the plain two-event
    hop (tests/net/models.py); returns both outcomes."""
    fused = run()
    use_two_event_hop(monkeypatch)
    return fused, run()


def test_fused_and_classic_paths_deliver_identically(monkeypatch):
    """Fusion (entry reuse + inline drain) is pure mechanics: arrival
    times, delivery order, and port counters must match the classic
    two-schedules-per-hop path exactly."""

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
            env.events_processed,
        )

    fused, classic = _fused_then_two_event(monkeypatch, run)
    assert fused == classic


def test_fused_backlog_delivers_in_order_two_events_per_packet():
    """A lone busy port with a 50-packet backlog: ordered deliveries and
    exactly one serialization plus one arrival event per packet."""
    env = EventLoop()
    port, sink = make_port(env, cap=200_000)  # hold all 50 packets
    for seq in range(50):
        port.send(data_pkt(1500, seq=seq))
    env.run()
    assert port.pkts_dropped == 0
    assert [p.seq for p in sink.received] == list(range(50))
    assert env.events_processed == 100


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

    fused_t, classic_t = _fused_then_two_event(monkeypatch, run)
    assert fused_t == classic_t
