"""Plain reference forms of the simulator's hot paths, for tests.

The simulator has one transmit path and one timer path, each written
for speed.  The tests keep the obvious form of each here and require
the fast path to give the same events in the same order:

* :func:`use_two_event_hop` swaps :class:`~repro.net.port.Port`'s fused
  hop (the serialization-done heap entry re-stamped as the arrival) for
  two plain ``schedule()`` calls per hop;
* :func:`use_heap_timers` sends every
  :meth:`~repro.sim.engine.EventLoop.schedule_timer_at` call straight to
  the heap instead of the timer wheel;
* :class:`RetainsPackets` is a hook that does nothing but declare
  ``retains_packets``, so the runner runs without the packet pool.

The first two patch classes through pytest's ``monkeypatch``, so they
hold for the test that applies them and are undone after it.
"""

from __future__ import annotations

from repro.net.port import Port
from repro.sim.engine import EventLoop


def _two_event_start(self, pkt):
    """Begin serializing ``pkt``: one fresh serialization-done event."""
    self.busy = True
    tx = pkt.size * 8.0 / self.rate_bps
    self._tx_entry = self.env.schedule(tx, self._tx_done, pkt)


def _two_event_tx_done(self, pkt):
    """Serialization done: a fresh arrival event, then the next departure."""
    self.bytes_sent += pkt.size
    self.pkts_sent += 1
    self._tx_entry = None
    if self.peer is not None:
        self.env.schedule(self.prop_delay, self.peer.receive, pkt)
    self.busy = False
    self._start_next()


def use_two_event_hop(monkeypatch) -> None:
    """Make every port take two plain ``schedule()`` calls per hop."""
    monkeypatch.setattr(Port, "_start", _two_event_start)
    monkeypatch.setattr(Port, "_tx_done", _two_event_tx_done)


def use_heap_timers(monkeypatch) -> None:
    """Schedule every timer on the heap, never on the wheel."""
    monkeypatch.setattr(EventLoop, "schedule_timer_at", EventLoop.schedule_at)


class RetainsPackets:
    """An instrument hook that only declares ``retains_packets``."""

    retains_packets = True

    def bind(self, ctx) -> None:
        pass
