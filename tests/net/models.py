"""Plain reference forms of the simulator's hot paths, for tests.

The simulator has one transmit path and one timer path, each written
for speed.  The tests keep the obvious form of each here and require
the fast path to give the same run digests:

* :func:`use_two_event_hop` swaps :class:`~repro.net.port.Port`'s
  one-event hop (the arrival pushed when serialization starts, an
  end-of-serialization event only when something waits) for two plain
  events per hop: serialization done, which counts the packet and
  pushes the arrival, then the arrival.  Serialization start reserves
  the arrival's seq (s + 1) in both.  The port's readers (``busy``,
  ``bytes_sent``, ``pkts_sent``, ``bytes_serialized()``) become plain
  reads of the pending serialization-done event and of counters moved
  by it.  The two-event hop asks a pull source at every end of
  serialization, so it is also the plain form of the pull port's
  ``pull_ready`` flag;
* :func:`use_polling_reissue` makes every pHost reissue check re-arm
  itself until its flow completes, as if a check never found the flow
  with nothing outstanding;
* :func:`use_eager_rto` makes every window-transport RTO arm cancel
  the live timer and schedule a new one, instead of deferring it;
* :func:`use_heap_timers` sends every
  :meth:`~repro.sim.engine.EventLoop.schedule_timer_at` call straight to
  the heap instead of the timer wheel;
* :class:`RetainsPackets` is a hook that does nothing but declare
  ``retains_packets``, so the runner runs without the packet pool.

The first four patch classes through pytest's ``monkeypatch``, so they
hold for the test that applies them and are undone after it.
"""

from __future__ import annotations

from heapq import heappush

from repro.net.port import Port
from repro.protocols.phost.destination import PHostDestination
from repro.protocols.window import WindowAgent
from repro.sim.engine import EventLoop


def _two_event_start(self, pkt):
    """Begin serializing ``pkt``: a fresh serialization-done event (seq
    s), the port's busy flag while it is pending, and the next seq
    reserved for the arrival."""
    env = self.env
    self._wake = env.schedule(pkt.size * 8.0 / self.rate_bps, _two_event_tx_done, self, pkt)
    env._seq += 1
    self.busy_until = self._wake[0]
    self._tx_seq = self._wake[1]
    self._tx_size = pkt.size


def _two_event_tx_done(self, pkt):
    """Serialization done: count the packet, push its arrival under the
    reserved seq, then start the next departure."""
    self._bytes_sent += pkt.size
    self._pkts_sent += 1
    if self.peer is not None:
        env = self.env
        heappush(env._heap, [env.now + self.prop_delay, self._tx_seq + 1, self.peer.receive, (pkt,), env])
        env._live += 1
    self._start_next()


def _two_event_bytes_serialized(self):
    sent = self._bytes_sent
    if self._wake[2] is not None:  # serialization done is pending
        size = self._tx_size
        tx = size * 8.0 / self.rate_bps
        done = (self.env.now - (self.busy_until - tx)) / tx
        if done > 0.0:
            sent += size * min(done, 1.0)
    return sent


def _counter(name):
    return property(lambda self: getattr(self, name), lambda self, v: setattr(self, name, v))


def use_two_event_hop(monkeypatch) -> None:
    """Make every port take two plain events per hop, read ``busy`` as
    its pending serialization-done event and the send counters as
    plain fields."""
    monkeypatch.setattr(Port, "_start", _two_event_start)
    monkeypatch.setattr(Port, "busy", property(lambda self: self._wake[2] is not None))
    monkeypatch.setattr(Port, "bytes_sent", _counter("_bytes_sent"))
    monkeypatch.setattr(Port, "pkts_sent", _counter("_pkts_sent"))
    monkeypatch.setattr(Port, "bytes_serialized", _two_event_bytes_serialized)


def _polling_reissue_check(self, fid):
    """``PHostDestination._reissue_check`` that re-arms unconditionally."""
    state = self.states.get(fid)
    if state is None or state.complete:
        return
    now = self.env.now
    idle_for = now - state.last_progress
    if idle_for + 1e-12 >= self.config.retx_timeout:
        missing = state.expired_missing(now, self.config.retx_timeout)
        if idle_for + 1e-12 >= self.config.free_reissue:
            missing |= state.missing()
        if missing:
            self._queue_regrants(state, missing)
            self._maybe_start_timer()
        wait = self.config.retx_timeout
    else:
        wait = self.config.retx_timeout - idle_for
    self.env.schedule_timer(wait, self._reissue_check, fid)


def use_polling_reissue(monkeypatch) -> None:
    """Keep every pHost reissue check armed until its flow completes."""
    monkeypatch.setattr(PHostDestination, "_reissue_check", _polling_reissue_check)


def _eager_arm_rto(self, state):
    """``WindowAgent._arm_rto`` that cancels and schedules on every arm."""
    EventLoop.cancel(state.timer)
    state.timer = self.env.schedule_timer(
        self.config.rto * state.rto_scale, self._on_rto, state.flow.fid
    )


def use_eager_rto(monkeypatch) -> None:
    """Restart every window-transport RTO by cancel and schedule."""
    monkeypatch.setattr(WindowAgent, "_arm_rto", _eager_arm_rto)


def use_heap_timers(monkeypatch) -> None:
    """Schedule every timer on the heap, never on the wheel."""
    monkeypatch.setattr(EventLoop, "schedule_timer_at", EventLoop.schedule_at)


class RetainsPackets:
    """An instrument hook that only declares ``retains_packets``."""

    retains_packets = True

    def bind(self, ctx) -> None:
        pass
