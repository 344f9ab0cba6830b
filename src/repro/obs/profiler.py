"""Event-loop dispatch profiling and wall-clock heartbeats.

An :class:`EventLoopProfiler` installs into an
:class:`~repro.sim.engine.EventLoop` (``env.set_profiler``) and is fed
one callback per dispatched event from the loop's single dispatch
path — a branch at the callback call site times the callback and
reports it — so a profiled run dispatches exactly the events an
unprofiled one does, and the unprofiled path pays one ``is None`` test.

Per event type (callback ``__qualname__``) it records the dispatch
count, cumulative and maximum wall-clock self-time, and a log2
histogram of the *simulated* times at which the handler fired — enough
to rank hot handlers (token grant ticks, packet departures) and to see
when in the run each handler class was active.  The per-type counts sum
to exactly the loop's dispatched-event total, which the test suite
asserts.

A wall-clock heartbeat (events/sec, sim-seconds/sec, ETA against the
run's ``until`` horizon) can be emitted on a wall-time interval for
long runs; the default sink writes one line to stderr.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional

from repro.obs.registry import Histogram

__all__ = ["EventLoopProfiler", "Heartbeat"]

#: Heartbeat wall-clock checks happen once per this many events, so the
#: per-event cost of an armed heartbeat is one modulo on a counter.
_HEARTBEAT_CHECK_EVERY = 256

# Cell indices for the per-type stats list.
_COUNT, _SELF, _MAX, _FIRST, _LAST, _WHEEL = range(6)


class Heartbeat:
    """One progress report of a profiled run."""

    __slots__ = (
        "wall_elapsed",
        "sim_now",
        "events_total",
        "events_per_sec",
        "sim_seconds_per_sec",
        "eta_seconds",
    )

    def __init__(
        self,
        wall_elapsed: float,
        sim_now: float,
        events_total: int,
        events_per_sec: float,
        sim_seconds_per_sec: float,
        eta_seconds: Optional[float],
    ) -> None:
        self.wall_elapsed = wall_elapsed
        self.sim_now = sim_now
        self.events_total = events_total
        self.events_per_sec = events_per_sec
        self.sim_seconds_per_sec = sim_seconds_per_sec
        self.eta_seconds = eta_seconds

    def __str__(self) -> str:
        eta = "?" if self.eta_seconds is None else f"{self.eta_seconds:.1f}s"
        return (
            f"[obs] t_sim={self.sim_now:.6f}s events={self.events_total} "
            f"({self.events_per_sec:,.0f} ev/s, "
            f"{self.sim_seconds_per_sec:.3g} sim-s/s, ETA {eta})"
        )


def _print_heartbeat(hb: Heartbeat) -> None:
    print(str(hb), file=sys.stderr)


class EventLoopProfiler:
    """Per-event-type dispatch statistics for one event loop."""

    def __init__(
        self,
        heartbeat_wall_seconds: Optional[float] = None,
        on_heartbeat: Optional[Callable[[Heartbeat], None]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if heartbeat_wall_seconds is not None and heartbeat_wall_seconds < 0:
            raise ValueError("heartbeat interval must be non-negative")
        # key -> [count, self_seconds, max_seconds, first_sim, last_sim]
        self._cells: Dict[str, List[float]] = {}
        self._sim_hists: Dict[str, Histogram] = {}
        self.total_events = 0
        #: Dispatches whose entry travelled through the timing wheel
        #: (recovery/pacing timers) rather than straight onto the heap.
        self.timer_wheel_events = 0
        self.wall_self_seconds = 0.0
        self.heartbeats_emitted = 0
        self._hb_interval = heartbeat_wall_seconds
        self._on_heartbeat = on_heartbeat or _print_heartbeat
        self._clock = clock
        self._until: Optional[float] = None
        self._env = None  # loop we are installed in (wheel stats source)
        self._hb_wall = clock()
        self._hb_events = 0
        self._hb_sim = 0.0

    # ------------------------------------------------------------------
    # EventLoop integration
    # ------------------------------------------------------------------
    def bind(self, ctx) -> "EventLoopProfiler":
        """Instrumentation-hook entry point: install into the run's loop."""
        ctx.env.set_profiler(self)
        return self

    def run_started(self, env, until: Optional[float]) -> None:
        """Called by the loop at the top of each profiled ``run()``."""
        self._until = until
        self._env = env
        self._hb_wall = self._clock()
        self._hb_events = self.total_events
        self._hb_sim = env.now

    def on_event(
        self, fn, when: float, wall_dt: float, via_wheel: bool = False
    ) -> None:
        """One dispatched callback: ``fn`` fired at sim time ``when``
        and took ``wall_dt`` wall-clock seconds.  ``via_wheel`` marks
        dispatches whose entry was parked in the timing wheel first."""
        key = getattr(fn, "__qualname__", None) or repr(fn)
        cell = self._cells.get(key)
        if cell is None:
            cell = [0, 0.0, 0.0, when, when, 0]
            self._cells[key] = cell
            self._sim_hists[key] = Histogram("profile.sim_time", {"event": key})
        cell[_COUNT] += 1
        cell[_SELF] += wall_dt
        if wall_dt > cell[_MAX]:
            cell[_MAX] = wall_dt
        cell[_LAST] = when
        if via_wheel:
            cell[_WHEEL] += 1
            self.timer_wheel_events += 1
        self._sim_hists[key].observe(when)
        self.total_events += 1
        self.wall_self_seconds += wall_dt
        if (
            self._hb_interval is not None
            and self.total_events % _HEARTBEAT_CHECK_EVERY == 0
        ):
            self._heartbeat_check(when)

    # ------------------------------------------------------------------
    # Heartbeat
    # ------------------------------------------------------------------
    def set_heartbeat(
        self,
        wall_seconds: Optional[float],
        on_heartbeat: Optional[Callable[[Heartbeat], None]] = None,
    ) -> None:
        """(Re-)arm the wall-clock heartbeat after construction.

        Lets a sweep driver redirect an already-installed profiler's
        heartbeats (e.g. into a progress queue) without replacing it.
        ``None`` disarms; a ``None`` callback keeps the current sink.
        """
        if wall_seconds is not None and wall_seconds < 0:
            raise ValueError("heartbeat interval must be non-negative")
        self._hb_interval = wall_seconds
        if on_heartbeat is not None:
            self._on_heartbeat = on_heartbeat

    def _heartbeat_check(self, sim_now: float) -> None:
        wall = self._clock()
        elapsed = wall - self._hb_wall
        if elapsed < self._hb_interval:
            return
        d_events = self.total_events - self._hb_events
        d_sim = sim_now - self._hb_sim
        ev_rate = d_events / elapsed if elapsed > 0 else 0.0
        sim_rate = d_sim / elapsed if elapsed > 0 else 0.0
        eta = None
        if self._until is not None and sim_rate > 0:
            eta = max(self._until - sim_now, 0.0) / sim_rate
        self.heartbeats_emitted += 1
        self._on_heartbeat(
            Heartbeat(elapsed, sim_now, self.total_events, ev_rate, sim_rate, eta)
        )
        self._hb_wall = wall
        self._hb_events = self.total_events
        self._hb_sim = sim_now

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def by_type(self) -> Dict[str, Dict[str, float]]:
        """Per-event-type stats, keyed by callback qualname."""
        out: Dict[str, Dict[str, float]] = {}
        for key, cell in self._cells.items():
            count = int(cell[_COUNT])
            out[key] = {
                "count": count,
                "self_seconds": cell[_SELF],
                "mean_seconds": cell[_SELF] / count if count else 0.0,
                "max_seconds": cell[_MAX],
                "first_sim_time": cell[_FIRST],
                "last_sim_time": cell[_LAST],
                "wheel_count": int(cell[_WHEEL]),
            }
        return out

    def timer_wheel(self) -> Dict[str, object]:
        """Timer-wheel event-class breakdown.

        Combines the loop-side lifetime counters (scheduled / cancelled
        / poured / parked, plus the ``timers_to_heap`` fallback count
        for timers due too soon or too far out for the wheel) with the
        number of profiled dispatches that actually travelled through
        the wheel.
        """
        out: Dict[str, object] = {"events_dispatched": self.timer_wheel_events}
        env = self._env
        if env is not None:
            out.update(env.wheel.stats())
            out["timers_to_heap"] = env.timers_to_heap
        return out

    def sim_time_histogram(self, event_type: str) -> Optional[Histogram]:
        return self._sim_hists.get(event_type)

    def ranked(self) -> List[Dict[str, float]]:
        """Event types sorted by cumulative wall self-time, hottest first."""
        rows = [dict(stats, event=key) for key, stats in self.by_type().items()]
        rows.sort(key=lambda r: r["self_seconds"], reverse=True)
        return rows

    def hotspots(self, top: int = 5) -> List[Dict[str, float]]:
        """The ``top`` hottest event types with their self-time share.

        Each row is a :meth:`ranked` row plus ``share`` — the fraction
        of *all* profiled handler self-time spent in that type — so a
        reader can tell at a glance whether the run is dominated by a
        few handlers (optimize those) or spread thin (optimize the
        dispatch loop itself).  ``mean_seconds`` is the per-event cost.
        """
        total = self.wall_self_seconds
        rows = self.ranked()[:top]
        for row in rows:
            row["share"] = row["self_seconds"] / total if total > 0 else 0.0
        return rows

    def report(self, top: int = 20, hotspot_top: int = 5) -> str:
        """Plain-text table of the hottest event types, headed by a
        one-line-per-handler hotspot summary (share of total self-time
        and per-event cost)."""
        wheel = self.timer_wheel()
        lines = [
            f"event-loop profile: {self.total_events} events, "
            f"{self.wall_self_seconds * 1e3:.1f} ms handler self-time",
            f"timer wheel: {wheel['events_dispatched']} dispatches via wheel, "
            f"{wheel.get('scheduled', 0)} parked / "
            f"{wheel.get('cancelled', 0)} cancelled / "
            f"{wheel.get('poured', 0)} poured, "
            f"{wheel.get('timers_to_heap', 0)} straight to heap",
        ]
        for i, row in enumerate(self.hotspots(hotspot_top), start=1):
            lines.append(
                f"hotspot #{i}: {row['event']}  "
                f"{row['share']:.1%} of self-time "
                f"({row['mean_seconds'] * 1e6:.2f} us/event x "
                f"{row['count']:,d} events)"
            )
        lines.append(
            f"{'event type':44s} {'count':>10s} {'self ms':>9s} "
            f"{'mean us':>9s} {'max us':>8s}"
        )
        for row in self.ranked()[:top]:
            lines.append(
                f"{str(row['event'])[:44]:44s} {row['count']:>10d} "
                f"{row['self_seconds'] * 1e3:>9.2f} "
                f"{row['mean_seconds'] * 1e6:>9.2f} "
                f"{row['max_seconds'] * 1e6:>8.1f}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "total_events": self.total_events,
            "wall_self_seconds": self.wall_self_seconds,
            "heartbeats": self.heartbeats_emitted,
            "timer_wheel": self.timer_wheel(),
            "by_type": self.by_type(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EventLoopProfiler(events={self.total_events}, "
            f"types={len(self._cells)})"
        )
