"""Event loop for the packet-level simulator.

The loop is deliberately minimal and fast: events are stored in a binary
heap as small lists ``[time, seq, callback, args, owner]``.  Cancellation
is O(1) — the callback slot is nulled out and the entry is skipped when
it reaches the top of the heap.  The live-event count is maintained
incrementally, so :meth:`EventLoop.pending_count` is O(1), and the heap
is compacted in place once cancelled entries outnumber live ones.  The
monotone ``seq`` counter makes event ordering deterministic for equal
timestamps (FIFO among ties), which in turn makes whole simulations
reproducible for a fixed seed.

High-volume cancellable *timers* (pHost token-expiry recovery checks,
pFabric retransmission timeouts) go through :meth:`schedule_timer`,
which parks them in a hierarchical :class:`repro.sim.wheel.TimerWheel`
instead of the heap: O(1) schedule and cancel, corpses swept in place,
no compaction churn.  The wheel pours due timers back into the heap
carrying the sequence number they drew at schedule time, so the global
``(time, seq)`` dispatch order — and therefore every run digest — is
byte-identical to a pure-heap run.  Timers due within one wheel tick or
beyond the wheel's horizon go straight to the heap.  The tests hold the
wheel to :meth:`schedule_at` as its reference.

A sequence number is drawn when an event is scheduled, with these
exceptions: a port starting to serialize a packet reserves two, s for
the end of serialization and s + 1 for the arrival (the tie rule,
docs/SIMULATOR.md); a series reserves its own (:meth:`schedule_series`);
and a window transport's RTO restarted by a new ACK reserves the seq a
fresh schedule would draw, which the live timer takes when it fires
early and moves itself to the new deadline.  The loop records the seq
of the event it dispatches (``_seq_now``; every seq once it has
drained through ``now``), so a port with no event at the end of
serialization can still place the present against
``(busy_until, s)``.

There is one dispatch loop, :meth:`EventLoop.run`.  An installed
profiler (:meth:`EventLoop.set_profiler`) is fed from a branch at the
callback call site of that same loop, so a profiled run dispatches the
exact events an unprofiled one does.

Times are floats in **seconds**.  At datacenter scale (nanoseconds to
milliseconds) float64 has far more resolution than we need.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.sim.wheel import TimerWheel

__all__ = ["EventLoop", "SimulationError"]

# Indices inside an event entry.  The callback slot is nulled for
# cancellation; the owner backref (the loop, or the timer wheel while an
# entry is parked there) lets the static cancel() keep the owning
# container's live/cancelled counters exact.  The backref is never
# compared: heap ordering is fully decided by (time, seq) since seq is
# unique per loop.
_FN = 2
_OWNER = 4

#: Compaction only kicks in past this many dead entries — below it the
#: rebuild costs more than lazily popping the corpses.
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised when the simulation is used inconsistently.

    Examples: scheduling an event in the past, or running a loop that
    was already exhausted with ``strict=True``.
    """


class EventLoop:
    """A discrete-event scheduler.

    Typical usage::

        loop = EventLoop()
        loop.schedule(1e-6, handler, arg1, arg2)
        loop.run()

    Attributes:
        now: Current simulation time in seconds.  Monotonically
            non-decreasing while the loop runs.
        events_processed: Number of callbacks actually executed (skipped
            cancelled entries are not counted).
        wheel: The hierarchical timer wheel backing
            :meth:`schedule_timer`.
    """

    __slots__ = (
        "now",
        "events_processed",
        "wheel",
        "timers_to_heap",
        "_heap",
        "_seq",
        "_seq_now",
        "_stopped",
        "_live",
        "_cancelled",
        "_clock_watcher",
        "_profiler",
    )

    def __init__(self, timer_resolution: float = 1e-6) -> None:
        self.now: float = 0.0
        self.events_processed: int = 0
        self.wheel = TimerWheel(self, timer_resolution)
        self.timers_to_heap: int = 0  # schedule_timer calls the wheel declined
        self._heap: List[list] = []
        self._seq: int = 0
        # Seq of the event being dispatched (every seq once the loop has
        # drained through ``now``): with ``now`` it places the present
        # among same-timestamp events, which is how a port tells whether
        # its serialization has ended without an event to mark it.
        self._seq_now: int = 0
        self._stopped: bool = False
        self._live: int = 0  # scheduled, not yet fired or cancelled (heap only)
        self._cancelled: int = 0  # cancelled entries still in the heap
        self._clock_watcher: Optional[Callable[[float, float], None]] = None
        self._profiler: Optional[Any] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> list:
        """Schedule ``fn(*args)`` at absolute time ``when``.

        Returns an opaque handle usable with :meth:`cancel`.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {when} < now={self.now}"
            )
        self._seq += 1
        entry = [when, self._seq, fn, args, self]
        heapq.heappush(self._heap, entry)
        self._live += 1
        return entry

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> list:
        """Schedule ``fn(*args)`` after a relative ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_timer_at(
        self, when: float, fn: Callable[..., Any], *args: Any
    ) -> list:
        """Schedule a *timer* at absolute time ``when``.

        Semantically identical to :meth:`schedule_at` (same handle,
        same :meth:`cancel`), but routed through the timing wheel when
        possible: use it for high-volume timers that are usually
        cancelled or re-armed before firing.  Timers due within one
        wheel tick or beyond the wheel horizon fall back to the heap.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule timer in the past: {when} < now={self.now}"
            )
        entry = self.wheel.schedule(when, fn, args)
        if entry is not None:
            return entry
        self.timers_to_heap += 1
        self._seq += 1
        entry = [when, self._seq, fn, args, self]
        heapq.heappush(self._heap, entry)
        self._live += 1
        return entry

    def schedule_timer(self, delay: float, fn: Callable[..., Any], *args: Any) -> list:
        """Schedule a timer ``delay`` seconds from now (see
        :meth:`schedule_timer_at`)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_timer_at(self.now + delay, fn, *args)

    def schedule_series(
        self, events: Iterable[Tuple[float, Callable[..., Any], tuple]], count: int
    ) -> None:
        """Schedule ``fn(*args)`` at ``when`` for each of the ``count``
        ``(when, fn, args)`` triples ``events`` yields in time order,
        holding only the next one in the heap.

        The sequence numbers ``count`` consecutive :meth:`schedule_at`
        calls would draw are reserved now, and every event pushes its
        successor — under its reserved number — before it runs.  Dispatch
        order (equal timestamps included) and ``events_processed`` are
        therefore exactly those of scheduling the whole series up front,
        but the heap carries one entry for it instead of ``count``, and
        ``events`` is consumed one item ahead of the clock.  Series
        events cannot be cancelled.
        """
        first = self._seq + 1
        self._seq += count
        self._series_step(iter(events), first, first + count, None, ())

    def _series_step(
        self, events: Iterator, seq: int, end: int, fn: Optional[Callable[..., Any]], args: tuple
    ) -> None:
        """Push the series' next event (number ``seq``), then run this one."""
        if seq < end:
            when, next_fn, next_args = next(events)
            if when < self.now:
                raise SimulationError(
                    f"series is not in time order: {when} < now={self.now}"
                )
            heapq.heappush(
                self._heap,
                [when, seq, self._series_step, (events, seq + 1, end, next_fn, next_args), self],
            )
            self._live += 1
        if fn is not None:
            fn(*args)

    @staticmethod
    def cancel(entry: Optional[list]) -> None:
        """Cancel a previously scheduled event or timer.

        Safe to call with ``None`` or with an entry that already fired
        (firing nulls the callback slot as well).  Accounting is
        dispatched to the entry's owner — the loop for heap entries, the
        timer wheel for parked timers — so each container's
        live/cancelled counters stay exact.
        """
        if entry is None or entry[_FN] is None:
            return
        entry[_FN] = None
        entry[_OWNER]._entry_cancelled(entry)

    def _entry_cancelled(self, entry: list) -> None:
        self._live -= 1
        self._cancelled += 1
        if self._cancelled > _COMPACT_MIN and self._cancelled * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In place matters: :meth:`run` holds a local alias to the heap
        list while callbacks (which may cancel and trigger compaction)
        are executing.
        """
        heap = self._heap
        heap[:] = [e for e in heap if e[_FN] is not None]
        heapq.heapify(heap)
        self._cancelled = 0

    @staticmethod
    def is_pending(entry: Optional[list]) -> bool:
        """True if the handle refers to an event that has not fired."""
        return entry is not None and entry[_FN] is not None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if nothing is pending."""
        heap = self._heap
        wheel = self.wheel
        while True:
            while heap and heap[0][_FN] is None:
                heapq.heappop(heap)
                self._cancelled -= 1
            if wheel._live and (not heap or heap[0][0] >= wheel.next_hint):
                if heap:
                    wheel.advance(heap[0][0], heap)
                else:
                    wheel.advance_until_poured(heap)
                continue
            return heap[0][0] if heap else None

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events in time order.

        Args:
            until: Stop once the next event's time exceeds this value
                (the clock is still advanced to ``until``).  ``None``
                runs until the heap drains or :meth:`stop` is called.
            max_events: Safety valve; stop after this many callbacks.

        Returns:
            Number of callbacks executed by this call.
        """
        heap = self._heap
        wheel = self.wheel
        pop = heapq.heappop
        profiler = self._profiler
        if profiler is not None:
            profiler.run_started(self, until)
        executed = 0
        self._stopped = False
        # Sentinels keep the per-event checks to one comparison each.
        limit = until if until is not None else float("inf")
        budget = -1 if max_events is None else max(max_events, 0)
        while True:
            if self._stopped:
                break
            if executed == budget:
                break
            if wheel._live and (not heap or heap[0][0] >= wheel.next_hint):
                # Due timers pour into the heap with their original
                # seq, landing exactly where a direct schedule would
                # have put them — between heap ties at the pour's own
                # timestamp included, which is why this check runs
                # before every dispatch.
                if heap:
                    wheel.advance(heap[0][0], heap)
                else:
                    wheel.advance_until_poured(heap)
                continue
            if not heap:
                if until is not None and until > self.now:
                    self.now = until
                self._seq_now = self._seq
                break
            entry = heap[0]
            fn = entry[_FN]
            if fn is None:  # cancelled — drop silently
                pop(heap)
                self._cancelled -= 1
                continue
            when = entry[0]
            if when > limit:
                self.now = until
                self._seq_now = self._seq
                break
            pop(heap)
            # Mark as fired *before* any observer can run: a cancel()
            # issued from the clock watcher (or any re-entrant path)
            # must see a dead entry, not double-count a corpse that
            # is no longer in the heap.
            entry[_FN] = None
            self._live -= 1
            if when < self.now and self._clock_watcher is not None:
                # Only reachable by smuggling an entry into the heap
                # behind schedule_at()'s past-time guard.
                self._clock_watcher(self.now, when)
            self.now = when
            self._seq_now = entry[1]
            if profiler is None:
                fn(*entry[3])
            else:
                t0 = perf_counter()
                fn(*entry[3])
                # Six-cell entries came through the timing wheel (they
                # carry a trailing tick); five-cell ones were scheduled
                # straight onto the heap.
                profiler.on_event(fn, when, perf_counter() - t0, len(entry) == 6)
            executed += 1
        self.events_processed += executed
        return executed

    def set_profiler(self, profiler: Optional[Any]) -> None:
        """Install (or remove, with ``None``) an event-loop profiler.

        The profiler must expose ``run_started(loop, until)`` and
        ``on_event(fn, when, wall_dt, via_wheel)`` — see
        :class:`repro.obs.EventLoopProfiler`.  While one is installed,
        :meth:`run` times each callback and reports it; dispatch order
        and every counter are the same either way.
        """
        self._profiler = profiler

    @property
    def profiler(self) -> Optional[Any]:
        """The installed event-loop profiler, if any."""
        return self._profiler

    def stop(self) -> None:
        """Request that :meth:`run` return after the current callback."""
        self._stopped = True

    def pending_count(self) -> int:
        """Live (non-cancelled) events still queued, heap + wheel. O(1)."""
        return self._live + self.wheel._live

    def set_clock_watcher(
        self, fn: Optional[Callable[[float, float], None]]
    ) -> None:
        """Install ``fn(now, when)``, called if an event stamped before
        the current clock is about to execute (the clock still advances
        to the event's time afterwards, preserving legacy behaviour).

        ``schedule_at`` already rejects past times, so this only fires
        for entries injected into the heap directly — it exists for the
        :class:`repro.validate.CausalityAuditor`, and costs one
        almost-always-false comparison per event.
        """
        self._clock_watcher = fn

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EventLoop(now={self.now:.9f}, pending={self.pending_count()}, "
            f"processed={self.events_processed})"
        )
