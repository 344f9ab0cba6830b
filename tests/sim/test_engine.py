"""Unit tests for the event loop."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import EventLoop, SimulationError


def test_events_fire_in_time_order():
    env = EventLoop()
    fired = []
    env.schedule_at(3e-6, fired.append, "c")
    env.schedule_at(1e-6, fired.append, "a")
    env.schedule_at(2e-6, fired.append, "b")
    env.run()
    assert fired == ["a", "b", "c"]
    assert env.now == pytest.approx(3e-6)


def test_equal_times_fire_fifo():
    env = EventLoop()
    fired = []
    for tag in range(10):
        env.schedule_at(1e-6, fired.append, tag)
    env.run()
    assert fired == list(range(10))


def test_relative_schedule_accumulates_from_now():
    env = EventLoop()
    times = []

    def chain(depth):
        times.append(env.now)
        if depth:
            env.schedule(1e-6, chain, depth - 1)

    env.schedule(1e-6, chain, 2)
    env.run()
    assert times == pytest.approx([1e-6, 2e-6, 3e-6])


def test_cancel_prevents_execution():
    env = EventLoop()
    fired = []
    keep = env.schedule_at(1e-6, fired.append, "keep")
    drop = env.schedule_at(2e-6, fired.append, "drop")
    EventLoop.cancel(drop)
    env.run()
    assert fired == ["keep"]
    assert not EventLoop.is_pending(drop)
    assert not EventLoop.is_pending(keep)  # fired entries are not pending


def test_cancel_none_and_cancel_after_fire_are_noops():
    env = EventLoop()
    EventLoop.cancel(None)
    entry = env.schedule_at(1e-6, lambda: None)
    env.run()
    EventLoop.cancel(entry)  # no error


def test_run_until_advances_clock_without_firing_later_events():
    env = EventLoop()
    fired = []
    env.schedule_at(5e-6, fired.append, "late")
    executed = env.run(until=1e-6)
    assert executed == 0
    assert fired == []
    assert env.now == pytest.approx(1e-6)
    env.run()
    assert fired == ["late"]


def test_run_until_with_empty_heap_advances_clock():
    env = EventLoop()
    env.run(until=7e-6)
    assert env.now == pytest.approx(7e-6)


def test_stop_ends_run_early():
    env = EventLoop()
    fired = []
    env.schedule_at(1e-6, fired.append, 1)
    env.schedule_at(2e-6, lambda: env.stop())
    env.schedule_at(3e-6, fired.append, 3)
    env.run()
    assert fired == [1]
    assert env.pending_count() == 1


def test_max_events_limit():
    env = EventLoop()
    for i in range(10):
        env.schedule_at(i * 1e-6, lambda: None)
    executed = env.run(max_events=4)
    assert executed == 4
    assert env.pending_count() == 6


def test_scheduling_in_past_raises():
    env = EventLoop()
    env.schedule_at(1e-6, lambda: None)
    env.run()
    with pytest.raises(SimulationError):
        env.schedule_at(0.5e-6, lambda: None)
    with pytest.raises(SimulationError):
        env.schedule(-1e-9, lambda: None)


def test_events_processed_counter_accumulates():
    env = EventLoop()
    for i in range(5):
        env.schedule_at(i * 1e-6, lambda: None)
    env.run()
    assert env.events_processed == 5
    env.schedule(1e-6, lambda: None)
    env.run()
    assert env.events_processed == 6


def test_peek_time_skips_cancelled():
    env = EventLoop()
    first = env.schedule_at(1e-6, lambda: None)
    env.schedule_at(2e-6, lambda: None)
    EventLoop.cancel(first)
    assert env.peek_time() == pytest.approx(2e-6)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=60))
def test_property_execution_is_sorted(times):
    """Whatever order events are scheduled in, they execute sorted."""
    env = EventLoop()
    seen = []
    for t in times:
        env.schedule_at(t, lambda t=t: seen.append(t))
    env.run()
    assert seen == sorted(times)
    assert len(seen) == len(times)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=40),
    st.data(),
)
def test_property_cancellation_removes_exactly_chosen(times, data):
    env = EventLoop()
    entries = []
    seen = []
    for i, t in enumerate(times):
        entries.append(env.schedule_at(t, lambda i=i: seen.append(i)))
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(times) - 1), max_size=len(times))
    )
    for i in to_cancel:
        EventLoop.cancel(entries[i])
    env.run()
    assert set(seen) == set(range(len(times))) - to_cancel


class RecordingProfiler:
    """Minimal EventLoop profiler: remembers every report."""

    def __init__(self):
        self.runs = []
        self.events = []  # (qualname, when, via_wheel)

    def run_started(self, loop, until):
        self.runs.append(until)

    def on_event(self, fn, when, wall_dt, via_wheel):
        assert wall_dt >= 0.0
        self.events.append((fn.__qualname__, when, via_wheel))


@pytest.mark.parametrize("profiled", [False, True], ids=["bare", "profiled"])
@given(st.data())
def test_property_model_based_schedule_cancel_step(profiled, data):
    """Random interleavings of schedule/cancel/step versus a naive
    list-based reference model.

    The model is a plain insertion-ordered list of live (time, id)
    pairs; a stable sort on time reproduces the loop's FIFO-among-ties
    contract.  After every operation ``pending_count()`` must agree
    with the model, and every executed batch must pop exactly the
    model's k earliest events, in order — covering the interactions of
    O(1) cancellation, eager compaction and the live-count bookkeeping
    that single-purpose tests miss.

    The ``profiled`` arm installs a profiler on the same loop: dispatch
    order, step sizes and counters must not move, and the profiler must
    be told about every dispatch exactly once.
    """
    env = EventLoop()
    profiler = RecordingProfiler()
    if profiled:
        env.set_profiler(profiler)
    fired = []
    model = []  # live events as (time, uid), insertion-ordered
    handles = {}
    uid = 0
    for _ in range(data.draw(st.integers(min_value=1, max_value=60))):
        op = data.draw(st.sampled_from(["schedule", "cancel", "step"]))
        if op == "schedule":
            t = env.now + data.draw(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
            )
            handles[uid] = env.schedule_at(t, lambda uid=uid: fired.append(uid))
            model.append((t, uid))
            uid += 1
        elif op == "cancel":
            if model:
                idx = data.draw(st.integers(min_value=0, max_value=len(model) - 1))
                _, victim = model.pop(idx)
                EventLoop.cancel(handles[victim])
                EventLoop.cancel(handles[victim])  # double-cancel is a no-op
        else:  # step
            k = data.draw(st.integers(min_value=0, max_value=5))
            expected = sorted(model, key=lambda e: e[0])[:k]
            before = len(fired)
            executed = env.run(max_events=k)
            assert executed == len(expected)
            assert fired[before:] == [u for _, u in expected]
            for entry in expected:
                model.remove(entry)
        assert env.pending_count() == len(model)
    expected = [u for _, u in sorted(model, key=lambda e: e[0])]
    before = len(fired)
    env.run()
    assert fired[before:] == expected
    assert env.pending_count() == 0
    assert env.events_processed == len(fired)
    assert len(profiler.events) == (len(fired) if profiled else 0)


# One op = (kind, time_slot, payload).  Times are quantized to a few
# slots so same-timestamp ties — between heap events, and between heap
# events and timers poured from the wheel — are common.
_TIE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["event", "tie", "cancel_next", "timer", "chain", "stop"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=24,
)


def _run_tie_program(ops, profiler, wheel, step):
    """Execute a schedule program in ``run(max_events=step)`` slices
    (``None`` = one ``run(until=1.0)`` then ``run()``); returns the
    execution log, ``events_processed`` and the final clock.  Timers go
    through the wheel when ``wheel`` is set, else as plain heap events."""
    env = EventLoop()
    schedule_timer_at = env.schedule_timer_at if wheel else env.schedule_at
    env.set_profiler(profiler)
    log = []
    handles = []

    def fire(tag):
        log.append((tag, env.now))

    def chain(tag, extra):
        # Schedules more work at its own timestamp: joins the live tie.
        log.append((tag, env.now))
        for k in range(extra):
            env.schedule_at(env.now, fire, f"{tag}+{k}")

    def cancel_one(tag):
        log.append((tag, env.now))
        while handles:
            handle = handles.pop()
            if EventLoop.is_pending(handle):
                EventLoop.cancel(handle)
                return

    def stopper(tag):
        log.append((tag, env.now))
        env.stop()

    for i, (kind, slot, payload) in enumerate(ops):
        when = slot * 0.25
        if kind == "event":
            handles.append(env.schedule_at(when, fire, f"ev{i}"))
        elif kind == "tie":
            for k in range(payload + 1):
                handles.append(env.schedule_at(when, fire, f"tie{i}.{k}"))
        elif kind == "cancel_next":
            handles.append(env.schedule_at(when, cancel_one, f"cx{i}"))
        elif kind == "timer":
            handles.append(schedule_timer_at(when + 1e-6 * payload, fire, f"tm{i}"))
        elif kind == "chain":
            handles.append(env.schedule_at(when, chain, f"ch{i}", payload))
        else:
            handles.append(env.schedule_at(when, stopper, f"st{i}"))
    if step is None:
        env.run(until=1.0)
    while env.pending_count():
        executed = env.run(max_events=step)
        assert step is None or executed <= step
    return log, env.events_processed, env.now


@settings(max_examples=150, deadline=None)
@given(_TIE_OPS, st.sampled_from([None, 1, 2, 3]))
def test_property_profiler_and_wheel_are_invisible_to_dispatch(ops, step):
    """One loop, four ways to drive it: bare or profiled, timers on the
    wheel or on the heap, in one go or in ``max_events`` slices that
    stop mid-tie.  Same execution log, same counters; the profiler sees
    every dispatch once, and flags nothing but wheel-poured timers."""
    base = _run_tie_program(ops, None, wheel=False, step=step)
    assert _run_tie_program(ops, None, wheel=False, step=None)[:2] == base[:2]
    assert _run_tie_program(ops, None, wheel=True, step=step) == base
    n_timers_fired = sum(1 for tag, _ in base[0] if tag.startswith("tm"))
    for wheel in (False, True):
        profiler = RecordingProfiler()
        assert _run_tie_program(ops, profiler, wheel, step) == base
        assert len(profiler.events) == base[1]
        assert [when for _, when, _ in profiler.events] == [t for _, t in base[0]]
        via_wheel = sum(1 for _, _, w in profiler.events if w)
        if not wheel:
            assert via_wheel == 0
        else:
            assert via_wheel <= n_timers_fired  # the wheel may decline some


def test_profiler_reports_wheel_poured_timers_via_wheel():
    env = EventLoop()
    profiler = RecordingProfiler()
    env.set_profiler(profiler)
    env.schedule_at(1.0, lambda: None)
    env.schedule_timer_at(1.0 + 50e-6, lambda: None)  # parked in the wheel
    assert env.wheel._live == 1
    env.run()
    assert [w for _, _, w in profiler.events] == [False, True]
    assert profiler.runs == [None]


def test_cancel_of_later_same_timestamp_event_from_earlier_one():
    """A tie member cancelled by an earlier member of the same tie is
    skipped without being counted."""
    env = EventLoop()
    fired = []
    victim = []

    def killer():
        fired.append("killer")
        EventLoop.cancel(victim[0])

    env.schedule_at(1.0, killer)
    victim.append(env.schedule_at(1.0, fired.append, "victim"))
    env.schedule_at(1.0, fired.append, "bystander")
    env.run()
    assert fired == ["killer", "bystander"]
    assert env.events_processed == 2
    assert env._cancelled == 0


def test_timer_poured_at_a_ties_own_timestamp_orders_by_seq():
    """Mid-tie, a callback parks the run's *first* wheel timer whose
    pour is due at the tie's own timestamp (the cursor is still far
    behind ``now``).  The poured timer carries the seq it drew at
    schedule time, so it runs after the heap ties scheduled before it —
    exactly where a pure-heap loop puts it."""

    def program(wheel):
        env = EventLoop()
        schedule_timer = env.schedule_timer if wheel else env.schedule
        log = []

        def parker():
            log.append("parker")
            schedule_timer(0.0, log.append, "timer")
            env.schedule_at(env.now, log.append, "after-timer")

        env.schedule_at(1.0, parker)
        env.schedule_at(1.0, log.append, "tie-a")
        env.schedule_at(1.0, log.append, "tie-b")
        env.schedule_at(1.5, log.append, "later")
        env.run()
        return log, env.events_processed

    assert program(True) == program(False)
    assert program(True)[0] == [
        "parker", "tie-a", "tie-b", "timer", "after-timer", "later",
    ]


def test_stop_and_budget_are_honoured_mid_tie():
    env = EventLoop()
    fired = []
    env.schedule_at(1.0, fired.append, 0)
    env.schedule_at(1.0, env.stop)
    for k in range(2, 6):
        env.schedule_at(1.0, fired.append, k)
    env.run()
    assert fired == [0]
    assert env.events_processed == 2  # head + the stopping callback
    assert env.run(max_events=3) == 3
    assert fired == [0, 2, 3, 4]
    assert env.run() == 1  # the rest of the tie runs on the next call
    assert env.run(until=7.5) == 0  # empty heap: clock still advances
    assert env.now == 7.5


def test_callback_exception_propagates_and_loop_stays_usable():
    env = EventLoop()
    fired = []

    def boom():
        raise RuntimeError("boom")

    env.schedule_at(1.0, boom)
    env.schedule_at(2.0, fired.append, "next")
    with pytest.raises(RuntimeError):
        env.run()
    assert env.events_processed == 0  # the aborted run adds nothing
    env.run()
    assert fired == ["next"]


def test_clock_watcher_fires_only_for_smuggled_past_events():
    import heapq

    env = EventLoop()
    regressions = []
    env.set_clock_watcher(lambda now, when: regressions.append((now, when)))
    env.schedule_at(1e-6, lambda: None)
    env.schedule_at(2e-6, lambda: None)
    env.run()
    assert regressions == []  # legal schedules never trigger it

    entry = [env.now / 2, env._seq + 10**6, lambda: None, (), env]
    heapq.heappush(env._heap, entry)
    env._live += 1
    env.run()
    assert regressions == [(2e-6, 1e-6)]
    assert env.now == pytest.approx(1e-6)  # legacy behaviour: clock still moves


def test_pending_count_is_incremental_and_exact():
    env = EventLoop()
    entries = [env.schedule_at(i * 1e-6, lambda: None) for i in range(10)]
    assert env.pending_count() == 10
    for e in entries[:4]:
        EventLoop.cancel(e)
    assert env.pending_count() == 6
    EventLoop.cancel(entries[0])  # double-cancel must not double-count
    assert env.pending_count() == 6
    env.run(max_events=3)
    assert env.pending_count() == 3
    env.run()
    assert env.pending_count() == 0


def test_heap_compacts_when_mostly_cancelled():
    env = EventLoop()
    entries = [env.schedule_at(1.0 + i * 1e-6, lambda: None) for i in range(300)]
    assert len(env._heap) == 300
    # Cancel enough that cancelled entries outnumber live ones: the heap
    # must shrink well below the scheduled total without running.
    for e in entries[:200]:
        EventLoop.cancel(e)
    assert env.pending_count() == 100
    assert len(env._heap) < 300  # dead entries were reclaimed eagerly
    env.run()
    assert env.events_processed == 100


def test_compaction_during_run_callbacks_is_safe():
    env = EventLoop()
    survivors = []
    victims = [env.schedule_at(2e-6 + i * 1e-9, lambda: None) for i in range(200)]

    def cancel_most():
        for e in victims:
            EventLoop.cancel(e)  # triggers in-place compaction mid-run

    env.schedule_at(1e-6, cancel_most)
    env.schedule_at(3e-6, survivors.append, "late")
    env.run()
    assert survivors == ["late"]
    assert env.pending_count() == 0


def test_cancel_after_pop_is_a_counted_noop():
    """A cancel() racing the same tick's fire must not corrupt the
    live/cancelled ledgers: once the loop pops an entry it is dead, and
    cancelling it (from its own callback or any re-entrant path) is a
    no-op."""
    env = EventLoop()
    fired = []
    entries = []

    def cb(i):
        fired.append(i)
        EventLoop.cancel(entries[i])  # self-cancel of the firing entry
        if i:
            EventLoop.cancel(entries[i - 1])  # cancel an already-fired one

    for i in range(5):
        entries.append(env.schedule_at((i + 1) * 1e-6, cb, i))
    env.run()
    assert fired == [0, 1, 2, 3, 4]
    assert env.pending_count() == 0
    assert env._cancelled == 0  # no phantom corpses left behind
    assert env.events_processed == 5


def test_cancel_from_clock_watcher_sees_dead_entry():
    """The loop marks an entry fired *before* the clock watcher runs, so
    a watcher that cancels the offending entry cannot double-count it."""
    import heapq

    env = EventLoop()
    env.schedule_at(2e-6, lambda: None)
    env.run()

    fired = []
    entry = [1e-6, env._seq + 10**6, fired.append, ("late",), env]
    heapq.heappush(env._heap, entry)
    env._live += 1

    def watcher(now, when):
        EventLoop.cancel(entry)  # the entry is mid-fire: must be a no-op

    env.set_clock_watcher(watcher)
    env.run()
    assert fired == ["late"]  # the callback still ran exactly once
    assert env.pending_count() == 0
    assert env._cancelled == 0


# ----------------------------------------------------------------------
# schedule_series: a sorted series held one entry at a time
# ----------------------------------------------------------------------

def _series_vs_upfront(times, extra):
    """Dispatch logs of the same events scheduled up front and as a
    series; ``extra`` events are scheduled after the series either way,
    and every series event schedules a follow-up at its own timestamp."""
    logs = []
    for streamed in (False, True):
        env = EventLoop()
        log = []

        def arrive(i, env=env, log=log):
            log.append(("arrive", i, env.now))
            env.schedule(0.0, log.append, ("after", i))

        if streamed:
            env.schedule_series(((t, arrive, (i,)) for i, t in enumerate(times)), len(times))
        else:
            for i, t in enumerate(times):
                env.schedule_at(t, arrive, i)
        for j, t in enumerate(extra):
            env.schedule_at(t, log.append, ("extra", j))
        env.run()
        logs.append((log, env.events_processed, env._seq))
    return logs


def test_series_dispatches_like_upfront_scheduling_with_ties():
    times = [0.0, 1e-6, 1e-6, 1e-6, 2e-6, 5e-6, 5e-6]
    upfront, streamed = _series_vs_upfront(times, extra=[1e-6, 0.0, 5e-6, 9e-6])
    assert streamed == upfront
    assert [e for e in streamed[0] if e[0] == "arrive"][:4] == [
        ("arrive", 0, 0.0), ("arrive", 1, 1e-6), ("arrive", 2, 1e-6), ("arrive", 3, 1e-6),
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=6), max_size=25).map(sorted),
    st.lists(st.integers(min_value=0, max_value=7), max_size=8),
)
def test_property_series_equals_upfront(ticks, extra_ticks):
    upfront, streamed = _series_vs_upfront(
        [t * 1e-6 for t in ticks], [t * 1e-6 for t in extra_ticks]
    )
    assert streamed == upfront


def test_series_keeps_one_entry_in_the_heap():
    env = EventLoop()
    depths = []
    n = 500
    env.schedule_series(
        ((i * 1e-6, lambda: depths.append(env.pending_count()), ()) for i in range(n)), n
    )
    assert env.pending_count() == 1
    env.run()
    assert len(depths) == n and max(depths) == 1  # the successor, nothing more
    assert env.events_processed == n


def test_series_out_of_time_order_is_an_error():
    env = EventLoop()
    env.schedule_series(iter([(2e-6, int, ()), (1e-6, int, ())]), 2)
    with pytest.raises(SimulationError):
        env.run()


def test_empty_series_schedules_nothing():
    env = EventLoop()
    env.schedule_series(iter(()), 0)
    assert env.pending_count() == 0 and env.run() == 0
