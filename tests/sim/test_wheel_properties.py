"""Property-based tests for the hierarchical timing wheel.

The wheel's contract is strict: routing a timer through it must be
*observably identical* to scheduling it straight onto the heap — same
fire order, same cancellation semantics, same final clock — for any
mix of times (including ones that land in higher wheel levels and
cascade back down) and any cancellation pattern.  Hypothesis explores
that space; the pinned regression cases at the bottom keep the worst
historical offenders (slot aliasing, rollover off-by-one) covered even
under ``--hypothesis-profile`` settings with few examples.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.engine import EventLoop

# Wheel resolution used throughout: 1us (the engine default).
RES = 1e-6
# Level spans: level 0 covers 256 ticks, level 1 covers 256*256, etc.
L0 = 256 * RES
L1 = 256 * 256 * RES

# Times from sub-tick to beyond the level-1 horizon, so placements hit
# every wheel level plus the too-soon / too-far heap fallbacks.
times = st.floats(
    min_value=RES / 10, max_value=2 * L1, allow_nan=False, allow_infinity=False
)


def _run_both(schedule_plan, cancel_idx=frozenset()):
    """Run the same plan once as timers (through the wheel) and once as
    plain heap events (``schedule_at``); return both traces."""
    traces = []
    for as_timers in (True, False):
        env = EventLoop(timer_resolution=RES)
        schedule = env.schedule_timer_at if as_timers else env.schedule_at
        fired = []
        handles = [
            schedule(when, lambda i=i, w=when: fired.append((i, w)))
            for i, when in enumerate(schedule_plan)
        ]
        for idx in cancel_idx:
            EventLoop.cancel(handles[idx])
        env.run()
        traces.append((fired, env.now, env.pending_count()))
    return traces


@given(st.lists(times, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_wheel_fire_order_matches_pure_heap(plan):
    (wheel_fired, wheel_now, wheel_pending), (heap_fired, heap_now, heap_pending) = (
        _run_both(plan)
    )
    assert wheel_fired == heap_fired
    assert wheel_now == heap_now
    assert wheel_pending == heap_pending == 0


@given(st.lists(times, min_size=2, max_size=40), st.data())
@settings(max_examples=60, deadline=None)
def test_wheel_cancellation_matches_pure_heap(plan, data):
    cancel_idx = frozenset(
        data.draw(
            st.sets(
                st.integers(min_value=0, max_value=len(plan) - 1),
                max_size=len(plan),
            )
        )
    )
    (wheel_fired, _, wheel_pending), (heap_fired, _, heap_pending) = _run_both(
        plan, cancel_idx
    )
    assert wheel_fired == heap_fired
    assert wheel_pending == heap_pending == 0
    assert {i for i, _ in wheel_fired}.isdisjoint(cancel_idx)


@given(
    st.lists(
        st.floats(min_value=L0 / 2, max_value=1.5 * L1, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=40, deadline=None)
def test_wheel_rollover_cascades_preserve_order(plan):
    """Times straddling the level-0/1/2 boundaries: entries parked in
    outer levels must cascade down and fire in exact time order."""
    env = EventLoop(timer_resolution=RES)
    fired = []
    for i, when in enumerate(plan):
        env.schedule_timer_at(when, lambda i=i, w=when: fired.append((w, i)))
    env.run()
    assert [pair[1] for pair in fired] == [
        i for _, i in sorted((w, i) for i, w in enumerate(plan))
    ]
    assert len(fired) == len(plan)
    assert env.pending_count() == 0


def test_wheel_same_tick_timers_fire_in_schedule_order():
    env = EventLoop(timer_resolution=RES)
    fired = []
    when = 137 * RES  # one slot, many timers
    for i in range(20):
        env.schedule_timer_at(when, fired.append, i)
    env.run()
    assert fired == list(range(20))


def test_wheel_cancel_all_leaves_clean_loop():
    env = EventLoop(timer_resolution=RES)
    handles = [
        env.schedule_timer_at((i + 2) * RES, lambda: None) for i in range(100)
    ]
    for h in handles:
        EventLoop.cancel(h)
        EventLoop.cancel(h)  # double-cancel must stay a no-op
    assert env.pending_count() == 0
    env.run()
    assert env.events_processed == 0


def test_wheel_slot_alias_regression():
    """Two timers 256 ticks apart share a level-0 slot index; the tick
    tag must keep the far one from firing a full wheel turn early."""
    env = EventLoop(timer_resolution=RES)
    fired = []
    near, far = 10 * RES, (10 + 256) * RES
    env.schedule_timer_at(far, fired.append, "far")
    env.schedule_timer_at(near, fired.append, "near")
    env.schedule_at(near + RES, lambda: fired.append("mid"))
    env.run()
    assert fired == ["near", "mid", "far"]
    assert env.now >= far


def test_wheel_interleaves_with_heap_events():
    """Timers (wheel) and plain events (heap) at interleaved times must
    fire in one globally sorted order."""
    env = EventLoop(timer_resolution=RES)
    fired = []
    for i in range(30):
        when = (i + 2) * 3 * RES
        if i % 2:
            env.schedule_timer_at(when, fired.append, (i, "timer"))
        else:
            env.schedule_at(when, fired.append, (i, "event"))
    env.run()
    assert [i for i, _ in fired] == list(range(30))
