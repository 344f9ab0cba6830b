"""Parallel experiment execution.

Simulations are single-threaded and independent, so sweeps parallelize
perfectly across processes.  ``run_experiments_parallel`` preserves
input order and falls back to in-process execution for a single spec
(or ``processes=1``), which keeps it usable under profilers and in
restricted environments.

Determinism is unaffected: each run is a pure function of its spec, so
the parallel results are identical to serial ones (asserted in
``tests/experiments/test_parallel.py``).

Live progress: pass ``progress=`` a callable (or ``True`` for the
stderr :class:`~repro.experiments.progress.ProgressPrinter`) and every
worker fans :class:`~repro.experiments.progress.ProgressEvent`\\ s back
over a queue — a ``start`` marker, ``running`` heartbeats carried by
the event-loop profiler's wall-clock heartbeat (ev/s, sim time, ETA),
and a terminal ``done``/``error`` per spec.  The profiler observes the
run's one dispatch loop without touching its schedule, so progress
reporting never changes digests or event counts.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.experiments.progress import ProgressEvent, ProgressPrinter, spec_label
from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentResult, ExperimentSpec

__all__ = ["run_experiments_parallel"]

#: Default wall-clock spacing of ``running`` heartbeats.
DEFAULT_HEARTBEAT_SECONDS = 2.0

# Worker-side progress state, set by the pool initializer (a queue can
# ride to workers through initargs, but not through ``pool.map`` items).
_progress_queue = None
_progress_total = 0
_progress_interval = DEFAULT_HEARTBEAT_SECONDS


def _worker(spec: ExperimentSpec) -> ExperimentResult:
    # Top-level function so it pickles under the spawn start method.
    return run_experiment(spec)


def _run_with_heartbeats(
    spec: ExperimentSpec,
    interval: float,
    emit: Callable[[ProgressEvent], None],
    index: int,
    total: int,
) -> ExperimentResult:
    """Run one spec, routing profiler heartbeats into ``emit``.

    Reuses the run's own profiler when observability already installed
    one; otherwise attaches a bare heartbeat-only profiler.  Either way
    the simulation schedule is untouched (wall-clock heartbeats only).
    """
    from repro.experiments.runner import _generate_flows, build_simulation, run_flow_list
    from repro.obs.profiler import EventLoopProfiler, Heartbeat
    from repro.sim.randoms import SeededRng

    label = spec_label(spec)

    def on_heartbeat(hb: Heartbeat) -> None:
        emit(
            ProgressEvent(
                index=index,
                total=total,
                label=label,
                state="running",
                events=hb.events_total,
                events_per_sec=hb.events_per_sec,
                sim_now=hb.sim_now,
                eta_seconds=hb.eta_seconds,
            )
        )

    ctx = build_simulation(spec)
    profiler = ctx.env.profiler
    if profiler is not None:
        profiler.set_heartbeat(interval, on_heartbeat)
    else:
        ctx.env.set_profiler(
            EventLoopProfiler(heartbeat_wall_seconds=interval, on_heartbeat=on_heartbeat)
        )
    rng = SeededRng(spec.seed)
    flows = _generate_flows(spec, ctx.fabric, rng)
    return run_flow_list(spec, flows, ctx)


def _run_one_with_progress(
    spec: ExperimentSpec,
    index: int,
    total: int,
    interval: float,
    emit: Callable[[ProgressEvent], None],
) -> ExperimentResult:
    label = spec_label(spec)
    emit(ProgressEvent(index=index, total=total, label=label, state="start"))
    try:
        result = _run_with_heartbeats(spec, interval, emit, index, total)
    except Exception as exc:
        emit(
            ProgressEvent(
                index=index,
                total=total,
                label=label,
                state="error",
                error=f"{type(exc).__name__}: {exc}",
            )
        )
        raise
    emit(
        ProgressEvent(
            index=index,
            total=total,
            label=label,
            state="done",
            events=result.events_processed,
            wall_seconds=result.wall_seconds,
        )
    )
    return result


def _progress_init(queue, total: int, interval: float) -> None:
    global _progress_queue, _progress_total, _progress_interval
    _progress_queue = queue
    _progress_total = total
    _progress_interval = interval


def _worker_with_progress(item: Tuple[int, ExperimentSpec]) -> ExperimentResult:
    index, spec = item
    queue = _progress_queue
    try:
        return _run_one_with_progress(
            spec, index, _progress_total, _progress_interval, queue.put
        )
    except Exception:
        # The error event is already on the queue; re-raise with the
        # worker-side traceback text so the parent sees where it died.
        raise RuntimeError(
            f"experiment {index} ({spec_label(spec)}) failed:\n"
            + traceback.format_exc()
        ) from None


def _available_cpus() -> int:
    """CPUs this process may actually run on.

    ``sched_getaffinity`` respects container/cgroup CPU masks, so a CI
    job pinned to 2 cores gets a 2-process pool instead of oversubscribing
    the machine's full core count; ``cpu_count`` is the portable fallback.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return multiprocessing.cpu_count()


def run_experiments_parallel(
    specs: Sequence[ExperimentSpec],
    processes: Optional[int] = None,
    progress: Union[None, bool, Callable[[ProgressEvent], None]] = None,
    heartbeat_wall_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
) -> List[ExperimentResult]:
    """Run many specs, using up to ``processes`` worker processes.

    ``processes=None`` uses ``min(len(specs), available CPUs)`` (CPU
    affinity aware).  Results are returned in the order of ``specs``.

    ``progress`` receives every :class:`ProgressEvent` (``True`` means
    "print heartbeat lines to stderr"); ``heartbeat_wall_seconds``
    spaces the ``running`` heartbeats.  Progress observation is free of
    behavioural side effects — results remain byte-identical.
    """
    specs = list(specs)
    if not specs:
        return []
    if processes is None:
        processes = min(len(specs), _available_cpus())
    if processes < 1:
        raise ValueError("processes must be >= 1")
    sink: Optional[Callable[[ProgressEvent], None]]
    sink = ProgressPrinter() if progress is True else (progress or None)

    if processes == 1 or len(specs) == 1:
        if sink is None:
            return [run_experiment(spec) for spec in specs]
        return [
            _run_one_with_progress(spec, i, len(specs), heartbeat_wall_seconds, sink)
            for i, spec in enumerate(specs)
        ]

    # fork (where available) avoids re-importing the package per worker;
    # spawn is the portable fallback.
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        ctx = multiprocessing.get_context("spawn")

    if sink is None:
        with ctx.Pool(processes=processes) as pool:
            return pool.map(_worker, specs)

    queue = ctx.Queue()

    def drain() -> None:
        while True:
            event = queue.get()
            if event is None:
                return
            sink(event)

    drainer = threading.Thread(target=drain, name="progress-drain", daemon=True)
    drainer.start()
    try:
        with ctx.Pool(
            processes=processes,
            initializer=_progress_init,
            initargs=(queue, len(specs), heartbeat_wall_seconds),
        ) as pool:
            return pool.map(_worker_with_progress, list(enumerate(specs)))
    finally:
        queue.put(None)
        drainer.join(timeout=10)
