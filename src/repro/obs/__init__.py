"""repro.obs — run-wide observability for the simulator.

The division of labor between the two instrumentation packages:

* ``repro.validate`` answers *"is the simulation correct?"* — invariant
  auditors that must never change results;
* ``repro.obs`` (this package) answers *"what is the run doing, and how
  fast?"* — an instrument registry every component can publish to,
  periodic samplers producing time series (per-port queue depth by
  hop, active flows, ...), an event-loop profiler, and exporters
  (JSONL, text summaries, and a Chrome trace with one span per flow
  and an instant per drop, RTS and retransmission).

Both subscribe to a run the same way: a hook's ``bind(ctx)`` calls
``ctx.collector.add_observer`` and appends to ``ctx.fabric.drop_hooks``
/ ``fault_drop_hooks``.

Entry points: put an :class:`ObservabilityConfig` on
``ExperimentSpec.observability`` (or pass ``--obs`` flags on the CLI)
and read the resulting :class:`ObsReport` off the experiment result.
See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.chrome import ChromeTraceError, ChromeTraceSink, validate_chrome_trace
from repro.obs.config import ObservabilityConfig
from repro.obs.export import series_to_jsonl, write_text
from repro.obs.instruments import register_run_instruments
from repro.obs.profiler import EventLoopProfiler, Heartbeat
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    Instrument,
    InstrumentRegistry,
    instrument_key,
)
from repro.obs.report import (
    DEFAULT_THRESHOLDS,
    MetricDelta,
    RunDiff,
    Threshold,
    diff_entries,
    render_dashboard,
    validate_dashboard,
)
from repro.obs.sampler import PeriodicSampler
from repro.obs.store import (
    LedgerCollisionError,
    LedgerEntry,
    RunLedger,
    family_hash,
    result_metrics,
    run_meta,
    spec_hash,
    stamp_result_meta,
)
from repro.obs.telemetry import ObsReport, Telemetry

__all__ = [
    "ChromeTraceError",
    "ChromeTraceSink",
    "Counter",
    "DEFAULT_THRESHOLDS",
    "EventLoopProfiler",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "Instrument",
    "InstrumentRegistry",
    "LedgerCollisionError",
    "LedgerEntry",
    "MetricDelta",
    "ObsReport",
    "ObservabilityConfig",
    "PeriodicSampler",
    "RunDiff",
    "RunLedger",
    "Telemetry",
    "Threshold",
    "diff_entries",
    "family_hash",
    "instrument_key",
    "register_run_instruments",
    "render_dashboard",
    "result_metrics",
    "run_meta",
    "series_to_jsonl",
    "spec_hash",
    "stamp_result_meta",
    "validate_chrome_trace",
    "validate_dashboard",
    "write_text",
]
