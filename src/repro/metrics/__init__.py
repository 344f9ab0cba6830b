"""Metrics (S11): everything §4 of the paper measures.

* :mod:`repro.metrics.records` — per-flow result records.
* :mod:`repro.metrics.collector` — in-simulation counters and completion
  recording.
* :mod:`repro.metrics.slowdown` — slowdown / NFCT / percentile analysis.
* :mod:`repro.metrics.throughput` — goodput normalization.
* :mod:`repro.metrics.drops` — drop-rate and per-hop drop accounting.
* :mod:`repro.metrics.stability` — Fig. 7 pending-packet analysis.
* :mod:`repro.metrics.jobs` — coflow job-completion-time analysis.
"""

from repro.metrics.records import FlowRecord, records_from_flows
from repro.metrics.collector import MetricsCollector
from repro.metrics.jobs import (
    JobRecord,
    job_completion_rate,
    job_records,
    mean_jct,
)
from repro.metrics.slowdown import (
    deadline_met_fraction,
    mean_fct,
    mean_slowdown,
    nfct,
    percentile,
    slowdown_percentile,
    split_short_long,
)
from repro.metrics.throughput import per_host_goodput_gbps
from repro.metrics.drops import DropStats
from repro.metrics.stability import StabilitySample, StabilityTracker
from repro.metrics.export import load_records, result_to_json, save_records

__all__ = [
    "FlowRecord",
    "records_from_flows",
    "MetricsCollector",
    "JobRecord",
    "job_records",
    "mean_jct",
    "job_completion_rate",
    "mean_slowdown",
    "mean_fct",
    "nfct",
    "percentile",
    "slowdown_percentile",
    "split_short_long",
    "deadline_met_fraction",
    "per_host_goodput_gbps",
    "DropStats",
    "StabilitySample",
    "StabilityTracker",
    "save_records",
    "load_records",
    "result_to_json",
]
