"""Experiment specification and result types.

An :class:`ExperimentSpec` fully determines a simulation run (given the
code version): protocol, workload, traffic matrix, load, topology,
scale knobs and seed.  :func:`repro.experiments.runner.run_experiment`
turns one into an :class:`ExperimentResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Tuple

from repro.metrics.drops import DropStats
from repro.metrics.records import FlowRecord
from repro.metrics.slowdown import (
    deadline_met_fraction,
    mean_slowdown,
    nfct,
    slowdown_percentile,
    split_short_long,
)
from repro.metrics.stability import StabilitySample
from repro.net.topology import TopologyConfig

__all__ = ["ExperimentSpec", "ExperimentResult"]


@dataclass
class ExperimentSpec:
    """One simulation run, fully specified.

    Attributes:
        protocol: "phost" | "pfabric" | "fastpass" (or any registered).
        workload: "websearch" | "datamining" | "imc10" | "bimodal" |
            "fixed:<bytes>".
        load: Target network load (paper sweeps 0.5-0.8; default 0.6).
        n_flows: Number of flows to generate.
        traffic_matrix: "all_to_all" (default), "permutation" or
            "skewed" (requires ``skew``; see
            :class:`repro.workloads.SkewedMatrix`).
        topology: Fabric dimensions; default is the paper's 144-host
            two-tier tree.
        buffer_bytes: Per-port buffer override (Figure 10 sweeps this).
        max_flow_bytes: Truncate sampled flow sizes (scale knob for CI
            runs; None = faithful distribution).
        bimodal_fraction_short: Short-flow fraction for the bimodal
            workload (Figure 8's x-axis).
        with_deadlines: Assign exponential deadlines (Figure 5c).
        deadline_mean: Mean deadline slack in seconds.
        protocol_config: Optional protocol config override; objects with
            a ``resolve(topology)`` method are resolved automatically.
        dataplane: Optional dataplane-program override (a
            :mod:`repro.dataplane` registry name, e.g. "commodity",
            "pfabric", "dctcp").  None (the default) uses the programs
            the protocol's spec declares; a name forces *both* switch
            and NIC queues onto that program for what-if runs (e.g.
            pHost over a pFabric fabric).
        tenant_split: If set (0..1), flows are assigned tenant 0/1 with
            this probability of tenant 1 (Figure 11 uses explicit
            per-tenant specs instead).
        stability_samples: If > 0, sample the Fig. 7 stability curve
            this many times over the run.
        max_sim_time: Hard stop (simulated seconds) for runs in the
            unstable regime; None derives a default of
            ``time_guard_factor`` x the arrival window.
        time_guard_factor: Multiplier for the derived time guard
            (stability runs use a small factor so unstable runs end
            promptly).
        instruments: Instrumentation hooks (objects with ``bind(ctx)``,
            e.g. the :mod:`repro.validate` auditors or a
            :class:`repro.obs.ChromeTraceSink`) bound to the run's
            :class:`~repro.sim.context.SimContext` by
            ``build_simulation`` — no hand-wiring needed.  In-process
            runs only: parallel workers cannot ship hook state back.
        observability: Optional
            :class:`~repro.obs.config.ObservabilityConfig`; when set,
            the runner attaches a :class:`repro.obs.Telemetry` hook
            (sampler / profiler / exporters per the config) and the
            result carries a plain-data
            :class:`~repro.obs.telemetry.ObsReport` in ``telemetry``.
        faults: Optional :class:`repro.faults.FaultPlan`.  A non-empty
            plan makes the runner attach a
            :class:`repro.faults.FaultInjector` hook; ``None`` or an
            empty plan injects nothing and leaves the run byte-identical
            to the fault-free goldens (see docs/FAULTS.md).
        trace: Path to a flow-trace file (CSV/JSONL, see
            :mod:`repro.workloads.trace_io`).  When set, the workload
            generator is bypassed and the trace's flows are replayed
            (``workload``/``load``/``n_flows`` are ignored;
            ``with_deadlines`` still assigns deadlines to traced flows
            that lack one).
        skew: Optional :class:`repro.workloads.SkewConfig`; requires
            ``traffic_matrix="skewed"`` (hot-rack weights + rack
            affinity, see docs/WORKLOADS.md).
        load_profile: Optional :class:`repro.workloads.LoadProfile`
            modulating the Poisson arrival rate piecewise in time
            (bursts / diurnal ramps).  None = homogeneous arrivals,
            byte-identical to pre-ramp behaviour.
        coflows: Optional :class:`repro.workloads.CoflowConfig`; flows
            are then generated in ``request_id``-tagged jobs and the
            result exposes job-completion metrics (``job_records()``,
            ``mean_jct()``).
        seed: RNG seed; everything is deterministic given it.
        label: Free-form tag for reports.
    """

    protocol: str = "phost"
    workload: str = "websearch"
    load: float = 0.6
    n_flows: int = 1000
    traffic_matrix: str = "all_to_all"
    topology: TopologyConfig = field(default_factory=TopologyConfig.paper)
    buffer_bytes: Optional[int] = None
    max_flow_bytes: Optional[int] = None
    bimodal_fraction_short: float = 0.5
    with_deadlines: bool = False
    deadline_mean: float = 1000e-6
    protocol_config: Any = None
    dataplane: Optional[str] = None
    tenant_split: Optional[float] = None
    stability_samples: int = 0
    max_sim_time: Optional[float] = None
    time_guard_factor: float = 20.0
    instruments: Tuple[Any, ...] = ()
    observability: Any = None
    faults: Any = None
    trace: Optional[str] = None
    skew: Any = None
    load_profile: Any = None
    coflows: Any = None
    seed: int = 42
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.load, (int, float)):
            raise ValueError(f"load must be a number, got {self.load!r}")
        if self.load <= 0:
            raise ValueError("load must be positive")
        if not isinstance(self.n_flows, int):
            raise ValueError(f"n_flows must be an integer, got {self.n_flows!r}")
        if self.n_flows < 1:
            raise ValueError("n_flows must be >= 1")
        if self.traffic_matrix not in ("all_to_all", "permutation", "skewed"):
            raise ValueError(
                "traffic_matrix must be 'all_to_all', 'permutation' or 'skewed'"
            )
        if self.traffic_matrix == "skewed" and self.skew is None:
            raise ValueError("traffic_matrix='skewed' requires a skew config")
        if self.skew is not None and self.traffic_matrix != "skewed":
            raise ValueError(
                "skew config set but traffic_matrix is "
                f"{self.traffic_matrix!r}; use traffic_matrix='skewed'"
            )
        if self.tenant_split is not None and not 0.0 <= self.tenant_split <= 1.0:
            raise ValueError("tenant_split must be in [0, 1]")
        if not isinstance(self.instruments, tuple):
            self.instruments = tuple(self.instruments)

    def with_topology_buffer(self) -> TopologyConfig:
        """Topology with the buffer override applied."""
        if self.buffer_bytes is None:
            return self.topology
        return replace(self.topology, buffer_bytes=self.buffer_bytes)

    def variant(self, **changes) -> "ExperimentSpec":
        """A copy with fields changed (sweep helper)."""
        return replace(self, **changes)


@dataclass
class ExperimentResult:
    """Everything a figure needs from one run."""

    spec: ExperimentSpec
    records: List[FlowRecord]
    drops: DropStats
    duration: float
    n_flows: int
    n_completed: int
    payload_bytes_delivered: int
    data_pkts_injected: int
    data_pkts_retransmitted: int
    control_pkts_sent: int
    control_bytes_sent: int
    goodput_gbps_per_host: float
    stability: List[StabilitySample] = field(default_factory=list)
    events_processed: int = 0
    wall_seconds: float = 0.0
    #: Injected-fault drops (repro.faults), ledgered separately from
    #: the congestion drops in ``drops``; 0 in fault-free runs.
    fault_drops: int = 0
    #: AuditReport when auditors were attached via spec.instruments
    #: (see repro.validate); None otherwise.
    audit: Optional[Any] = None
    #: ObsReport when spec.observability was set (see repro.obs);
    #: None otherwise.  Plain data — survives pickling to workers.
    telemetry: Optional[Any] = None
    #: Whether packets were recycled through the run's freelist: False
    #: when a hook retains packets (the runner then turns pooling
    #: off).  Recorded as ``meta.packet_pool``.
    packet_pool: bool = True

    # ------------------------------------------------------------------
    # Metric shortcuts (all over completed flows)
    # ------------------------------------------------------------------
    @property
    def completion_rate(self) -> float:
        return self.n_completed / self.n_flows if self.n_flows else math.nan

    def mean_slowdown(self) -> float:
        return mean_slowdown(self.records)

    def nfct(self) -> float:
        return nfct(self.records)

    def tail_slowdown(self, p: float = 99.0) -> float:
        return slowdown_percentile(self.records, p)

    def short_long_slowdown(self, threshold_bytes: int):
        """(mean short, mean long) slowdowns under the Fig. 4 split."""
        short, long_ = split_short_long(self.records, threshold_bytes)
        return mean_slowdown(short), mean_slowdown(long_)

    def short_records(self, threshold_bytes: int) -> List[FlowRecord]:
        short, _ = split_short_long(self.records, threshold_bytes)
        return short

    def deadline_met_fraction(self) -> float:
        return deadline_met_fraction(self.records)

    def job_records(self):
        """Coflow job records (see :mod:`repro.metrics.jobs`); empty
        when no flow carried a ``request_id``."""
        from repro.metrics.jobs import job_records

        return job_records(self.records)

    def mean_jct(self) -> float:
        """Mean job completion time (NaN when there are no jobs)."""
        from repro.metrics.jobs import mean_jct

        return mean_jct(self.records)

    def job_completion_rate(self) -> float:
        """Fraction of jobs fully drained (NaN when there are no jobs)."""
        from repro.metrics.jobs import job_completion_rate

        return job_completion_rate(self.records)

    def summary(self) -> str:
        return (
            f"[{self.spec.protocol}/{self.spec.workload} load={self.spec.load:g}] "
            f"slowdown={self.mean_slowdown():.3f} nfct={self.nfct():.3f} "
            f"done={self.n_completed}/{self.n_flows} drops={self.drops.total_drops}"
        )
