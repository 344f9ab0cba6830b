"""The four workloads and the one function that runs a protocol on one.

Every run goes through public entry points only (``run_experiment``,
``run_incast``, ``run_flow_list``, ``build_simulation``, ``RunLedger``);
counters the results do not carry are read after the run through a
:class:`Probe`, a hook that does nothing but remember the run's context.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import make_spec, run_experiment, run_flow_list, run_incast
from repro.experiments.defaults import SCALES as PRESETS
from repro.experiments.runner import build_simulation
from repro.metrics.records import records_from_flows
from repro.metrics.slowdown import mean_slowdown, slowdown_percentile
from repro.obs import ObservabilityConfig, RunLedger
from repro.sim import SeededRng
from repro.validate import incast_digest, run_digest, standard_auditors
from repro.workloads import WORKLOADS as SIZE_DISTS
from repro.workloads import AllToAll, FlowGenerator, fixed_size

PAPER_TRIO = ("phost", "pfabric", "fastpass")
#: Every protocol any workload runs; per-protocol metric names range over it.
ALL_PROTOCOLS = PAPER_TRIO + ("dctcp",)


@dataclass(frozen=True)
class Scale:
    """Run sizes.  ``paper`` is the benchmark; ``smoke`` only proves the
    harness works (bench/tests) and its numbers are never results."""

    preset: str  # repro.experiments.defaults preset: fabric + websearch size
    short_flows: int
    incast: Dict[str, int]


SCALES = {
    "paper": Scale("bench", 20_000, dict(n_senders=40, total_bytes=20_000_000, n_requests=4)),
    "smoke": Scale("tiny", 400, dict(n_senders=9, total_bytes=1_000_000, n_requests=3)),
}


@dataclass(frozen=True)
class Workload:
    name: str
    protocols: Tuple[str, ...]
    #: Flow sizes for open-loop workloads; None = the closed-loop incast.
    sizes: Optional[str] = None
    #: Attach auditors + telemetry and store the result in a run ledger.
    observed: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig3-websearch", ALL_PROTOCOLS, sizes="websearch"),
        Workload("fig9c-incast", PAPER_TRIO),
        Workload("short-flows", PAPER_TRIO, sizes="fixed:4380"),
        Workload("fig3-observed", ("phost", "pfabric"), sizes="websearch", observed=True),
    )
}


class Probe:
    """Passive hook: keeps the run's SimContext so counters can be read
    once the run is over.  No per-event callbacks, so it costs nothing."""

    ctx: Any = None

    def bind(self, ctx) -> None:
        self.ctx = ctx


class Spans:
    """Spans of one traced repetition, kept in memory until it ends."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def record(self, name: str, start: float, end: float, run_id: str, parent: Optional[str]) -> None:
        self.events.append(
            {"name": name, "start": start, "end": end, "id": run_id, "parent": parent}
        )

    def total(self, name: str) -> float:
        return sum(e["end"] - e["start"] for e in self.events if e["name"] == name)


@dataclass
class Sample:
    """One protocol run on one workload."""

    protocol: str
    wall_s: float
    cpu_s: float
    digest: str
    #: Exact simulated facts (identical for a fixed seed).
    facts: Dict[str, float]
    #: Bytes ``RunLedger.put`` wrote (observed workloads only).
    ledger_bytes: int = 0
    #: Reference-kernel seconds around this sample (bench.calibrate);
    #: set for timed samples only.
    kernel_s: float = 0.0


def _spec(workload: Workload, protocol: str, seed: int, scale: Scale, probe: Probe):
    if workload.sizes == "websearch":
        spec = make_spec(protocol, "websearch", scale.preset, seed=seed)
    else:
        spec = make_spec(
            protocol, workload.sizes, scale.preset,
            n_flows=scale.short_flows, max_flow_bytes=None, seed=seed,
        )
    if workload.observed:
        return spec.variant(
            instruments=standard_auditors() + (probe,),
            observability=ObservabilityConfig(),
        )
    return spec.variant(instruments=(probe,))


def _generate(spec, fabric):
    """The flow list ``run_experiment`` would draw for ``spec``, through
    the public generator (the traced digest check proves it is the same)."""
    if spec.workload in SIZE_DISTS:
        dist = SIZE_DISTS[spec.workload]()
    else:
        dist = fixed_size(int(spec.workload.split(":", 1)[1]))
    if spec.max_flow_bytes is not None and spec.max_flow_bytes < dist.max_bytes:
        dist = dist.truncated(spec.max_flow_bytes)
    n_hosts = fabric.config.n_hosts
    gen = FlowGenerator(
        dist, AllToAll(n_hosts), fabric.config.access_bps, spec.load, SeededRng(spec.seed)
    )
    return gen.generate(spec.n_flows)


def run_once(
    workload: Workload,
    protocol: str,
    seed: int,
    scale: Scale,
    scratch: Path,
    spans: Optional[Spans] = None,
) -> Sample:
    """Run ``protocol`` on ``workload`` once; time spec -> result -> digest
    (-> ledger put).  With ``spans`` the stages are called one by one and
    each is recorded; without, the run is the single call a user makes.
    """
    probe = Probe()
    run_id = f"{workload.name}:{protocol}:seed{seed}"
    root = f"run.{protocol}"
    ledger_dir = Path(tempfile.mkdtemp(prefix="ledger-", dir=scratch)) if workload.observed else None
    clock = time.perf_counter

    def stage(name, fn, *args, **kwargs):
        if spans is None:
            return fn(*args, **kwargs)
        start = clock()
        out = fn(*args, **kwargs)
        spans.record(name, start, clock(), run_id, root)
        return out

    wall0, cpu0 = clock(), time.process_time()
    if workload.sizes is None:
        result = stage(
            "experiments.run",
            run_incast, protocol, topology=PRESETS[scale.preset].topology,
            seed=seed, instruments=(probe,), **scale.incast,
        )
        digest = stage("validate.digest", incast_digest, result)
    else:
        spec = _spec(workload, protocol, seed, scale, probe)
        if spans is None:
            result = run_experiment(spec)
        else:
            ctx = stage("experiments.build", build_simulation, spec)
            flows = stage("workloads.generate", _generate, spec, ctx.fabric)
            result = stage("experiments.run", run_flow_list, spec, flows, ctx)
        digest = stage("validate.digest", run_digest, result)
        if ledger_dir is not None:
            stage("obs.ledger_put", RunLedger(str(ledger_dir)).put, result, digest=digest)
    wall, cpu = clock() - wall0, time.process_time() - cpu0

    facts = stage("metrics.reduce", _reduce, workload, result, probe.ctx)
    if spans is not None:
        spans.record(root, wall0, clock(), run_id, None)
    ledger_bytes = 0
    if ledger_dir is not None:
        ledger_bytes = sum(p.stat().st_size for p in ledger_dir.rglob("*") if p.is_file())
        shutil.rmtree(ledger_dir)
    return Sample(protocol, wall, cpu, digest, facts, ledger_bytes)


def _reduce(workload: Workload, result, ctx) -> Dict[str, float]:
    """Counters and reductions of one finished run, all simulated."""
    collector, fabric, pool = ctx.collector, ctx.fabric, ctx.pool
    if workload.sizes is None:
        records = records_from_flows(collector.flows.values(), fabric)
        flows = result.n_senders * result.n_requests
        mean_rct_ms = result.mean_rct * 1e3
    else:
        records = result.records
        flows = result.n_flows
        mean_rct_ms = 0.0
    completed = sum(1 for r in records if r.completed)
    data_sent = collector.data_pkts_injected + collector.data_pkts_retransmitted
    audit = result.audit
    telemetry = result.telemetry
    return {
        "flows": flows,
        "flows_failed": flows - completed,
        "events": ctx.env.events_processed,
        "pkts": data_sent + collector.control_pkts_sent,
        "drops": fabric.drops_total,
        "retransmit_frac": collector.data_pkts_retransmitted / data_sent,
        "max_qlen_pkts": max(p.max_qlen_pkts for p in fabric.all_ports()),
        "pool_reuse_frac": pool.reused / (pool.allocated + pool.reused),
        "control_bytes_frac": collector.control_bytes_sent
        / (collector.control_bytes_sent + collector.payload_bytes_delivered),
        "sim_duration_ms": collector.duration() * 1e3,
        "mean_slowdown": mean_slowdown(records),
        "p99_slowdown": slowdown_percentile(records, 99.0),
        "mean_rct_ms": mean_rct_ms,
        "audit_checks": sum(c.checked for a in audit.auditors for c in a.checks.values())
        if audit is not None else 0,
        "audit_violations": audit.total_violations if audit is not None else 0,
        "obs_samples": telemetry.samples_taken if telemetry is not None else 0,
    }
