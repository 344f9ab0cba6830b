"""One workload, measured in this (fresh) process.

Order of business: set-up (imports, a tiny warm-up run per protocol that
doubles as a golden-digest check), untraced timed samples round-robin
over the workload's protocols until ``--seconds`` have passed, then — only
with ``--trace 1`` — one traced repetition.  The result is one JSON
document on stdout; ``bench.__main__`` (the parent) prints and checks it.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List

from repro import make_spec, run_experiment
from repro.validate import run_digest

from bench.calibrate import REFERENCE_S, calibration_point
from bench.trace import LAYERS, traced_repetition, write_chrome_trace
from bench.workloads import ALL_PROTOCOLS, SCALES, WORKLOADS, Sample, run_once

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDENS = REPO_ROOT / "tests" / "validate" / "golden_digests.json"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Per-protocol per-layer metrics: name prefix -> key in ``Sample.facts``.
_FACT_METRICS = {
    "sim.events": "events",
    "net.pkts": "pkts",
    "net.drops": "drops",
    "net.retransmit_frac": "retransmit_frac",
    "net.max_qlen_pkts": "max_qlen_pkts",
    "net.pool_reuse_frac": "pool_reuse_frac",
    "protocols.mean_slowdown": "mean_slowdown",
    "protocols.p99_slowdown": "p99_slowdown",
    "protocols.mean_rct_ms": "mean_rct_ms",
    "protocols.control_bytes_frac": "control_bytes_frac",
    "protocols.sim_duration_ms": "sim_duration_ms",
}


def warm_up(protocols) -> List[dict]:
    """One tiny-scale run per protocol: fills lazy tables, warms the
    interpreter, and is checked against the committed goldens (read,
    never written) where one exists."""
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    checks = []
    for protocol in protocols:
        digest = run_digest(run_experiment(make_spec(protocol, "websearch", "tiny", seed=42)))
        golden = goldens.get(f"fig3-tiny-{protocol}-websearch-seed42")
        if golden is not None:
            checks.append(_check(f"golden.fig3-tiny-{protocol}", digest == golden, digest))
    if not goldens:
        checks.append(_check("golden.file-present", True, f"{GOLDENS} missing: golden check skipped"))
    return checks


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def sample_for(workload, seed, scale, seconds: float) -> Dict[str, List[Sample]]:
    """Timed samples, protocols interleaved so drift in machine speed
    lands on all of them.  Every protocol is sampled at least once; a new
    sample starts only while fewer than ``seconds`` have passed.  The
    reference kernel runs between samples; a sample's machine speed is
    the mean of the calibration points on either side of it."""
    samples: Dict[str, List[Sample]] = {p: [] for p in workload.protocols}
    start = time.perf_counter()
    kernel_before = calibration_point()
    while True:
        for protocol in workload.protocols:
            first_round = not samples[workload.protocols[-1]]
            if not first_round and time.perf_counter() - start >= seconds:
                return samples
            # Start every sample from a collected heap, as a user's one run
            # per process does: keeps the last sample's garbage out of this
            # one's time and makes peak RSS repeat.
            gc.collect()
            sample = run_once(workload, protocol, seed, scale, OUT_DIR)
            kernel_after = calibration_point()
            sample.kernel_s = (kernel_before + kernel_after) / 2.0
            kernel_before = kernel_after
            samples[protocol].append(sample)


def _ratio_error(facts: Dict[str, dict]) -> Dict[str, float]:
    """Distance of the simulated protocol ratios from the paper's claims
    (pHost within 4 % of pFabric; Fastpass 1.3-4x pHost)."""
    slow = {p: f["mean_slowdown"] for p, f in facts.items()}
    below_band = 0.0  # workloads without fastpass report 0
    if "fastpass" in slow:
        below_band = max(0.0, 1.3 - slow["fastpass"] / slow["phost"])
    return {
        "paper_err.phost_vs_pfabric": abs(slow["phost"] / slow["pfabric"] - 1.0),
        "paper_err.fastpass_vs_phost": below_band,
    }


def run(workload, seed: int, seconds: float, scale_name: str, trace: bool,
        setup_s: float, checks: List[dict]) -> dict:
    """Measure ``workload`` and return the run's record: samples, digests,
    end-to-end metrics, checks and (traced) per-layer metrics."""
    scale = SCALES[scale_name]
    OUT_DIR.mkdir(exist_ok=True)
    # A traced run spends its time on the traced repetition: one untraced
    # round is enough for the ratios that need an untraced wall.
    samples = sample_for(workload, seed, scale, 0.0 if trace else seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    protocols = workload.protocols
    facts = {p: samples[p][0].facts for p in protocols}
    digests = {p: samples[p][0].digest for p in protocols}
    for p in protocols:
        same = all(s.digest == digests[p] and s.facts == facts[p] for s in samples[p])
        checks.append(_check(f"repeatable.{p}", same, f"{len(samples[p])} samples"))
    walls = {p: statistics.median(s.wall_s for s in samples[p]) for p in protocols}
    cpus = {p: statistics.median(s.cpu_s for s in samples[p]) for p in protocols}
    # Wall seconds at the reference machine speed (see bench.calibrate).
    refs = {
        p: statistics.median(s.wall_s * REFERENCE_S / s.kernel_s for s in samples[p])
        for p in protocols
    }
    wall_s, cpu_s = sum(walls.values()), sum(cpus.values())
    pkts = sum(f["pkts"] for f in facts.values())
    flows = sum(f["flows"] for f in facts.values())
    failed = sum(f["flows_failed"] for f in facts.values())
    checks.append(_check("all-flows-complete", failed == 0, f"{failed} of {flows} flows failed"))
    gap = facts["phost"]["mean_slowdown"] / facts["pfabric"]["mean_slowdown"]
    # Reported, not a correctness gate: the seed is the caller's, and the
    # simulator itself trips an auditor on a few seeds (see README).
    violations = sum(f["audit_violations"] for f in facts.values())
    warnings = [f"auditors report {violations} violation(s)"] if violations else []

    doc = {
        "workload": workload.name, "seed": seed, "scale": scale_name, "seconds": seconds,
        "protocols": list(protocols),
        "digests": digests,
        "samples": {
            p: {
                "wall_s": [s.wall_s for s in samples[p]],
                "cpu_s": [s.cpu_s for s in samples[p]],
                "kernel_s": [s.kernel_s for s in samples[p]],
            }
            for p in protocols
        },
        "attempted": sum(len(samples[p]) * facts[p]["flows"] for p in protocols),
        "failed": sum(len(samples[p]) * facts[p]["flows_failed"] for p in protocols),
        "end_to_end": {
            "setup_s": setup_s,
            "ref_us_per_pkt": sum(refs.values()) / pkts * 1e6,
            "peak_rss_mb": peak_rss_mb,
            "slowdown_gap.phost_vs_pfabric": max(gap, 1.0 / gap),
        },
        "simulated": facts,
        "checks": checks,
        "warnings": warnings,
    }
    if not trace:
        return doc

    traced, spans, by_protocol, totals = traced_repetition(workload, seed, scale, OUT_DIR)
    for s in traced:
        same = s.digest == digests[s.protocol] and s.facts == facts[s.protocol]
        checks.append(_check(f"traced-equals-untraced.{s.protocol}", same, s.digest))
    trace_path = OUT_DIR / f"trace-{workload.name}.json"
    write_chrome_trace(
        trace_path, spans, by_protocol,
        {"workload": workload.name, "seed": seed, "scale": scale_name, **totals},
    )
    self_s = {name: sum(layers[name] for layers in by_protocol.values()) for name in LAYERS}
    doc["trace_file"] = str(trace_path.relative_to(REPO_ROOT))
    doc["profiled_s"] = totals["profiled_s"]

    run_s = spans.total("experiments.run")
    layer = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "sim_pkts_per_s": pkts / wall_s,
        "calibrate.kernel_ms": 1e3 * statistics.median(
            s.kernel_s for p in protocols for s in samples[p]
        ),
        "flows_failed_frac": failed / flows,
        **_ratio_error(facts),
        "experiments.build_s": spans.total("experiments.build"),
        "workloads.generate_s": spans.total("workloads.generate"),
        "experiments.run_s": run_s,
        "sim.loop_s": totals["loop_s"],
        "metrics.collect_s": run_s - totals["loop_s"],
        "metrics.reduce_s": spans.total("metrics.reduce"),
        "validate.digest_s": spans.total("validate.digest"),
        "obs.ledger_put_s": spans.total("obs.ledger_put"),
        "trace.overhead_x": sum(s.wall_s for s in traced) / wall_s,
        "validate.checks": sum(f["audit_checks"] for f in facts.values()),
        "validate.violations": violations,
        "obs.samples": sum(f["obs_samples"] for f in facts.values()),
        "obs.ledger_bytes": sum(samples[p][0].ledger_bytes for p in protocols),
    }
    layer.update({f"self_s.{name}": self_s[name] for name in LAYERS})
    # Per-protocol names exist for every protocol any workload runs; a
    # protocol this workload does not run reports 0.
    for p in ALL_PROTOCOLS:
        ran = p in facts
        layer[f"wall_s.{p}"] = walls[p] if ran else 0.0
        layer[f"ref_us_per_pkt.{p}"] = refs[p] / facts[p]["pkts"] * 1e6 if ran else 0.0
        layer[f"sim.events_per_s.{p}"] = facts[p]["events"] / walls[p] if ran else 0.0
        layer[f"net.events_per_pkt.{p}"] = facts[p]["events"] / facts[p]["pkts"] if ran else 0.0
        for name, key in _FACT_METRICS.items():
            layer[f"{name}.{p}"] = facts[p][key] if ran else 0.0
    doc["per_layer"] = layer
    return doc


def main(workload_name: str, seed: int, seconds: float, scale: str, trace: bool,
         setup_only: bool) -> int:
    """Child entry point.  Set-up time runs from the moment the parent
    spawned this process (``BENCH_SPAWNED_AT``, wall-clock epoch) to the
    end of the warm-up, so it includes interpreter start and imports; it
    is scaled to the reference machine speed by a calibration point taken
    right after it."""
    spawned_at = float(os.environ.get("BENCH_SPAWNED_AT", time.time()))
    workload = WORKLOADS[workload_name]
    checks = warm_up(workload.protocols)
    setup_raw_s = time.time() - spawned_at
    setup_s = setup_raw_s * REFERENCE_S / calibration_point()
    if setup_only:
        doc = {"end_to_end": {"setup_s": setup_s}}
    else:
        doc = run(workload, seed, seconds, scale, trace, setup_s, checks)
    doc["setup_raw_s"] = setup_raw_s
    print(json.dumps(doc))
    return 0
