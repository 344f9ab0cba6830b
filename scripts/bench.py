#!/usr/bin/env python
"""Wall-clock benchmark harness for the simulator hot path.

Runs pinned instances of the paper's anchor scenarios (fig3 mean
slowdown, fig5 datamining, fig9c incast) per protocol, reports
events/s, packets/s, and wall-clock, and writes a ``BENCH_<date>.json``
at the repository root.  A committed baseline
(``benchmarks/results/bench_baseline.json``) makes speedups and
regressions visible across PRs.

Honest measurement notes:

* every instance's digest is computed and compared against the golden
  fingerprints where one exists — a benchmark that changed behaviour is
  reported as INVALID, not as a speedup;
* wall-clock on shared machines drifts: the committed baseline carries
  the ratio context, and ``--tuning-baseline`` measures the unoptimized
  path (``SimTuning.baseline()``: wheel, fusion and pooling all off)
  back-to-back in the same process, which is the fairest same-machine
  comparison;
* the first run of a workload pays one-time distribution setup costs;
  ``--repeats N`` (default 3) keeps the best, which is the standard
  low-noise estimator for deterministic workloads.

Usage:
    PYTHONPATH=src python scripts/bench.py                 # small tier
    PYTHONPATH=src python scripts/bench.py --scale medium  # bench scale
    PYTHONPATH=src python scripts/bench.py --profile       # + event-loop profile
    PYTHONPATH=src python scripts/bench.py --tuning-baseline
    PYTHONPATH=src python scripts/bench.py --update-baseline
    PYTHONPATH=src python scripts/bench.py --check         # CI regression gate
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.defaults import SCALES, make_spec  # noqa: E402
from repro.experiments.runner import run_experiment, run_incast  # noqa: E402
from repro.sim.tuning import SimTuning  # noqa: E402
from repro.validate import incast_digest, run_digest  # noqa: E402

BASELINE_PATH = REPO_ROOT / "benchmarks" / "results" / "bench_baseline.json"
GOLDEN_PATH = REPO_ROOT / "tests" / "validate" / "golden_digests.json"

#: CI gate: fail when the smoke instance is this much slower than the
#: committed baseline.
REGRESSION_FACTOR = 1.25
#: The headline instance for the regression gate.
SMOKE_INSTANCE = "fig3-phost"

PROTOCOLS = ("phost", "pfabric", "fastpass", "dctcp")
#: ``large`` is the paper-scale 144-host instance — minutes, not
#: seconds; its baseline lives under the per-scale ``"scales"`` key.
SIZE_TO_SCALE = {"small": "tiny", "medium": "bench", "large": "full"}


def _instances(size: str):
    """Pinned benchmark instances: name -> zero-arg runner.

    Each runner returns ``(wall_excluded_result, digest, events, pkts)``.
    """
    scale = SIZE_TO_SCALE[size]
    preset = SCALES[scale]
    out = {}
    for proto in PROTOCOLS:

        def run_fig3(proto=proto):
            res = run_experiment(make_spec(proto, "websearch", scale, seed=42))
            pkts = res.data_pkts_injected + res.control_pkts_sent
            return res, run_digest(res), res.events_processed, pkts

        def run_fig5(proto=proto):
            res = run_experiment(make_spec(proto, "datamining", scale, seed=42))
            pkts = res.data_pkts_injected + res.control_pkts_sent
            return res, run_digest(res), res.events_processed, pkts

        def run_fig9c(proto=proto):
            res = run_incast(
                proto,
                n_senders=9,
                total_bytes=preset.incast_bytes,
                n_requests=preset.incast_requests,
                topology=preset.topology,
                seed=42,
            )
            return res, incast_digest(res), None, None

        out[f"fig3-{proto}"] = run_fig3
        out[f"fig5-{proto}"] = run_fig5
        out[f"fig9c-{proto}"] = run_fig9c
    return out


def _time_runner(runner, repeats: int):
    """Best-of-N wall clock; digests must agree across repeats.

    Also returns the last run's result object so it can be persisted
    into the run ledger (identical across repeats by determinism).
    """
    best = None
    result = digest = events = pkts = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        res, d, ev, pk = runner()
        wall = time.perf_counter() - t0
        if digest is not None and d != digest:
            raise RuntimeError("nondeterministic benchmark run (digest drift)")
        result, digest, events, pkts = res, d, ev, pk
        if best is None or wall < best:
            best = wall
    return best, result, digest, events, pkts


def _tuning_baseline_wall(name: str, size: str, repeats: int):
    """Same instance with every hot-path optimization disabled."""
    scale = SIZE_TO_SCALE[size]
    preset = SCALES[scale]
    fig, proto = name.split("-", 1)
    workload = {"fig3": "websearch", "fig5": "datamining"}.get(fig)
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        if fig == "fig9c":
            run_incast(
                proto,
                n_senders=9,
                total_bytes=preset.incast_bytes,
                n_requests=preset.incast_requests,
                topology=preset.topology,
                seed=42,
                tuning=SimTuning.baseline(),
            )
        else:
            run_experiment(
                make_spec(proto, workload, scale, seed=42).variant(
                    tuning=SimTuning.baseline()
                )
            )
        wall = time.perf_counter() - t0
        if best is None or wall < best:
            best = wall
    return best


def _golden_digests():
    if not GOLDEN_PATH.exists():
        return {}
    data = json.loads(GOLDEN_PATH.read_text())
    return data if isinstance(data, dict) else {}


def _profile_instance(name: str, size: str) -> str:
    """One profiled run of an instance; returns the profiler report."""
    from repro.obs import EventLoopProfiler

    scale = SIZE_TO_SCALE[size]
    preset = SCALES[scale]
    fig, proto = name.split("-", 1)
    profiler = EventLoopProfiler()
    if fig == "fig9c":
        run_incast(
            proto,
            n_senders=9,
            total_bytes=preset.incast_bytes,
            n_requests=preset.incast_requests,
            topology=preset.topology,
            seed=42,
            instruments=(profiler,),
        )
    else:
        workload = {"fig3": "websearch", "fig5": "datamining"}[fig]
        spec = make_spec(proto, workload, scale, seed=42).variant(
            instruments=(profiler,)
        )
        run_experiment(spec)
    return profiler.report()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=("small", "medium", "large"), default="small")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument(
        "--instances",
        default=None,
        help="comma-separated subset (e.g. fig3-phost,fig9c-pfabric)",
    )
    ap.add_argument(
        "--profile",
        action="store_true",
        help="also print the event-loop profiler report (with the "
        "timer-wheel breakdown) for each timed instance",
    )
    ap.add_argument(
        "--tuning-baseline",
        action="store_true",
        help="also time each instance with SimTuning.baseline() "
        "(all hot-path optimizations off) for a same-machine speedup ratio",
    )
    ap.add_argument(
        "--update-baseline",
        action="store_true",
        help=f"rewrite {BASELINE_PATH.relative_to(REPO_ROOT)}",
    )
    ap.add_argument(
        "--check",
        action="store_true",
        help=f"exit 1 if {SMOKE_INSTANCE} regressed more than "
        f"{REGRESSION_FACTOR:.0%} vs the committed baseline",
    )
    ap.add_argument("--out", default=None, help="output JSON path")
    ap.add_argument(
        "--ledger",
        default=str(REPO_ROOT / "ledger"),
        metavar="DIR",
        help="run-ledger directory (repro.obs.store); every report is "
        "appended there and each fig3/fig5 run is stored content-"
        "addressed (default: <repo>/ledger)",
    )
    ap.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip the run ledger entirely",
    )
    args = ap.parse_args(argv)

    runners = _instances(args.scale)
    if args.instances:
        wanted = args.instances.split(",")
        unknown = [w for w in wanted if w not in runners]
        if unknown:
            ap.error(f"unknown instances {unknown}; known: {sorted(runners)}")
        runners = {k: runners[k] for k in wanted}

    ledger = None
    ledger_baseline = None
    if not args.no_ledger:
        from repro.obs.store import RunLedger

        ledger = RunLedger(args.ledger)
        # Captured before this run is appended, so --check compares
        # against the *previous* stored report.
        ledger_baseline = ledger.latest_bench(args.scale)

    baseline = (
        json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
    )
    # Wall-clock only compares within a scale; a small-tier baseline says
    # nothing about medium-tier runs.  Non-default scales live under the
    # per-scale "scales" key (the top level stays the small tier, which
    # older tooling reads directly).
    base_instances = (
        baseline.get("instances", {})
        if baseline.get("scale") == args.scale
        else baseline.get("scales", {}).get(args.scale, {}).get("instances", {})
    )
    # The ledger's most recent same-scale report (this machine's own
    # history) beats the committed baseline when present.
    check_instances = base_instances
    check_source = str(BASELINE_PATH.relative_to(REPO_ROOT))
    if ledger_baseline is not None:
        check_instances = ledger_baseline.get("instances", {})
        check_source = f"ledger {args.ledger} ({ledger_baseline.get('date')})"
    goldens = _golden_digests()

    report = {
        "date": datetime.date.today().isoformat(),
        "scale": args.scale,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "instances": {},
    }
    failures = []

    for name, runner in runners.items():
        wall, result, digest, events, pkts = _time_runner(runner, args.repeats)
        row = {"wall_seconds": round(wall, 4), "digest": digest}
        if ledger is not None and hasattr(result, "spec"):
            # fig3/fig5 rows are ExperimentResults; store them content-
            # addressed so dashboards/diffs can consume bench runs too.
            row["ledger_key"] = ledger.put(result, digest=digest).key
        if events is not None:
            row["events"] = events
            row["events_per_sec"] = round(events / wall)
        if pkts is not None:
            row["packets"] = pkts
            row["packets_per_sec"] = round(pkts / wall)
        golden_key = None
        if args.scale == "small":
            golden_key = {
                "fig3-phost": "fig3-tiny-phost-websearch-seed42",
                "fig9c-phost": "fig9c-tiny-phost-incast9-seed42",
                "fig3-dctcp": "fig3-tiny-dctcp-websearch-seed42",
                "fig9c-dctcp": "fig9c-tiny-dctcp-incast9-seed42",
            }.get(name)
        if golden_key and golden_key in goldens:
            ok = goldens[golden_key] == digest
            row["golden"] = "ok" if ok else "MISMATCH"
            if not ok:
                failures.append(f"{name}: digest does not match golden")
        prev = base_instances.get(name)
        if prev:
            row["baseline_wall_seconds"] = prev["wall_seconds"]
            row["vs_baseline"] = round(prev["wall_seconds"] / wall, 3)
        if args.tuning_baseline:
            off = _tuning_baseline_wall(name, args.scale, args.repeats)
            row["tuning_baseline_wall_seconds"] = round(off, 4)
            row["speedup_vs_tuning_baseline"] = round(off / wall, 3)
        report["instances"][name] = row
        extra = ""
        if "vs_baseline" in row:
            extra += f"  {row['vs_baseline']:.2f}x vs committed baseline"
        if "speedup_vs_tuning_baseline" in row:
            extra += (
                f"  {row['speedup_vs_tuning_baseline']:.2f}x vs tuning-off"
            )
        rate = f"{row.get('events_per_sec', 0):,} ev/s" if events else ""
        print(f"{name:18s} {wall * 1e3:9.1f} ms  {rate:>14s}{extra}")
        if args.profile:
            print(_profile_instance(name, args.scale))
            print()

    out_path = Path(args.out) if args.out else REPO_ROOT / (
        f"BENCH_{report['date']}.json"
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    # BENCH_<date>.json is a cumulative trajectory: same-day reports
    # append rather than overwrite, so a day's runs stay comparable.
    # Legacy single-report files are converted in place.
    trajectory = {"schema": "bench-trajectory/v1", "runs": []}
    if out_path.exists():
        try:
            existing = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            existing = None
        if isinstance(existing, dict):
            if existing.get("schema") == "bench-trajectory/v1":
                trajectory["runs"] = list(existing.get("runs", []))
            elif "instances" in existing:
                trajectory["runs"] = [existing]
    trajectory["runs"].append(report)
    out_path.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out_path} ({len(trajectory['runs'])} runs)")

    if ledger is not None:
        bench_path = ledger.put_bench(report)
        print(f"ledger: appended bench report {bench_path}")

    if args.update_baseline:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        slim_instances = {
            k: (
                {"wall_seconds": v["wall_seconds"], "events": v["events"]}
                if "events" in v
                else {"wall_seconds": v["wall_seconds"]}
            )
            for k, v in report["instances"].items()
        }
        updated = baseline if isinstance(baseline, dict) else {}
        if updated.get("scale") in (None, args.scale):
            # Default (small) tier: top-level entry, as older tooling
            # and tests/perf/test_bench_smoke.py expect.
            updated.update(
                {
                    "note": (
                        "Committed wall-clock baseline for scripts/bench.py. "
                        "Refresh with --update-baseline on a quiet machine."
                    ),
                    "date": report["date"],
                    "scale": args.scale,
                    "python": report["python"],
                    "instances": slim_instances,
                }
            )
        else:
            # Other tiers nest under "scales" so one file carries every
            # scale without clobbering the default entry.
            updated.setdefault("scales", {})[args.scale] = {
                "date": report["date"],
                "python": report["python"],
                "instances": slim_instances,
            }
        BASELINE_PATH.write_text(
            json.dumps(updated, indent=2, sort_keys=True) + "\n"
        )
        print(f"updated {BASELINE_PATH}")

    if args.check:
        row = report["instances"].get(SMOKE_INSTANCE)
        prev = check_instances.get(SMOKE_INSTANCE)
        if prev is None:
            # A ledger whose last report lacks the smoke instance (e.g. a
            # filtered --instances run) falls back to the committed file.
            prev = base_instances.get(SMOKE_INSTANCE)
            check_source = str(BASELINE_PATH.relative_to(REPO_ROOT))
        if row is None or prev is None:
            failures.append(
                f"--check needs {SMOKE_INSTANCE} in both the run and the baseline"
            )
        else:
            print(f"--check baseline: {check_source}")
            if row["wall_seconds"] > prev["wall_seconds"] * REGRESSION_FACTOR:
                failures.append(
                    f"{SMOKE_INSTANCE} regressed: {row['wall_seconds']:.3f}s vs "
                    f"baseline {prev['wall_seconds']:.3f}s "
                    f"(> {REGRESSION_FACTOR:.0%})"
                )
            # The event-count pin: wall clock is machine-dependent but
            # the number of simulator events is not.  Any drift means the
            # behaviour changed, which a perf PR must never do silently.
            if "events" in prev and row.get("events") != prev["events"]:
                failures.append(
                    f"{SMOKE_INSTANCE} event count drifted: "
                    f"{row.get('events')} vs pinned {prev['events']}"
                )

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
