"""``python3 -m bench``: run workloads, print every metric, check results.

This process only orchestrates.  Each workload is measured in a fresh
child (one process, one thread, default tuning — what a user gets with no
knobs), so ``peak_rss_mb`` and ``setup_s`` belong to that workload alone.
With one workload and one run, the last line of stdout is the result
object ``BENCHMARK.json``'s driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
CONTRACT = REPO_ROOT / "BENCHMARK.json"
#: Extra set-up-only children per run, so ``setup_s`` is a median of 5.
EXTRA_SETUPS = 4
CHILD_TIMEOUT_S = 170


def _spawn(args: List[str]) -> dict:
    """Run ``python -m bench --child ...`` and parse the JSON document on
    the last line of its stdout.  The child learns when it was spawned so
    that set-up time includes interpreter start and imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    env["BENCH_SPAWNED_AT"] = repr(time.time())
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--child"] + args,
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench: child {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_revision() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def run_workload(name: str, seed: int, args, contract: dict) -> dict:
    """One run of one workload: set-up samples, the measuring child, and
    the checks that need the contract."""
    child_args = [
        "--workload", name, "--seed", str(seed), "--seconds", str(args.seconds),
        "--scale", args.scale, "--trace", str(args.trace),
    ]
    load_start = os.getloadavg()[0]
    # setup_s is only reported untraced, and smoke numbers are never
    # results: both skip the extra set-ups.
    extras = 0 if args.trace or args.scale == "smoke" else EXTRA_SETUPS
    setups = [
        _spawn(child_args + ["--setup-only"])["end_to_end"]["setup_s"] for _ in range(extras)
    ]
    doc = _spawn(child_args)
    setups.append(doc["end_to_end"]["setup_s"])
    doc["setup_samples_s"] = setups
    doc["end_to_end"]["setup_s"] = statistics.median(setups)
    doc["loadavg_1min"] = [load_start, os.getloadavg()[0]]

    bound = next(m["bound"] for m in contract["end_to_end"] if m["name"] == "ref_us_per_pkt")
    for protocol, timing in doc["samples"].items():
        # calibrated samples, up to the constant reference: wall / kernel
        costs = [w / k for w, k in zip(timing["wall_s"], timing["kernel_s"])]
        spread = (max(costs) - min(costs)) / statistics.median(costs)
        if spread > bound:
            doc["warnings"].append(
                f"{protocol}: (max-min)/median of its {len(costs)} calibrated samples "
                f"= {spread:.3f} exceeds the bound {bound}"
            )
    kinds = [("end_to_end", doc["end_to_end"])]
    if args.trace:
        kinds.append(("per_layer", doc["per_layer"]))
    for kind, values in kinds:
        declared = [m["name"] for m in contract[kind]]
        doc["checks"].append(
            {
                "name": f"contract.{kind}", "ok": sorted(values) == sorted(declared),
                "detail": f"differs: {sorted(set(values) ^ set(declared))}",
            }
        )
    doc["correct"] = all(c["ok"] for c in doc["checks"])
    return doc


def print_run(doc: dict, contract: dict) -> None:
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    print(f"== {doc['workload']} seed={doc['seed']} scale={doc['scale']} "
          f"protocols={','.join(doc['protocols'])}")
    for protocol, timing in doc["samples"].items():
        walls = timing["wall_s"]
        print(f"  wall_s.{protocol}: median {statistics.median(walls):.4f} s  n={len(walls)} "
              f"min {min(walls):.4f} max {max(walls):.4f}  "
              f"kernel {1e3 * statistics.median(timing['kernel_s']):.1f} ms  "
              f"digest {doc['digests'][protocol]}")
    print(f"  setup samples (calibrated): {' '.join(f'{s:.3f}' for s in doc['setup_samples_s'])} s"
          f"  raw here {doc['setup_raw_s']:.3f} s")
    for kind in ("end_to_end", "per_layer"):
        for name, value in doc.get(kind, {}).items():
            print(f"  {kind:10s} {name:34s} {value:.6g} {units.get(name, '?')}")
    if "trace_file" in doc:
        print(f"  trace written to {doc['trace_file']}")
    for warning in doc["warnings"]:
        print(f"  WARNING {warning}")
    for check in doc["checks"]:
        if not check["ok"]:
            print(f"  FAILED {check['name']}: {check['detail']}")
    print(f"  flows attempted {doc['attempted']} failed {doc['failed']}  "
          f"load {doc['loadavg_1min'][0]:.2f}->{doc['loadavg_1min'][1]:.2f}  "
          f"{'correct' if doc['correct'] else 'INCORRECT'}")


def result_line(doc: dict, contract: dict, trace: bool) -> str:
    kind = "per_layer" if trace else "end_to_end"
    metrics = {
        m["name"]: {"value": doc[kind][m["name"]], "unit": m["unit"]} for m in contract[kind]
    }
    return json.dumps(
        {"correct": doc["correct"], "attempted": doc["attempted"], "failed": doc["failed"],
         "metrics": metrics}
    )


def _telemetry_inert(runs: List[dict]) -> List[str]:
    """fig3-observed must produce fig3-websearch's digests (same seed,
    same protocol): telemetry and auditors may not perturb a run."""
    bare = {r["seed"]: r["digests"] for r in runs if r["workload"] == "fig3-websearch"}
    problems = []
    for r in runs:
        if r["workload"] != "fig3-observed" or r["seed"] not in bare:
            continue
        for protocol, digest in r["digests"].items():
            if bare[r["seed"]][protocol] != digest:
                problems.append(f"seed {r['seed']} {protocol}: observed digest differs from bare")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=42, help="workload seed of the first run")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced repetition and report per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--scale", choices=("paper", "smoke"), default="paper",
                        help="smoke: tiny sizes for bench/tests, never a result")
    parser.add_argument("--out", help="write every run's full record to this JSON file")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        from bench import measure

        return measure.main(args.workload, args.seed, args.seconds, args.scale,
                            bool(args.trace), args.setup_only)

    sys.stdout.reconfigure(line_buffering=True)  # show each run as it ends
    contract = json.loads(CONTRACT.read_text())
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    selected = [args.workload] if args.workload else names

    runs = []
    for i in range(args.runs):
        for name in selected:
            doc = run_workload(name, args.seed + i, args, contract)
            print_run(doc, contract)
            runs.append(doc)
    problems = _telemetry_inert(runs)
    for problem in problems:
        print(f"FAILED telemetry-inert: {problem}")
    correct = not problems and all(r["correct"] for r in runs)

    if args.out:
        record = {
            "noise": {
                "nproc": os.cpu_count(), "python": platform.python_version(),
                "git_revision": _git_revision(), "machine": platform.machine(),
            },
            "correct": correct,
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    if len(runs) == 1:
        print(result_line(runs[0], contract, bool(args.trace)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
