#!/usr/bin/env python
"""Render the HTML dashboard and regression diffs from a run ledger.

Everything here re-reads the content-addressed ledger written by
``phost-repro --ledger`` — no re-simulation.

Usage::

    PYTHONPATH=src python scripts/report.py --ledger ledger \\
        --out report/dashboard.html                # build the dashboard
    PYTHONPATH=src python scripts/report.py --ledger ledger --validate
    PYTHONPATH=src python scripts/report.py --ledger ledger \\
        --diff <key-A> <key-B>                     # two entries, per-metric deltas
    PYTHONPATH=src python scripts/report.py --ledger ledger \\
        --diff-latest --strict                     # newest pair per family; exit 1
                                                   # on non-advisory regressions

Keys are ``<spec_hash>/<run_digest>`` prefixes as printed by
``--list``.  ``--diff-latest`` pairs the two most recent entries of
every spec family (same experiment, any seed) — the cross-seed
regression check the CI ``report-smoke`` job gates on.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.report import diff_entries, render_dashboard, validate_dashboard  # noqa: E402
from repro.obs.store import RunLedger  # noqa: E402


def _list_entries(ledger: RunLedger) -> int:
    entries = ledger.entries()
    if not entries:
        print(f"ledger {ledger.root} is empty")
        return 0
    for e in entries:
        m = e.meta
        audit = e.audit
        audit_str = "-" if audit is None else ("pass" if audit.get("ok") else "FAIL")
        print(
            f"{e.key}  {str(m.get('protocol')):8s} {str(m.get('workload')):12s} "
            f"load={m.get('load')} seed={m.get('seed')} "
            f"events={e.metrics.get('events_processed')} audit={audit_str}"
        )
    print(f"{len(entries)} entries")
    return 0


def _diff_pair(ledger: RunLedger, key_a: str, key_b: str, strict: bool) -> int:
    diff = diff_entries(ledger.get(key_a), ledger.get(key_b))
    print(diff.summary())
    return 1 if strict and not diff.ok else 0


def _diff_latest(ledger: RunLedger, strict: bool) -> int:
    families = {
        fam: members
        for fam, members in ledger.families().items()
        if len(members) >= 2
    }
    if not families:
        print("no spec family has two or more entries; nothing to diff")
        return 0
    failed = 0
    for _, members in sorted(families.items()):
        diff = diff_entries(members[-2], members[-1])
        print(diff.summary())
        print()
        if not diff.ok:
            failed += 1
    print(f"{len(families)} families diffed, {failed} with regressions")
    return 1 if strict and failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--ledger",
        default=str(REPO_ROOT / "ledger"),
        metavar="DIR",
        help="run-ledger directory (default: <repo>/ledger)",
    )
    ap.add_argument(
        "--out",
        default=str(REPO_ROOT / "report" / "dashboard.html"),
        metavar="FILE.html",
        help="dashboard output path (default: <repo>/report/dashboard.html)",
    )
    ap.add_argument("--title", default="pHost repro — run ledger dashboard")
    ap.add_argument(
        "--figures-dir",
        default=None,
        metavar="DIR",
        help="also inline fig*.txt acceptance tables from this directory "
        "(e.g. benchmarks/results/smoke)",
    )
    ap.add_argument(
        "--max-heatmaps",
        type=int,
        default=4,
        help="queue-depth heatmap panels to render, newest runs first "
        "(default 4; the dashboard notes any truncation)",
    )
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true", help="list ledger entries")
    mode.add_argument(
        "--diff",
        nargs=2,
        metavar=("KEY_A", "KEY_B"),
        help="per-metric regression diff of entry B against baseline A",
    )
    mode.add_argument(
        "--diff-latest",
        action="store_true",
        help="diff the two newest entries of every spec family",
    )
    mode.add_argument(
        "--validate",
        action="store_true",
        help="validate an already-rendered dashboard at --out "
        "(artifacts exist, no empty panels) and exit non-zero on problems",
    )
    ap.add_argument(
        "--strict",
        action="store_true",
        help="with --diff/--diff-latest: exit 1 on any non-advisory regression",
    )
    args = ap.parse_args(argv)

    ledger = RunLedger(args.ledger)
    if args.list:
        return _list_entries(ledger)
    if args.diff:
        return _diff_pair(ledger, args.diff[0], args.diff[1], args.strict)
    if args.diff_latest:
        return _diff_latest(ledger, args.strict)
    if args.validate:
        problems = validate_dashboard(args.out)
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        if not problems:
            print(f"{args.out}: dashboard is valid")
        return 1 if problems else 0

    out = render_dashboard(
        ledger,
        args.out,
        title=args.title,
        figures_dir=args.figures_dir,
        max_heatmaps=args.max_heatmaps,
    )
    n = len(ledger.entries())
    print(f"wrote {out} ({n} ledger entries)")
    problems = validate_dashboard(out)
    for problem in problems:
        print(f"WARN: {problem}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
