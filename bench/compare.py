"""``python3 -m bench.compare A.json [B.json]``: compare two sets of runs.

Each file is what ``python3 -m bench --runs N --out FILE`` wrote.  Per
workload and end-to-end metric this prints both medians, each side's
spread (distance between the quartiles over its median), the ratio with
its base, and a verdict under the bound ``BENCHMARK.json`` stores:

* ``worse``        B's median is worse than A's by more than the bound;
* ``unresolved``   not worse, but a side's spread is wider than the bound,
                   so "unchanged" cannot be claimed;
* ``within bound`` otherwise.

Simulated output is compared exactly: the digest of every (workload,
seed, protocol) present in both files must be equal.  With one file only
medians and spreads are printed, each spread against a third of its bound
(the steadiness the benchmark is held to).  Exit code 1 on any ``worse``
or differing digest.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _values(record: dict, names) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per run, for the contract's metrics
    (a record written under an older contract may hold others)."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in record["runs"]:
        for name in names:
            if name in run["end_to_end"]:
                out.setdefault((run["workload"], name), []).append(run["end_to_end"][name])
    return out


def _spread(values: List[float]) -> Optional[float]:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _fmt_spread(spread: Optional[float]) -> str:
    return "   n/a" if spread is None else f"{spread:6.1%}"


def _digests(record: dict) -> Dict[Tuple[str, int, str], str]:
    return {
        (run["workload"], run["seed"], protocol): digest
        for run in record["runs"]
        for protocol, digest in run["digests"].items()
    }


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) not in (1, 2):
        print(__doc__)
        return 2
    contract = json.loads(CONTRACT.read_text())
    metrics = {m["name"]: m for m in contract["end_to_end"]}
    records = [json.loads(Path(p).read_text()) for p in paths]
    a = _values(records[0], metrics)
    b = _values(records[1], metrics) if len(records) == 2 else {}
    bad = 0
    for (workload, name), va in a.items():
        m = metrics[name]
        bound = m["bound"]
        med_a, spread_a = statistics.median(va), _spread(va)
        row = f"{workload:15s} {name:24s} A {med_a:12.6g} {m['unit']:6s} n={len(va):<2d} spread {_fmt_spread(spread_a)}"
        vb = b.get((workload, name))
        if vb is None:
            steady = spread_a is not None and spread_a <= bound / 3
            print(f"{row}  bound {bound:.0%}  {'steady' if steady else 'NOT below a third of the bound'}")
            continue
        med_b, spread_b = statistics.median(vb), _spread(vb)
        worse_by = (med_b - med_a) / med_a if m["better"] == "lower" else (med_a - med_b) / med_a
        if worse_by > bound:
            verdict = "worse"
            bad += 1
        elif max(spread_a or 0.0, spread_b or 0.0) > bound:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        print(
            f"{row}  B {med_b:12.6g} n={len(vb):<2d} spread {_fmt_spread(spread_b)}"
            f"  B/A {med_b / med_a:6.3f} (base A)  bound {bound:.0%}  {verdict}"
        )
    if len(records) == 2:
        da, db = _digests(records[0]), _digests(records[1])
        common = sorted(set(da) & set(db))
        differing = [key for key in common if da[key] != db[key]]
        for workload, seed, protocol in differing:
            print(f"digest DIFFERS: {workload} seed {seed} {protocol}")
        print(f"digests: {len(common) - len(differing)} of {len(common)} common runs equal")
        bad += len(differing)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
