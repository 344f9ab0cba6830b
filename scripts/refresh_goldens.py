#!/usr/bin/env python
"""Regenerate the committed golden run digests and figure output pins.

Run after any *intentional* behaviour change (scheduling, drop policy,
token pacing, RNG consumption) and commit the updated JSON together
with the change::

    PYTHONPATH=src python scripts/refresh_goldens.py

The digests are defined in :mod:`tests.validate.test_golden_trace` (the
tiny-scale scenarios) and :mod:`tests.net.test_fattree` (the fat-tree
pins); this script runs the same scenarios, verifies the tiny ones pass
every auditor, and rewrites ``tests/validate/golden_digests.json``.  It then
reruns every figure at tiny scale (about two minutes) and rewrites
``tests/experiments/figure_pins.json``
(:mod:`tests.experiments.test_figure_pins`).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from tests.experiments.test_figure_pins import PINS_PATH, compute_pins  # noqa: E402
from tests.net.test_fattree import compute_fat_tree_digests  # noqa: E402
from tests.validate.test_golden_trace import GOLDEN_PATH, compute_goldens  # noqa: E402


def main() -> int:
    digests, reports = compute_goldens()
    for name, report in reports.items():
        if not report.ok:
            print(f"refusing to refresh: {name} fails its audit", file=sys.stderr)
            print(report.summary(), file=sys.stderr)
            return 1
    digests.update(compute_fat_tree_digests())
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    for name, digest in sorted(digests.items()):
        print(f"{name}: {digest}")
    print(f"wrote {GOLDEN_PATH}")
    PINS_PATH.write_text(json.dumps(compute_pins(), indent=2) + "\n")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
