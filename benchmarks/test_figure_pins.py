"""Every figure's exact output at tiny scale, seed 42 (smoke tier).

The pins live in ``tests/experiments/figure_pins.json`` (see
``tests/experiments/test_figure_pins.py``, which checks the cheap
figures in tier 1).  Here all of them are checked, plus the tiny-scale
EXPERIMENTS.md.  The smoke tier has already run every figure at tiny
scale with seed 42 in this process, so the run memo makes this nearly
free.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.cli import _figure_dict
from repro.experiments.figures import ALL_FIGURES, run_figure, write_experiments_md

PINS = json.loads(
    (Path(__file__).parents[1] / "tests/experiments/figure_pins.json").read_text()
)


@pytest.mark.smoke
@pytest.mark.parametrize("name", list(ALL_FIGURES))
def test_figure_output_is_pinned(name):
    result = run_figure(name, scale="tiny", seed=42)
    digest = hashlib.sha256(json.dumps(_figure_dict(result), sort_keys=True).encode())
    assert digest.hexdigest() == PINS["figures"][name]


@pytest.mark.smoke
def test_experiments_md_is_pinned(tmp_path):
    path = write_experiments_md(tmp_path / "EXPERIMENTS.md", scale="tiny", seed=42)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINS["experiments_md"]
