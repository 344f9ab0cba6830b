"""Output pins: every figure's exact output at tiny scale, seed 42.

``figure_pins.json`` holds the sha256 of each figure's ``--json`` form
(``json.dumps(..., sort_keys=True)``) and of the tiny-scale
EXPERIMENTS.md.  A change to the figure table, or to anything under it,
must leave them equal; after a deliberate behaviour change refresh them
with ``scripts/refresh_goldens.py``.  This tier checks the cheap
figures; ``benchmarks/test_figure_pins.py`` (smoke tier) checks all of
them and the report.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.experiments.cli import _figure_dict
from repro.experiments.figures import ALL_FIGURES, run_figure, write_experiments_md

PINS_PATH = Path(__file__).parent / "figure_pins.json"
PINS = json.loads(PINS_PATH.read_text())

#: The figures that run in about three seconds together (fig3's runs
#: feed fig4, fig5a, fig5b, fig5d and fig5f; the incast runs are small).
CHEAP = ("fig2", "fig3", "fig4", "fig5a", "fig5b", "fig5d", "fig5f", "fig9c", "fig9d")


def figure_sha256(name: str) -> str:
    result = run_figure(name, scale="tiny", seed=42)
    return hashlib.sha256(
        json.dumps(_figure_dict(result), sort_keys=True).encode()
    ).hexdigest()


def experiments_md_sha256() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = write_experiments_md(Path(tmp) / "EXPERIMENTS.md", scale="tiny", seed=42)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def compute_pins() -> dict:
    """Every pin, in the layout of ``figure_pins.json``."""
    return {
        "figures": {name: figure_sha256(name) for name in ALL_FIGURES},
        "experiments_md": experiments_md_sha256(),
    }


def test_pins_cover_the_table_in_order():
    assert list(PINS["figures"]) == list(ALL_FIGURES)


@pytest.mark.parametrize("name", CHEAP)
def test_figure_output_is_pinned(name):
    assert figure_sha256(name) == PINS["figures"][name]
