"""Tests for the paper-vs-measured report generator."""

from __future__ import annotations

import pytest

from repro.experiments import figures
from repro.experiments.cli import main
from repro.experiments.figures import ALL_FIGURES, write_experiments_md
from repro.experiments.report import FigureResult


def test_every_figure_has_a_paper_expectation():
    for name, figure in ALL_FIGURES.items():
        assert figure.title.strip(), name
        assert figure.paper.strip(), name


def test_summarize_fig3_reports_ratios():
    result = FigureResult(
        figure="fig3", title="t", columns=["workload", "phost", "pfabric", "fastpass"],
        rows=[{"workload": "imc10", "phost": 1.2, "pfabric": 1.0, "fastpass": 4.8}],
    )
    measured = ALL_FIGURES["fig3"].summarize(result)
    assert "pHost/pFabric 1.20x" in measured
    assert "Fastpass/pHost 4.00x" in measured


def test_summarize_handles_nan_and_unknown_figures(tmp_path):
    result = FigureResult(
        figure="fig3", title="t", columns=["workload", "phost", "pfabric", "fastpass"],
        rows=[{"workload": "x", "phost": float("nan"), "pfabric": 0.0, "fastpass": 1.0}],
    )
    assert "n/a" in ALL_FIGURES["fig3"].summarize(result)
    with pytest.raises(ValueError, match="unknown figure 'figZ'"):
        write_experiments_md(tmp_path / "E.md", scale="tiny", figures=["figZ"])
    assert not (tmp_path / "E.md").exists()


def test_write_experiments_md_subset(tmp_path):
    figures.clear_cache()
    out = write_experiments_md(
        tmp_path / "EXPERIMENTS.md",
        scale="tiny",
        seed=7,
        figures=["fig2", "fig3"],
        header_note="test run",
    )
    text = out.read_text()
    assert "## fig2" in text and "## fig3" in text
    assert "**Paper:**" in text
    assert "**Measured (tiny):**" in text
    assert "== fig3" in text  # rendered table embedded
    assert "test run" in text


def test_cli_report_mode(tmp_path, capsys):
    target = tmp_path / "report.md"
    assert main([
        "--report", str(target), "--scale", "tiny", "--figure", "fig2",
    ]) == 0
    assert target.exists()
    assert "## fig2" in target.read_text()
