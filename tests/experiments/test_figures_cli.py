"""Tests for the figure table and its driver, report rendering, and the CLI."""

from __future__ import annotations

import pytest

from repro.experiments import figures
from repro.experiments.cli import main
from repro.experiments.figures import run_figure
from repro.experiments.report import FigureResult, fmt, render

PAPER_ORDER = [
    "fig2", "fig3", "fig4", "fig5a", "fig5b", "fig5c", "fig5d", "fig5e",
    "fig5f", "fig6", "fig7", "fig8", "fig9a", "fig9b", "fig9c", "fig9d",
    "fig10", "fig11", "figR", "figT",
]


def test_fig2_reports_cdf_rows_without_simulation():
    result = run_figure("fig2")
    assert result.figure == "fig2"
    assert [c for c in result.columns] == ["size_bytes", "websearch", "datamining", "imc10"]
    # CDF values are monotone in size per workload
    for workload in ("websearch", "datamining", "imc10"):
        col = result.column(workload)
        assert col == sorted(col)
        assert col[-1] == 1.0


def test_fig3_tiny_reproduces_headline_ordering():
    figures.clear_cache()
    result = run_figure("fig3", scale="tiny", seed=7)
    assert len(result.rows) == 3
    for row in result.rows:
        assert row["phost"] >= 1.0
        assert row["pfabric"] >= 1.0
    # the heavy-tailed small-flow workloads show the Fastpass penalty
    im = result.row_where(workload="imc10")
    assert im["fastpass"] > 1.5 * im["phost"]
    # pHost is in pFabric's ballpark, not Fastpass's
    assert im["phost"] < 2.0 * im["pfabric"]


def test_fig4_uses_fig3_cache(monkeypatch):
    figures.clear_cache()
    run_figure("fig3", scale="tiny", seed=7)
    runs = []
    monkeypatch.setattr(figures, "run_experiment", runs.append)
    result = run_figure("fig4", scale="tiny", seed=7)
    assert runs == []  # every cell came from fig3's runs
    assert {row["class"] for row in result.rows} == {"short", "long"}


def test_run_figure_by_name_and_unknown():
    assert figures.run_figure("fig2").figure == "fig2"
    with pytest.raises(ValueError):
        figures.run_figure("fig99")


def test_all_figures_registry_complete():
    assert list(figures.ALL_FIGURES) == PAPER_ORDER


def test_render_produces_aligned_table():
    result = FigureResult(
        figure="figX", title="demo", columns=["a", "b"],
        rows=[{"a": 1, "b": 2.5}, {"a": 30, "b": None}],
        notes=["hello"],
    )
    text = render(result)
    lines = text.splitlines()
    assert lines[0].startswith("== figX")
    assert "note: hello" in text
    assert "2.500" in text and "-" in lines[-2]


def test_fmt_edge_cases():
    assert fmt(None) == "-"
    assert fmt(True) == "yes"
    assert fmt(float("nan")) == "nan"
    assert fmt(0.0001) == "0.0001"
    assert fmt(123456.0) == "1.23e+05"
    assert fmt(0) == "0"


def test_row_where_raises_for_missing():
    result = FigureResult(figure="f", title="t", columns=["a"], rows=[{"a": 1}])
    assert result.row_where(a=1) == {"a": 1}
    with pytest.raises(KeyError):
        result.row_where(a=2)


def test_cli_list_and_run(capsys):
    assert main(["--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == PAPER_ORDER
    # name, then the figure's full title (the bench preset's incast size)
    assert lines[1] == "fig3    Mean slowdown across workloads (default config)"
    assert lines[14] == "fig9c   Incast TM: mean FCT (ms), 5MB per request"

    assert main(["--run", "phost", "imc10", "--scale", "tiny", "--flows", "40"]) == 0
    out = capsys.readouterr().out
    assert "slowdown=" in out


def test_cli_figure_regeneration(capsys):
    assert main(["--figure", "fig2", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "== fig2" in out and "regenerated" in out


def test_cli_without_arguments_shows_help(capsys):
    assert main([]) == 2
