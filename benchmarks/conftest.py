"""Shared machinery for the per-figure benchmarks.

Each benchmark regenerates one figure of the paper at the ``bench``
scale preset (144-host fabric, truncated tails — see
``repro.experiments.defaults``), times it with pytest-benchmark
(one round: a simulation is deterministic, re-running it only burns
time), prints the paper-style table, and archives it under
``benchmarks/results/``.

Select the scale with ``--figure-scale {tiny,bench,full}`` — tiny for a
quick smoke, full for a faithful (hours-long) regeneration.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.figures import run_figure
from repro.experiments.report import FigureResult, render

RESULTS_DIR = Path(__file__).parent / "results"
SMOKE_DIR = RESULTS_DIR / "smoke"


def pytest_collection_modifyitems(items):
    """Everything in benchmarks/ that is not a smoke test is a full
    sweep: auto-mark it ``slow`` so CI can select ``-m smoke`` and the
    expensive tier stays opt-in (``-m slow`` or no marker filter)."""
    for item in items:
        if "smoke" not in item.keywords:
            item.add_marker(pytest.mark.slow)


def pytest_addoption(parser):
    parser.addoption(
        "--figure-scale",
        default=os.environ.get("REPRO_SCALE", "bench"),
        choices=["tiny", "bench", "full"],
        help="scale preset for figure regeneration (default: bench)",
    )


@pytest.fixture(scope="session")
def figure_scale(request) -> str:
    return request.config.getoption("--figure-scale")


@pytest.fixture
def regen(benchmark, figure_scale):
    """Run a figure once under the benchmark timer and report it."""

    def _run(figure_name: str, seed: int = 42) -> FigureResult:
        result = benchmark.pedantic(
            run_figure,
            args=(figure_name,),
            kwargs={"scale": figure_scale, "seed": seed},
            rounds=1,
            iterations=1,
        )
        text = render(result)
        print("\n" + text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{figure_name}.txt").write_text(text + "\n")
        return result

    return _run


@pytest.fixture
def smoke_regen():
    """Tiny-scale figure regeneration for the smoke tier.

    No benchmark timer: the point is a fast end-to-end sanity pass of
    every figure (tables render, rows exist) on each CI push,
    not performance numbers.  Results land in ``results/smoke/`` so CI
    can upload them as an artifact.
    """

    def _run(figure_name: str, seed: int = 42) -> FigureResult:
        result = run_figure(figure_name, scale="tiny", seed=seed)
        assert result.rows, f"{figure_name}: no rows at tiny scale"
        assert result.columns, f"{figure_name}: no columns at tiny scale"
        text = render(result)
        SMOKE_DIR.mkdir(parents=True, exist_ok=True)
        (SMOKE_DIR / f"{figure_name}.txt").write_text(text + "\n")
        return result

    return _run


@pytest.fixture
def audit_artifact():
    """Run a figure's tiny-scale anchor scenario under the full auditor
    set, archive the report JSON for CI upload, and fail on violations."""

    def _run(figure_name: str):
        from repro.experiments.defaults import SCALES, make_spec
        from repro.experiments.runner import run_experiment, run_incast
        from repro.metrics.export import audit_report_to_json
        from repro.validate import standard_auditors

        if figure_name == "fig3":
            spec = make_spec("phost", "websearch", "tiny", seed=42)
            spec = spec.variant(instruments=standard_auditors())
            report = run_experiment(spec).audit
        elif figure_name == "fig9c":
            report = run_incast(
                "phost",
                n_senders=9,
                total_bytes=SCALES["tiny"].incast_bytes,
                n_requests=SCALES["tiny"].incast_requests,
                topology=SCALES["tiny"].topology,
                seed=42,
                instruments=standard_auditors(),
            ).audit
        else:
            raise ValueError(f"no audit anchor defined for {figure_name}")
        SMOKE_DIR.mkdir(parents=True, exist_ok=True)
        audit_report_to_json(report, SMOKE_DIR / f"audit_{figure_name}.json")
        assert report.ok, report.summary()
        return report

    return _run


@pytest.fixture
def record_table(benchmark):
    """For ablation benches: time a builder returning a FigureResult,
    print and archive it like the figure benches do."""

    def _run(builder, name: str) -> FigureResult:
        result = benchmark.pedantic(builder, rounds=1, iterations=1)
        text = render(result)
        print("\n" + text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        return result

    return _run
