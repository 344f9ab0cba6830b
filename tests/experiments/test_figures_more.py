"""Integration smoke of more figures at tiny scale.

The benchmark suite runs every figure at bench scale; these tests
cover more of the table's grid and build paths quickly so
`pytest tests/` alone exercises them.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import figures
from repro.experiments.figures import run_figure


@pytest.fixture(scope="module", autouse=True)
def fresh_cache():
    figures.clear_cache()
    yield


def test_fig5a_5b_shapes():
    a = run_figure("fig5a", scale="tiny", seed=3)
    b = run_figure("fig5b", scale="tiny", seed=3)
    for row in a.rows:
        assert all(row[p] >= 1.0 for p in ("phost", "pfabric", "fastpass"))
    for row in b.rows:
        assert all(0 < row[p] < 10 for p in ("phost", "pfabric", "fastpass"))


def test_fig5f_accounts_every_protocol():
    result = run_figure("fig5f", scale="tiny", seed=3)
    assert {row["protocol"] for row in result.rows} == {"phost", "pfabric", "fastpass"}
    for row in result.rows:
        assert row["injected"] > 0


def test_fig9c_and_9d_share_incast_runs(monkeypatch):
    run_figure("fig9c", scale="tiny", seed=3)
    runs = []
    monkeypatch.setattr(figures, "run_incast", lambda **call: runs.append(call))
    monkeypatch.setattr(figures, "run_experiment", runs.append)
    result = run_figure("fig9d", scale="tiny", seed=3)
    assert runs == []  # 9d reused every run
    assert result.rows


def test_fig10_runs_buffer_sweep():
    result = run_figure("fig10", scale="tiny", seed=3)
    assert [row["buffer_bytes"] for row in result.rows] == [
        6_000, 12_000, 18_000, 24_000, 36_000, 72_000,
    ]
    assert all(row["phost"] >= 1.0 for row in result.rows)


def test_fig6_covers_grid():
    result = run_figure("fig6", scale="tiny", seed=3)
    assert len(result.rows) == 12  # 3 workloads x 4 loads
    for row in result.rows:
        for p in ("phost", "pfabric", "fastpass"):
            assert row[p] >= 1.0 or math.isnan(row[p])


def test_long_threshold_adapts_to_truncation():
    # tiny truncates all traces at 200kB -> boundary becomes 200k/3
    assert figures._long_threshold("websearch", "tiny") == 200_000 // 3
    # imc10 at bench is untruncated -> the paper's 100kB split survives
    assert figures._long_threshold("imc10", "bench") == 100_000
    # unknown scale falls back to the paper boundary
    assert figures._long_threshold("websearch", "full") == 10_000_000
