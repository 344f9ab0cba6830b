"""The benchmark keeps its contract (run with ``pytest bench/tests``).

A ``--scale smoke`` pass (12-host fabric, one round, traced) proves the
harness end to end in well under 30 s.  Smoke numbers are never results.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PROTOCOLS = ("phost", "pfabric", "fastpass", "dctcp")


def bench(*args, cwd=REPO_ROOT, module="bench"):
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    start = time.perf_counter()
    proc = bench("--scale", "smoke", "--seconds", "0", "--trace", "1", "--out", str(out))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 30, f"smoke pass took {elapsed:.1f} s"
    record = json.loads(out.read_text())
    record["path"] = out
    return record


def test_contract_file_is_well_formed():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["bench"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [w["name"] for w in CONTRACT["workloads"]]
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        names.append(m["name"])
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names)), "a name is used once"
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_every_workload_reports_every_metric(smoke):
    assert smoke["correct"]
    assert [r["workload"] for r in smoke["runs"]] == [w["name"] for w in CONTRACT["workloads"]]
    for run in smoke["runs"]:
        assert run["correct"], [c for c in run["checks"] if not c["ok"]]
        assert sorted(run["end_to_end"]) == sorted(m["name"] for m in CONTRACT["end_to_end"])
        assert sorted(run["per_layer"]) == sorted(m["name"] for m in CONTRACT["per_layer"])
        assert all(v > 0 for v in run["end_to_end"].values()), "end-to-end metrics are never 0"
        assert run["failed"] == 0 and run["attempted"] >= 1


def test_layer_self_time_sums_to_the_traced_wall(smoke):
    for run in smoke["runs"]:
        total = sum(v for k, v in run["per_layer"].items() if k.startswith("self_s."))
        assert total == pytest.approx(run["profiled_s"], rel=0.01), run["workload"]


def test_protocol_walls_sum_to_the_figure_wall(smoke):
    for run in smoke["runs"]:
        layer = run["per_layer"]
        assert sum(layer[f"wall_s.{p}"] for p in PROTOCOLS) == pytest.approx(layer["wall_s"])
        # a protocol the workload does not run reports 0, one it runs does not
        for p in PROTOCOLS:
            assert (layer[f"wall_s.{p}"] > 0) == (p in run["protocols"])


def test_observation_is_inert_and_only_costs_where_it_runs(smoke):
    runs = {r["workload"]: r for r in smoke["runs"]}
    observed, bare = runs["fig3-observed"], runs["fig3-websearch"]
    for protocol, digest in observed["digests"].items():
        assert digest == bare["digests"][protocol]
    assert observed["per_layer"]["validate.violations"] == 0
    assert observed["per_layer"]["validate.checks"] > 0
    assert observed["per_layer"]["obs.ledger_bytes"] > 0
    assert bare["per_layer"]["validate.checks"] == 0


def test_traces_are_chrome_trace_event_files(smoke):
    for run in smoke["runs"]:
        doc = json.loads((REPO_ROOT / run["trace_file"]).read_text())
        events = doc["traceEvents"]
        assert events and all({"ph", "ts", "pid"} <= set(e) for e in events)
        spans = [e for e in events if e["ph"] == "X"]
        roots = [e for e in spans if e["args"]["parent"] is None]
        assert len(roots) == len(run["protocols"])
        assert all(e["args"]["id"] for e in spans)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_is_the_result_object(trace):
    proc = bench("--workload", "fig9c-incast", "--seed", "7", "--seconds", "0",
                 "--trace", trace, "--scale", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in CONTRACT[kind]]
    for m in CONTRACT[kind]:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m["unit"]


def test_fails_without_a_result_where_the_program_is_absent(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO_ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "short-flows", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_agrees_with_itself(smoke):
    proc = bench(str(smoke["path"]), str(smoke["path"]), module="bench.compare")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "worse" not in proc.stdout and "DIFFERS" not in proc.stdout
    assert proc.stdout.count("B/A  1.000") == 4 * len(CONTRACT["end_to_end"])
