"""Tests for the extended CLI modes: JSON output, sweeps, trace replay."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.sim.randoms import SeededRng
from repro.workloads.distributions import imc10
from repro.workloads.generator import FlowGenerator
from repro.workloads.traffic_matrix import AllToAll
from repro.workloads.trace_io import save_flows


def test_run_json_output(capsys):
    assert main(["--run", "phost", "imc10", "--scale", "tiny",
                 "--flows", "40", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["protocol"] == "phost"
    assert payload["n_completed"] == payload["n_flows"] == 40
    assert payload["mean_slowdown"] >= 1.0
    assert set(payload["drops"]) == {1, 2, 3, 4} or set(payload["drops"]) == {"1", "2", "3", "4"}


def test_run_json_reports_the_events_pin_and_golden_digest(capsys):
    # The same bare spec as the golden-trace pin (tests/validate).
    assert main(["--run", "phost", "websearch", "--scale", "tiny", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    goldens = json.loads((Path(__file__).parents[1] / "validate/golden_digests.json").read_text())
    assert payload["events_processed"] == 54092
    assert payload["run_digest"] == goldens["fig3-tiny-phost-websearch-seed42"]


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """A batch file naming an unknown protocol and a trace with a
    malformed row, outside the directory each case runs in."""
    inputs = tmp_path_factory.mktemp("inputs")
    (inputs / "nosuch.json").write_text(
        json.dumps({"experiments": [{"protocol": "nosuch", "workload": "imc10", "name": "a"}]})
    )
    (inputs / "bad.csv").write_text("arrival,src,dst,size_bytes\nx,0,1,100\n")
    return inputs


@pytest.mark.parametrize("argv, message", [
    ("--run nosuch websearch", "unknown protocol 'nosuch'"),
    ("--run phost nosuchwl", "unknown workload 'nosuchwl'"),
    ("--run phost websearch --dataplane nosuch", "unknown dataplane 'nosuch'"),
    ("--run phost websearch --faults bogus=1", "unknown --faults key 'bogus'"),
    ("--replay flows.csv --protocol nosuch", "unknown protocol 'nosuch'"),
    ("--sweep load phost nosuchwl --values 0.5", "unknown workload 'nosuchwl'"),
    ("--size-profile nosuch imc10", "unknown protocol 'nosuch'"),
    ("--figure fig99", "unknown figure 'fig99'"),
    ("--report X.md --figure fig99", "unknown figure 'fig99'"),
    ("--figure fig3 --figure fig99", "unknown figure 'fig99'"),
    ("--replay /nonexistent.csv", "no such file: /nonexistent.csv"),
    ("--run phost websearch --trace /nonexistent.csv", "no such file: /nonexistent.csv"),
    ("--batch /nonexistent.json", "/nonexistent.json: cannot read"),
    ("--sweep load phost websearch --values abc", "load must be a number, got 'abc'"),
    ("--sweep n_flows phost websearch --values 1.5", "n_flows must be an integer, got 1.5"),
    ("--batch {inputs}/nosuch.json", "a: unknown protocol 'nosuch'"),
    ("--replay {inputs}/bad.csv", "bad.csv:2: bad row"),
    ("--run phost websearch --trace {inputs}/bad.csv", "bad.csv:2: bad row"),
])
def test_bad_names_are_usage_errors(argv, message, capsys, tmp_path, monkeypatch, bad_inputs):
    monkeypatch.chdir(tmp_path)
    assert main(argv.format(inputs=bad_inputs).split() + ["--scale", "tiny"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert out == "" and list(tmp_path.iterdir()) == []  # nothing ran or was written


def test_value_error_inside_a_run_still_propagates(monkeypatch):
    def broken(spec):
        raise ValueError("raised mid-simulation")

    monkeypatch.setattr("repro.experiments.cli.run_experiment", broken)
    with pytest.raises(ValueError, match="mid-simulation"):
        main(["--run", "phost", "imc10", "--scale", "tiny", "--flows", "5"])


def test_sweep_over_load(capsys):
    assert main(["--sweep", "load", "phost", "imc10", "--scale", "tiny",
                 "--values", "0.4,0.7"]) == 0
    out = capsys.readouterr().out
    assert "sweep over load" in out
    assert "0.4" in out and "0.7" in out


def test_sweep_json(capsys):
    assert main(["--sweep", "load", "pfabric", "imc10", "--scale", "tiny",
                 "--values", "0.5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["figure"] == "sweep:load"
    assert len(payload["rows"]) == 1


def test_sweep_unknown_field_errors(capsys):
    assert main(["--sweep", "warp_factor", "phost", "imc10",
                 "--scale", "tiny", "--values", "9"]) == 2
    assert "no field" in capsys.readouterr().err


def test_sweep_integer_field(capsys):
    assert main(["--sweep", "n_flows", "phost", "imc10", "--scale", "tiny",
                 "--values", "20,40"]) == 0
    out = capsys.readouterr().out
    assert "20" in out and "40" in out


def test_replay_mode(tmp_path, capsys):
    gen = FlowGenerator(imc10(), AllToAll(12), 10e9, 0.4, SeededRng(3))
    trace = tmp_path / "flows.csv"
    save_flows(gen.generate(25), trace)
    assert main(["--replay", str(trace), "--scale", "tiny",
                 "--protocol", "pfabric", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["protocol"] == "pfabric"
    assert payload["n_completed"] == 25


def test_figure_json(capsys):
    assert main(["--figure", "fig2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["figure"] == "fig2"
    assert payload["rows"]


def test_profile_mode(capsys):
    assert main(["--size-profile", "phost", "imc10", "--scale", "tiny",
                 "--flows", "60"]) == 0
    out = capsys.readouterr().out
    assert "slowdown by flow size" in out
    assert "slowdown trend:" in out


def test_profile_json(capsys):
    assert main(["--size-profile", "pfabric", "imc10", "--scale", "tiny",
                 "--flows", "60", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["figure"] == "size-profile"
    assert payload["rows"]
