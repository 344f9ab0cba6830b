"""Tests for the parallel runner and JSON batch files."""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import main
from repro.experiments.defaults import make_spec
from repro.experiments.parallel import run_experiments_parallel
from repro.experiments.runner import run_experiment
from repro.experiments.specfile import SpecFileError, load_spec_file


def tiny_specs():
    return [
        make_spec("phost", "imc10", "tiny", seed=1, n_flows=40),
        make_spec("pfabric", "imc10", "tiny", seed=2, n_flows=40),
        make_spec("fastpass", "imc10", "tiny", seed=3, n_flows=40),
    ]


def test_parallel_matches_serial():
    specs = tiny_specs()
    serial = [run_experiment(s) for s in specs]
    parallel = run_experiments_parallel(specs, processes=3)
    for a, b in zip(serial, parallel):
        assert a.spec.protocol == b.spec.protocol
        assert [r.finish for r in a.records] == [r.finish for r in b.records]
        assert a.drops.by_hop == b.drops.by_hop


def test_parallel_single_process_path():
    specs = tiny_specs()[:1]
    (result,) = run_experiments_parallel(specs, processes=1)
    assert result.completion_rate == 1.0
    assert run_experiments_parallel([]) == []
    with pytest.raises(ValueError):
        run_experiments_parallel(specs, processes=0)


def _write_batch(tmp_path, payload):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(payload))
    return path


def test_spec_file_parsing(tmp_path):
    path = _write_batch(tmp_path, {
        "defaults": {"workload": "imc10", "scale": "tiny", "n_flows": 30},
        "experiments": [
            {"name": "a", "protocol": "phost"},
            {"name": "b", "protocol": "pfabric", "load": 0.8},
        ],
    })
    named = load_spec_file(path)
    assert [n for n, _ in named] == ["a", "b"]
    assert named[0][1].protocol == "phost"
    assert named[1][1].load == 0.8
    assert named[0][1].n_flows == 30


@pytest.mark.parametrize(
    "payload",
    [
        {"experiments": []},                                   # empty list
        {"experiments": [{"name": "x"}]},                      # no protocol
        {"experiments": [{"protocol": "phost"}]},              # no workload
        {"defaults": [], "experiments": [{}]},                 # bad defaults
        {"experiments": [
            {"name": "a", "protocol": "phost", "workload": "imc10"},
            {"name": "a", "protocol": "pfabric", "workload": "imc10"},
        ]},                                                     # dup names
        {"experiments": [{"name": "a", "protocol": "phost",
                          "workload": "imc10", "warp": 9}]},    # bad field
        {"experiments": [{"protocol": "phost", "workload": "imc10",
                          "load": "high"}]},                    # non-numeric load
        {"experiments": [{"protocol": "phost", "workload": "imc10",
                          "n_flows": 1.5}]},                    # fractional n_flows
    ],
)
def test_spec_file_validation_errors(tmp_path, payload):
    path = _write_batch(tmp_path, payload)
    with pytest.raises(SpecFileError):
        load_spec_file(path)


def test_spec_file_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SpecFileError):
        load_spec_file(path)


def test_cli_batch_table_and_json(tmp_path, capsys):
    path = _write_batch(tmp_path, {
        "defaults": {"workload": "imc10", "scale": "tiny", "n_flows": 30},
        "experiments": [
            {"name": "one", "protocol": "phost"},
            {"name": "two", "protocol": "pfabric"},
        ],
    })
    assert main(["--batch", str(path)]) == 0
    out = capsys.readouterr().out
    assert "one" in out and "two" in out and "mean_slowdown" in out

    assert main(["--batch", str(path), "--json", "--parallel", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"one", "two"}
    assert payload["one"]["n_completed"] == 30


def test_cli_batch_error_path(tmp_path, capsys):
    path = _write_batch(tmp_path, {"experiments": [{"name": "x"}]})
    assert main(["--batch", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_spec_file_topology_changes_the_presets_fields(tmp_path):
    path = _write_batch(tmp_path, {"experiments": [{
        "protocol": "phost", "workload": "imc10", "scale": "tiny",
        "topology": {"n_racks": 2, "oversubscription": 2.0},
    }]})
    ((_, spec),) = load_spec_file(path)
    preset = make_spec("phost", "imc10", "tiny").topology
    assert (spec.topology.n_racks, spec.topology.oversubscription) == (2, 2.0)
    assert spec.topology.hosts_per_rack == preset.hosts_per_rack


def test_topology_has_no_priority_band_count(tmp_path, capsys):
    """The band count is the switch program's (``CommodityProgram``);
    a topology field for it would be silently ignored, so there is
    none, and a spec file that sets one is refused before anything
    runs."""
    from repro.net.fattree import FatTreeConfig
    from repro.net.topology import TopologyConfig

    for config in (TopologyConfig, FatTreeConfig):
        with pytest.raises(TypeError):
            config(n_priority_bands=2)
    path = _write_batch(tmp_path, {"experiments": [{
        "name": "bands", "protocol": "phost", "workload": "imc10",
        "scale": "tiny", "topology": {"n_priority_bands": 2},
    }]})
    assert main(["--batch", str(path)]) == 2
    assert "bands:" in capsys.readouterr().err
