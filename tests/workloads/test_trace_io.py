"""Tests for flow-trace CSV import/export and trace replay."""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_flow_list
from repro.experiments.spec import ExperimentSpec
from repro.net.packet import Flow
from repro.net.topology import TopologyConfig
from repro.sim.randoms import SeededRng
from repro.workloads.distributions import imc10
from repro.workloads.generator import FlowGenerator
from repro.workloads.traffic_matrix import AllToAll
from repro.workloads.trace_io import (
    TraceFormatError,
    check_trace,
    iter_flows,
    load_flows,
    save_flows,
)


def sample_flows(n=20, seed=1):
    gen = FlowGenerator(imc10(), AllToAll(12), 10e9, 0.5, SeededRng(seed))
    flows = gen.generate(n)
    flows[0].tenant = 3
    flows[1].deadline = 0.125
    return flows


def test_round_trip_preserves_everything(tmp_path):
    path = tmp_path / "trace.csv"
    flows = sample_flows()
    assert save_flows(flows, path) == len(flows)
    loaded = load_flows(path, n_hosts=12)
    assert len(loaded) == len(flows)
    for a, b in zip(flows, loaded):
        assert (a.arrival, a.src, a.dst, a.size_bytes, a.tenant, a.deadline) == (
            b.arrival, b.src, b.dst, b.size_bytes, b.tenant, b.deadline,
        )


def test_loaded_flows_sorted_and_renumbered(tmp_path):
    path = tmp_path / "trace.csv"
    flows = [
        Flow(100, 0, 1, 1460, 3e-3),
        Flow(200, 1, 2, 1460, 1e-3),
    ]
    save_flows(flows, path)
    loaded = load_flows(path, first_fid=10)
    assert [f.fid for f in loaded] == [10, 11]
    assert loaded[0].arrival < loaded[1].arrival


def test_minimal_four_column_trace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("arrival,src,dst,size_bytes\n0.001,0,5,14600\n")
    (flow,) = load_flows(path)
    assert (flow.src, flow.dst, flow.size_bytes) == (0, 5, 14600)
    assert flow.tenant == 0 and flow.deadline is None


@pytest.mark.parametrize(
    "body",
    [
        "",                                            # empty file
        "time,who\n",                                  # wrong header
        "arrival,src,dst,size_bytes\nx,0,1,100\n",     # bad number
        "arrival,src,dst,size_bytes\n-1,0,1,100\n",    # negative arrival
        "arrival,src,dst,size_bytes\n0,3,3,100\n",     # self loop
        "arrival,src,dst,size_bytes\n0,0,1,-5\n",      # negative size
    ],
)
def test_malformed_traces_rejected(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(TraceFormatError):
        load_flows(path)
    with pytest.raises(TraceFormatError):
        check_trace(path)


def test_host_range_validation(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("arrival,src,dst,size_bytes\n0,0,99,100\n")
    with pytest.raises(TraceFormatError):
        load_flows(path, n_hosts=12)
    with pytest.raises(TraceFormatError):
        check_trace(path, n_hosts=12)
    assert load_flows(path) != []  # fine without a fabric bound


@pytest.mark.parametrize("suffix", ["csv", "jsonl"])
def test_check_trace_counts_the_flows_load_flows_reads(tmp_path, suffix):
    path = tmp_path / f"trace.{suffix}"
    save_flows(sample_flows(), path)
    assert check_trace(path, n_hosts=12) == len(load_flows(path, n_hosts=12)) == 20


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("arrival,src,dst,size_bytes\n\n0,0,1,100\n\n")
    assert len(load_flows(path)) == 1


def test_replay_through_simulator(tmp_path):
    """End to end: generate -> save -> load -> simulate -> all complete."""
    path = tmp_path / "trace.csv"
    save_flows(sample_flows(30, seed=9), path)
    spec = ExperimentSpec(
        protocol="phost",
        workload="fixed:1",  # ignored by run_flow_list
        n_flows=1,
        topology=TopologyConfig.small(),
        seed=9,
    )
    flows = load_flows(path, n_hosts=12)
    result = run_flow_list(spec, flows)
    assert result.n_completed == len(flows)
    assert result.mean_slowdown() >= 1.0


def test_jsonl_round_trip_preserves_everything(tmp_path):
    path = tmp_path / "trace.jsonl"
    flows = sample_flows()
    flows[2].request_id = 7
    assert save_flows(flows, path) == len(flows)
    loaded = load_flows(path, n_hosts=12)
    for a, b in zip(flows, loaded):
        assert (
            a.arrival, a.src, a.dst, a.size_bytes,
            a.tenant, a.deadline, a.request_id,
        ) == (
            b.arrival, b.src, b.dst, b.size_bytes,
            b.tenant, b.deadline, b.request_id,
        )


def test_csv_round_trip_preserves_job_column(tmp_path):
    path = tmp_path / "trace.csv"
    flows = [Flow(0, 0, 1, 1460, 1e-3, request_id=4), Flow(1, 2, 3, 1460, 2e-3)]
    save_flows(flows, path)
    loaded = load_flows(path)
    assert loaded[0].request_id == 4
    assert loaded[1].request_id is None


def test_explicit_fmt_overrides_suffix(tmp_path):
    path = tmp_path / "trace.dat"
    save_flows(sample_flows(5), path, fmt="jsonl")
    assert path.read_text().lstrip().startswith("{")
    assert len(load_flows(path, fmt="jsonl")) == 5
    with pytest.raises(ValueError):
        save_flows(sample_flows(5), tmp_path / "x.csv", fmt="xml")


def test_iter_flows_streams_in_file_order(tmp_path):
    path = tmp_path / "trace.csv"
    save_flows([Flow(0, 0, 1, 1460, 3e-3), Flow(1, 1, 2, 1460, 1e-3)], path)
    streamed = list(iter_flows(path, first_fid=5))
    # File order, not arrival order; fids numbered from first_fid.
    assert [f.arrival for f in streamed] == [3e-3, 1e-3]
    assert [f.fid for f in streamed] == [5, 6]


def test_sorted_true_preserves_order_and_rejects_non_monotone(tmp_path):
    path = tmp_path / "ok.csv"
    save_flows([Flow(0, 0, 1, 1460, 1e-3), Flow(1, 1, 2, 1460, 2e-3)], path)
    loaded = load_flows(path, sorted=True)
    assert [f.arrival for f in loaded] == [1e-3, 2e-3]

    bad = tmp_path / "bad.csv"
    save_flows([Flow(0, 0, 1, 1460, 3e-3), Flow(1, 1, 2, 1460, 1e-3)], bad)
    with pytest.raises(TraceFormatError, match="not monotone"):
        load_flows(bad, sorted=True)


@pytest.mark.parametrize(
    "body",
    [
        "arrival,src,dst,size_bytes\n0,0,1,0\n",   # zero size
        "arrival,src,dst,size_bytes\n0,0,1,-5\n",  # negative size
    ],
)
def test_non_positive_sizes_rejected(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(TraceFormatError, match="size"):
        load_flows(path)


@pytest.mark.parametrize(
    "body, msg",
    [
        ("", "empty"),                                   # empty jsonl
        ("not json\n", "invalid JSON"),                  # bad json
        ('{"arrival": 0.1, "src": 0}\n', "missing"),     # missing keys
        ('{"arrival": 0.1, "src": 0, "dst": 0, "size_bytes": 10}\n', "src == dst"),
    ],
)
def test_malformed_jsonl_rejected(tmp_path, body, msg):
    path = tmp_path / "bad.jsonl"
    path.write_text(body)
    with pytest.raises(TraceFormatError, match=msg):
        load_flows(path)


def test_replay_is_identical_to_original_run(tmp_path):
    """Simulating a saved trace must reproduce the original FCTs."""
    spec = ExperimentSpec(
        protocol="phost",
        workload="fixed:1",
        n_flows=1,
        topology=TopologyConfig.small(),
        seed=4,
    )
    original = sample_flows(25, seed=4)
    first = run_flow_list(spec, [Flow(f.fid, f.src, f.dst, f.size_bytes, f.arrival) for f in original])
    path = tmp_path / "trace.csv"
    save_flows(original, path)
    second = run_flow_list(spec, load_flows(path, n_hosts=12))
    assert [r.finish for r in first.records] == [r.finish for r in second.records]
