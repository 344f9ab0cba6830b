"""Chrome trace_event export tests."""

from __future__ import annotations

import json

import pytest

from repro.experiments.defaults import SCALES, make_spec
from repro.experiments.runner import run_experiment
from repro.faults import parse_fault_plan
from repro.obs import ObservabilityConfig, validate_chrome_trace
from repro.validate import standard_auditors


def run_with_trace(tmp_path):
    trace_path = str(tmp_path / "trace.json")
    spec = make_spec("phost", "websearch", "tiny", seed=42).variant(
        observability=ObservabilityConfig(sample_period=None, chrome_trace=trace_path)
    )
    result = run_experiment(spec)
    return result, trace_path


def test_trace_file_is_valid_trace_event_json(tmp_path):
    result, trace_path = run_with_trace(tmp_path)
    events = validate_chrome_trace(trace_path)  # raises on schema problems
    assert events
    assert result.telemetry.chrome_trace_path == trace_path
    assert result.telemetry.chrome_trace_events == len(events)


def test_flow_spans_cover_completed_flows(tmp_path):
    result, trace_path = run_with_trace(tmp_path)
    events = validate_chrome_trace(trace_path)
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == result.n_flows  # finished + force-closed
    finished = [e for e in spans if e["args"]["finished"]]
    assert len(finished) == result.n_completed
    for span in spans:
        assert span["dur"] >= 0.0
        assert span["tid"] == span["args"]["src"]
        # ts is microseconds: a sub-second run stays under 1e6.
        assert 0.0 <= span["ts"] < 1e6


def test_rts_instants_present_for_phost(tmp_path):
    _, trace_path = run_with_trace(tmp_path)
    events = validate_chrome_trace(trace_path)
    instants = [e for e in events if e["ph"] == "i"]
    assert any(e["name"] == "rts" for e in instants)
    for e in instants:
        assert e["s"] == "t"


def test_metadata_names_processes(tmp_path):
    _, trace_path = run_with_trace(tmp_path)
    events = validate_chrome_trace(trace_path)
    meta = [e for e in events if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
    assert names == {"flows", "fabric"}


def test_injected_fault_drops_are_traced(tmp_path):
    # A lossy, audited pFabric run: the sink and the auditors share
    # both drop lists, and every drop of either kind is one instant.
    trace_path = str(tmp_path / "trace.json")
    spec = make_spec("pfabric", "websearch", "tiny", seed=42).variant(
        instruments=standard_auditors(),
        faults=parse_fault_plan("loss=0.01", seed=7),
        observability=ObservabilityConfig(sample_period=None, chrome_trace=trace_path),
    )
    result = run_experiment(spec)
    assert result.audit.ok
    assert result.fault_drops > 0 and result.drops.total_drops > 0
    instants = [e for e in validate_chrome_trace(trace_path) if e["ph"] == "i"]
    drops = [e for e in instants if e["name"].startswith("drop hop")]
    fault_drops = [e for e in instants if e["name"].startswith("fault drop hop")]
    assert len(drops) == result.drops.total_drops
    assert len(fault_drops) == result.fault_drops
    for e in fault_drops:
        assert e["name"] == f"fault drop hop{e['args']['hop']}"


def test_validator_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    with pytest.raises(ValueError, match="not valid JSON"):
        validate_chrome_trace(str(bad))

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"traceEvents": [{"ph": "X", "ts": 0}]}))
    with pytest.raises(ValueError, match="missing required 'pid'"):
        validate_chrome_trace(str(missing))

    top = tmp_path / "top.json"
    top.write_text(json.dumps(42))
    with pytest.raises(ValueError, match="top level"):
        validate_chrome_trace(str(top))


def test_bare_array_form_accepted(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps([{"ph": "i", "ts": 1, "pid": 2}]))
    assert len(validate_chrome_trace(str(path))) == 1
