"""The content-addressed run ledger (repro.obs.store).

Pins the persistence contracts the dashboard depends on:

* ColumnarSeries round-trips byte-identically (NaN included), and the
  streamed series.json text is the one-shot ``json.dumps`` form;
* spec hashing is stable, observation-blind, and seed-sensitive —
  while the family hash is seed-blind;
* the ledger is idempotent per ``(spec_hash, run_digest)`` key and
  refuses to overwrite mismatched content under one key;
* a write killed halfway leaves no truncated file for readers to trip on,
  and a write that raises leaves no temporary behind;
* results are stamped with self-describing run metadata.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.metrics.timeseries import ColumnarSeries
from repro.net.topology import TopologyConfig
from repro.obs import ObservabilityConfig
from repro.obs.store import (
    LedgerCollisionError,
    RunLedger,
    deserialize_series,
    family_hash,
    result_metrics,
    _series_chunks,
    _write_atomic,
    serialize_series,
    series_to_dict,
    spec_hash,
)
from repro.validate import run_digest
from tests.net.models import RetainsPackets


def _tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(
        protocol="phost",
        workload="fixed:20000",
        n_flows=8,
        topology=TopologyConfig.small(),
        seed=42,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def observed_result():
    return run_experiment(
        _tiny_spec(observability=ObservabilityConfig(sample_period=50e-6))
    )


# ----------------------------------------------------------------------
# ColumnarSeries persistence
# ----------------------------------------------------------------------

def test_series_round_trip_byte_identical():
    series = ColumnarSeries()
    series.append(0.0, {"a": 1.0})
    series.append(1e-4, {"a": 2.5, "b": 0.125})  # 'a' backfilled with NaN
    series.append(2e-4, {"b": 7.0})
    blob = serialize_series(series)
    again = serialize_series(deserialize_series(blob))
    assert again == blob


def test_series_round_trip_preserves_nan_cells():
    series = ColumnarSeries()
    series.append(0.0, {"x": 1.0})
    series.append(1.0, {"y": 2.0})
    loaded = deserialize_series(serialize_series(series))
    assert math.isnan(loaded.columns["y"][0])
    assert math.isnan(loaded.columns["x"][1])
    assert loaded.times == series.times
    assert loaded.names() == series.names()


def test_series_round_trip_of_real_run(observed_result):
    series = observed_result.telemetry.series
    blob = serialize_series(series)
    assert serialize_series(deserialize_series(blob)) == blob


_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(math.nan),
)


@st.composite
def _series(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    series = ColumnarSeries()
    series.times = draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n))
    names = draw(st.lists(st.text(max_size=6), max_size=5, unique=True))
    for name in names:
        series.columns[name] = draw(st.lists(_cells, min_size=n, max_size=n))
    return series


@given(_series())
def test_streamed_series_is_the_json_dumps_form(series):
    expected = json.dumps(series_to_dict(series), sort_keys=True, separators=(",", ":"))
    assert serialize_series(series) == expected


def test_streamed_series_escapes_names_and_nulls_nan(tmp_path):
    series = ColumnarSeries()
    series.append(0.0, {'q"uote\\': 1.0, "tab\tn\u00e9": math.nan})
    series.append(1e-6, {"ctl\x01": 2.5})
    path = tmp_path / "series.json"
    _write_atomic(path, _series_chunks(series))
    expected = json.dumps(series_to_dict(series), sort_keys=True, separators=(",", ":"))
    assert path.read_text() == expected
    assert "null" in expected and "NaN" not in expected


def test_series_deserialize_rejects_ragged_columns():
    with pytest.raises(ValueError, match="cells"):
        deserialize_series(
            json.dumps(
                {
                    "schema": "columnar-series/v1",
                    "times": [0.0, 1.0],
                    "columns": {"a": [1.0]},
                }
            )
        )


# ----------------------------------------------------------------------
# Spec hashing
# ----------------------------------------------------------------------

def test_spec_hash_stable_and_seed_sensitive():
    assert spec_hash(_tiny_spec()) == spec_hash(_tiny_spec())
    assert spec_hash(_tiny_spec()) != spec_hash(_tiny_spec(seed=43))
    assert spec_hash(_tiny_spec()) != spec_hash(_tiny_spec(load=0.7))


def test_spec_hash_blind_to_observation_and_label(tmp_path):
    bare = _tiny_spec(stability_samples=0)
    observed = bare.variant(
        observability=ObservabilityConfig(sample_period=50e-6), label="x"
    )
    assert spec_hash(bare) == spec_hash(observed)
    assert family_hash(bare) == family_hash(observed)

    # A re-run of a stored cell under another label is an idempotent
    # re-put.
    ledger = RunLedger(tmp_path / "ledger")
    default = ledger.put(run_experiment(bare))
    relabelled = ledger.put(run_experiment(bare.variant(label="x")))
    assert relabelled.key == default.key
    assert len(ledger.entries()) == 1


def test_entry_records_whether_the_pool_ran(tmp_path):
    """A packet-retaining hook turns pooling off.  The spec cannot show
    that; ``meta.packet_pool`` does, without moving the ledger key."""
    bare = _tiny_spec()
    kept = bare.variant(instruments=(RetainsPackets(),))
    bare_entry = RunLedger(tmp_path / "bare").put(run_experiment(bare))
    kept_entry = RunLedger(tmp_path / "kept").put(run_experiment(kept))
    assert bare_entry.meta["packet_pool"] is True
    assert kept_entry.meta["packet_pool"] is False
    for entry in (bare_entry, kept_entry):
        assert "tuning" not in entry.meta and "tuning_effective" not in entry.meta
    assert kept_entry.spec_hash == bare_entry.spec_hash
    assert kept_entry.key == bare_entry.key


@pytest.mark.parametrize("overrides, meterless", [
    ({}, True),
    ({"protocol": "pfabric"}, True),
    ({"protocol": "dctcp"}, False),
    ({"dataplane": "dctcp"}, False),
])
def test_entry_records_the_dataplane_that_ran(tmp_path, overrides, meterless):
    """Every port runs the ProgramQueue engine: the entry's meta names
    no queue form and no tuning, and its stored series has the six
    ``dataplane.*`` stage totals on every run but per-port
    ``dataplane.marked`` columns only when the program has a meter stage
    (DCTCP's ECN), the only one that marks."""
    result = run_experiment(
        _tiny_spec(observability=ObservabilityConfig(sample_period=50e-6), **overrides)
    )
    entry = RunLedger(tmp_path / "ledger").put(result)
    assert entry.meta["packet_pool"] is True
    assert "tuning" not in entry.meta and "tuning_effective" not in entry.meta
    names = entry.load_series().names()
    for stage in ("classified", "marked", "admitted", "dropped_incoming", "evicted", "scheduled"):
        assert f"dataplane.{stage}" in names
    per_port = [n for n in names if n.startswith("dataplane.marked{")]
    assert (not per_port) is meterless


def test_family_hash_is_seed_blind():
    assert family_hash(_tiny_spec()) == family_hash(_tiny_spec(seed=43))
    assert family_hash(_tiny_spec()) != family_hash(_tiny_spec(load=0.7))


# ----------------------------------------------------------------------
# Run metadata stamping (the runner does this for every telemetry run)
# ----------------------------------------------------------------------

def test_runner_stamps_obsreport_meta(observed_result):
    meta = observed_result.telemetry.meta
    assert meta is not None
    assert meta["spec_hash"] == spec_hash(observed_result.spec)
    assert meta["seed"] == 42
    assert meta["protocol"] == "phost"
    assert meta["events_processed"] == observed_result.events_processed
    assert meta["wall_seconds"] == observed_result.wall_seconds
    assert meta["packet_pool"] is True
    assert "git_revision" in meta


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------

def test_ledger_put_and_entry_content(tmp_path, observed_result):
    ledger = RunLedger(tmp_path / "ledger")
    entry = ledger.put(observed_result)
    assert entry.spec_hash == spec_hash(observed_result.spec)
    assert entry.run_digest == run_digest(observed_result)
    assert entry.metrics["n_flows"] == observed_result.n_flows
    assert entry.metrics["events_processed"] == observed_result.events_processed
    assert entry.has_series
    assert serialize_series(entry.load_series()) == serialize_series(
        observed_result.telemetry.series
    )
    assert ledger.get(entry.key).key == entry.key


def test_ledger_same_run_same_key_idempotent(tmp_path, observed_result):
    ledger = RunLedger(tmp_path / "ledger")
    first = ledger.put(observed_result)
    entry_bytes = (first.path / "entry.json").read_bytes()
    second = ledger.put(observed_result)
    assert second.key == first.key
    assert (second.path / "entry.json").read_bytes() == entry_bytes
    assert len(ledger.entries()) == 1


def test_ledger_detects_content_collision(tmp_path, observed_result):
    ledger = RunLedger(tmp_path / "ledger")
    entry = ledger.put(observed_result)
    # Corrupt the stored spec under the same key: content-addressing is
    # violated, so a re-put must refuse rather than silently overwrite.
    doc = json.loads((entry.path / "entry.json").read_text())
    doc["spec"]["seed"] = 999
    (entry.path / "entry.json").write_text(json.dumps(doc))
    with pytest.raises(LedgerCollisionError):
        ledger.put(observed_result)


def test_ledger_families_group_across_seeds(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    for seed in (42, 43):
        ledger.put(
            run_experiment(
                _tiny_spec(
                    seed=seed,
                    observability=ObservabilityConfig(sample_period=50e-6),
                )
            )
        )
    families = ledger.families()
    assert len(families) == 1
    members = next(iter(families.values()))
    assert {m.meta["seed"] for m in members} == {42, 43}
    assert len({m.spec_hash for m in members}) == 2


def test_ledger_put_killed_mid_write_leaves_no_torn_entry(
    tmp_path, monkeypatch, observed_result
):
    ledger = RunLedger(tmp_path / "ledger")
    kept = ledger.put(observed_result)
    result = run_experiment(_tiny_spec(seed=43))
    entry_path = ledger.entry_dir(spec_hash(result.spec), run_digest(result)) / "entry.json"

    real_write = Path.write_text

    def torn_write(self, text, *args, **kwargs):
        # Stop every entry.json write halfway and raise, the way a
        # writer killed mid-put would.
        if self.name.startswith("entry.json"):
            real_write(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("writer killed mid-write")
        return real_write(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", torn_write)
    with pytest.raises(OSError, match="killed"):
        ledger.put(result)
    monkeypatch.undo()

    # No half-written entry.json: readers still see exactly the old store.
    assert not entry_path.exists()
    assert [e.key for e in ledger.entries()] == [kept.key]
    assert len(ledger.families()) == 1
    # A retried put heals the cell instead of tripping over the debris.
    retried = ledger.put(result)
    assert json.loads(entry_path.read_text()) == retried.doc
    assert {e.key for e in ledger.entries()} == {kept.key, retried.key}


def test_result_metrics_are_strict_json(observed_result):
    metrics = result_metrics(observed_result)
    # json.dumps with allow_nan=False rejects NaN/inf — the store's
    # contract is that every stored number is strict JSON.
    json.dumps(metrics, allow_nan=False)
    assert metrics["completion_rate"] == 1.0


class _Boom(RuntimeError):
    pass


def _failing_chunks():
    yield '{"columns":'
    raise _Boom("chunk generator failed mid-stream")


def _torn_text(monkeypatch):
    real_write = Path.write_text

    def torn(self, text, *args, **kwargs):
        real_write(self, text[: len(text) // 2], *args, **kwargs)
        raise _Boom("writer failed mid-write")

    monkeypatch.setattr(Path, "write_text", torn)
    return '{"new": true}'


@pytest.mark.parametrize("make_data", [lambda mp: _failing_chunks(), _torn_text])
def test_failed_write_leaves_no_temporary(tmp_path, monkeypatch, make_data):
    path = tmp_path / "series.json"
    path.write_text("old")
    data = make_data(monkeypatch)
    with pytest.raises(_Boom):
        _write_atomic(path, data)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["series.json"]
    assert path.read_text() == "old"
