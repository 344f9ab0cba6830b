"""Content-addressed on-disk run ledger (the results store).

Every simulation run is a pure function of its spec, so its outputs can
be cached and compared under a stable key: ``(spec_hash, run_digest)``.
``spec_hash`` fingerprints *what was asked for* (a canonical JSON form
of the :class:`~repro.experiments.spec.ExperimentSpec`, minus fields
that never change behaviour — instruments, observability, label);
``run_digest`` fingerprints *what happened* (the order-independent
:func:`repro.validate.run_digest`).  Two runs with the same key are the
same run; the same spec hash with a different digest is a behavioural
change worth a regression diff.

One :class:`RunLedger` owns a directory tree::

    <root>/runs/<spec_hash:16>/<run_digest:16>/entry.json   # metadata + metrics
                                              series.json  # ColumnarSeries (optional)
                                              audit.json   # AuditReport (optional)
    <root>/figures/<name>.json                              # FigureResult tables

``entry.json`` is strict sorted-keys JSON (NaN encoded as ``null``), so
entries diff cleanly and the round trip is byte-identical — asserted in
``tests/obs/test_store.py``.  Writing to the ledger happens strictly
*after* a run finishes; it can never perturb digests or event counts.
Each file is renamed into place once complete, so a writer killed
mid-``put`` leaves no truncated ``entry.json`` behind and a retried
``put`` of that cell simply stores it.

See ``docs/OBSERVABILITY.md`` (§ "The run ledger") for the schema and
``repro.obs.report`` / ``scripts/report.py`` for the dashboard and
regression-diff consumers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.metrics.timeseries import ColumnarSeries

__all__ = [
    "SCHEMA_VERSION",
    "LedgerCollisionError",
    "LedgerEntry",
    "RunLedger",
    "spec_payload",
    "spec_hash",
    "family_hash",
    "git_revision",
    "series_to_dict",
    "series_from_dict",
    "serialize_series",
    "deserialize_series",
    "result_metrics",
    "run_meta",
    "stamp_result_meta",
]

#: Bumped when entry.json's layout changes incompatibly.
SCHEMA_VERSION = 1

#: Spec fields excluded from the hash: they configure *observation* of a
#: run (or free-form tagging), never its behaviour — so a re-run of a
#: stored cell with other instruments is a hit.
_HASH_EXCLUDED_FIELDS = ("instruments", "observability", "label")

#: Directory names are the first 16 hex chars of each hash; the full
#: hashes live in entry.json.
_KEY_CHARS = 16


class LedgerCollisionError(RuntimeError):
    """Same ``(spec_hash, run_digest)`` key, different stored content."""


def _write_atomic(path: Path, data: Union[str, Iterable[str]]) -> None:
    """Replace ``path`` with ``data`` (text, or text chunks) in one step.

    The bytes go to a sibling temporary first (``<name>.<pid>.tmp``, which
    no reader glob matches) and are renamed over ``path`` only once
    complete, so a process killed mid-write leaves the previous file, or
    none, never a truncated one.  The pid keeps concurrent writers of
    the same key off each other's temporaries.  If the write raises (a
    chunk generator can fail mid-stream), the temporary is removed and
    the error re-raised.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        if isinstance(data, str):
            tmp.write_text(data)
        else:
            with tmp.open("w") as f:
                f.writelines(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ----------------------------------------------------------------------
# Canonical spec serialization and hashing
# ----------------------------------------------------------------------

def _canon(obj: Any) -> Any:
    """A deterministic, JSON-able view of a spec field value.

    Dataclasses recurse field-by-field; callables contribute their
    qualified name only (bound addresses in ``repr`` are not stable
    across processes).  Floats go through ``repr`` — exact shortest
    round-trip decimal, the same convention the run digests use.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, Any] = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = _canon(getattr(obj, f.name))
        return out
    if callable(obj):
        name = getattr(obj, "__qualname__", None) or type(obj).__name__
        return f"<callable {name}>"
    return f"<{type(obj).__name__} {obj!r}>"


def spec_payload(spec: Any, *, exclude: Iterable[str] = _HASH_EXCLUDED_FIELDS) -> Dict[str, Any]:
    """Canonical dict form of an :class:`ExperimentSpec` (hash input)."""
    excluded = set(exclude)
    payload: Dict[str, Any] = {}
    for f in dataclasses.fields(spec):
        if f.name in excluded:
            continue
        payload[f.name] = _canon(getattr(spec, f.name))
    return payload


def _hash_payload(payload: Dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def spec_hash(spec: Any) -> str:
    """Stable sha256 of the behavioural spec fields."""
    return _hash_payload(spec_payload(spec))


def family_hash(spec: Any) -> str:
    """Like :func:`spec_hash` but seed-blind.

    Entries sharing a family are "the same experiment at different
    seeds" — the natural pairing for cross-run regression diffs where
    exact pins (event counts) do not apply but metric drift should stay
    inside seed noise.
    """
    payload = spec_payload(spec)
    payload.pop("seed", None)
    return _hash_payload(payload)


_GIT_REV_CACHE: Dict[str, Optional[str]] = {}


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """Short git revision of ``cwd`` (cached per directory; None if unknown)."""
    key = cwd or os.getcwd()
    if key not in _GIT_REV_CACHE:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=key,
                capture_output=True,
                text=True,
                timeout=5,
            )
            rev = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            rev = None
        _GIT_REV_CACHE[key] = rev or None
    return _GIT_REV_CACHE[key]


# ----------------------------------------------------------------------
# ColumnarSeries persistence (byte-identical round trip)
# ----------------------------------------------------------------------

def series_to_dict(series: ColumnarSeries) -> Dict[str, Any]:
    """Strict-JSON dict form: NaN cells become ``null``."""
    return {
        "schema": "columnar-series/v1",
        "times": list(series.times),
        "columns": {
            name: [None if math.isnan(v) else v for v in col]
            for name, col in series.columns.items()
        },
    }


def series_from_dict(doc: Dict[str, Any]) -> ColumnarSeries:
    if doc.get("schema") != "columnar-series/v1":
        raise ValueError(f"not a columnar-series document: {doc.get('schema')!r}")
    series = ColumnarSeries()
    series.times = [float(t) for t in doc["times"]]
    n = len(series.times)
    for name, col in doc["columns"].items():
        if len(col) != n:
            raise ValueError(
                f"column {name!r} has {len(col)} cells for {n} rows"
            )
        series.columns[name] = [math.nan if v is None else float(v) for v in col]
    return series


def _compact(value: Any) -> str:
    return json.dumps(value, separators=(",", ":"))


def _series_chunks(series: ColumnarSeries) -> Iterator[str]:
    """The canonical text of ``series``, one column at a time.

    Joined, the chunks are exactly ``json.dumps(series_to_dict(series),
    sort_keys=True, separators=(",", ":"))``, but only one column's
    temporaries are alive at once.
    """
    yield '{"columns":{'
    columns = series.columns
    for i, name in enumerate(sorted(columns)):
        cells = [None if math.isnan(v) else v for v in columns[name]]
        yield ("," if i else "") + _compact(name) + ":" + _compact(cells)
    yield '},"schema":"columnar-series/v1","times":'
    yield _compact(series.times)
    yield "}"


def serialize_series(series: ColumnarSeries) -> str:
    """Canonical JSON text (sorted keys) — the stored byte form."""
    return "".join(_series_chunks(series))


def deserialize_series(text: str) -> ColumnarSeries:
    return series_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Result metadata and metrics extraction
# ----------------------------------------------------------------------

def _jsonable(value: Any) -> Any:
    """NaN/inf → None so every stored number is strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def run_meta(
    spec: Any,
    *,
    packet_pool: bool,
    run_digest: Optional[str] = None,
    wall_seconds: Optional[float] = None,
    duration: Optional[float] = None,
    events_processed: Optional[int] = None,
) -> Dict[str, Any]:
    """Self-describing metadata block for one run of ``spec``.

    ``packet_pool`` records whether the run recycled packets (False when
    a hook retained them).
    """
    meta: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "spec_hash": spec_hash(spec),
        "family_hash": family_hash(spec),
        "protocol": spec.protocol,
        "workload": spec.workload,
        "load": spec.load,
        "seed": spec.seed,
        "label": spec.label,
        "packet_pool": packet_pool,
        "git_revision": git_revision(),
        "created_unix": time.time(),
    }
    if run_digest is not None:
        meta["run_digest"] = run_digest
    if wall_seconds is not None:
        meta["wall_seconds"] = wall_seconds
    if duration is not None:
        meta["duration"] = duration
    if events_processed is not None:
        meta["events_processed"] = events_processed
    return meta


def stamp_result_meta(result: Any) -> Dict[str, Any]:
    """Stamp ``result.telemetry`` (an ObsReport) with run metadata.

    Called by the runner after the result is assembled, so the stored
    series is self-describing even before it reaches a ledger.  Returns
    the metadata dict (and is a no-op on results without telemetry).
    """
    meta = run_meta(
        result.spec,
        wall_seconds=result.wall_seconds,
        duration=result.duration,
        events_processed=result.events_processed,
        packet_pool=result.packet_pool,
    )
    if result.telemetry is not None:
        result.telemetry.meta = meta
    return meta


def result_metrics(result: Any) -> Dict[str, Any]:
    """The comparable per-run metric set stored in ``entry.json``."""
    metrics: Dict[str, Any] = {
        "mean_slowdown": result.mean_slowdown(),
        "p99_slowdown": result.tail_slowdown(99),
        "nfct": result.nfct(),
        "n_flows": result.n_flows,
        "n_completed": result.n_completed,
        "completion_rate": result.completion_rate,
        "goodput_gbps_per_host": result.goodput_gbps_per_host,
        "payload_bytes_delivered": result.payload_bytes_delivered,
        "data_pkts_injected": result.data_pkts_injected,
        "retransmissions": result.data_pkts_retransmitted,
        "control_pkts_sent": result.control_pkts_sent,
        "control_bytes_sent": result.control_bytes_sent,
        "drop_rate": result.drops.drop_rate,
        "drops_total": result.drops.total_drops,
        "drops_by_hop": {str(k): v for k, v in sorted(result.drops.by_hop.items())},
        "fault_drops": result.fault_drops,
        "duration": result.duration,
        "wall_seconds": result.wall_seconds,
        "events_processed": result.events_processed,
    }
    jobs = result.job_records()
    if jobs:
        metrics["jobs"] = {
            "n_jobs": len(jobs),
            "completion_rate": result.job_completion_rate(),
            "mean_jct": result.mean_jct(),
        }
    return _jsonable(metrics)


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------

class LedgerEntry:
    """One stored run: key, directory, loaded ``entry.json`` document."""

    def __init__(self, path: Path, doc: Dict[str, Any]) -> None:
        self.path = Path(path)
        self.doc = doc

    # -- identity ------------------------------------------------------
    @property
    def meta(self) -> Dict[str, Any]:
        return self.doc.get("meta", {})

    @property
    def spec_hash(self) -> str:
        return self.meta["spec_hash"]

    @property
    def family_hash(self) -> str:
        return self.meta.get("family_hash", self.spec_hash)

    @property
    def run_digest(self) -> str:
        return self.meta["run_digest"]

    @property
    def key(self) -> str:
        return f"{self.spec_hash[:_KEY_CHARS]}/{self.run_digest[:_KEY_CHARS]}"

    # -- content -------------------------------------------------------
    @property
    def spec(self) -> Dict[str, Any]:
        return self.doc.get("spec", {})

    @property
    def metrics(self) -> Dict[str, Any]:
        return self.doc.get("metrics", {})

    @property
    def audit(self) -> Optional[Dict[str, Any]]:
        return self.doc.get("audit")

    @property
    def artifacts(self) -> List[str]:
        return list(self.doc.get("artifacts", []))

    @property
    def series_path(self) -> Path:
        return self.path / "series.json"

    @property
    def has_series(self) -> bool:
        return self.series_path.exists()

    def load_series(self) -> Optional[ColumnarSeries]:
        if not self.has_series:
            return None
        return deserialize_series(self.series_path.read_text())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        m = self.meta
        return (
            f"LedgerEntry({self.key} {m.get('protocol')}/{m.get('workload')}"
            f" seed={m.get('seed')})"
        )


class RunLedger:
    """Content-addressed store of run results under one root directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    # -- layout --------------------------------------------------------
    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    @property
    def figures_dir(self) -> Path:
        return self.root / "figures"

    def entry_dir(self, spec_hash_: str, run_digest_: str) -> Path:
        return self.runs_dir / spec_hash_[:_KEY_CHARS] / run_digest_[:_KEY_CHARS]

    # -- writing runs --------------------------------------------------
    def put(
        self,
        result: Any,
        *,
        digest: Optional[str] = None,
        artifacts: Iterable[str] = (),
    ) -> LedgerEntry:
        """Persist one :class:`ExperimentResult`; idempotent per key.

        An existing entry under the same key must carry the identical
        spec payload — anything else is a :class:`LedgerCollisionError`
        (the key is content-addressed; mismatched content under one key
        means a hashing bug or a corrupted store, never something to
        silently overwrite).
        """
        if digest is None:
            from repro.validate import run_digest as compute_digest

            digest = compute_digest(result)
        spec = result.spec
        sh = spec_hash(spec)
        payload = spec_payload(spec)
        entry_dir = self.entry_dir(sh, digest)
        entry_path = entry_dir / "entry.json"

        artifact_list = [str(a) for a in artifacts]
        telemetry = result.telemetry
        telemetry_doc: Optional[Dict[str, Any]] = None
        if telemetry is not None:
            telemetry_doc = {
                "samples_taken": telemetry.samples_taken,
                "n_instruments": telemetry.n_instruments,
                "chrome_trace_path": telemetry.chrome_trace_path,
                "chrome_trace_events": telemetry.chrome_trace_events,
                "written": list(telemetry.written),
            }
            if telemetry.chrome_trace_path:
                artifact_list.append(telemetry.chrome_trace_path)
            artifact_list.extend(telemetry.written)

        doc: Dict[str, Any] = {
            "schema": f"run-ledger-entry/v{SCHEMA_VERSION}",
            "meta": _jsonable(
                run_meta(
                    spec,
                    run_digest=digest,
                    wall_seconds=result.wall_seconds,
                    duration=result.duration,
                    events_processed=result.events_processed,
                    packet_pool=result.packet_pool,
                )
            ),
            "spec": payload,
            "metrics": result_metrics(result),
            "artifacts": sorted(set(artifact_list)),
        }
        if result.audit is not None:
            doc["audit"] = _jsonable(result.audit.to_dict())
        if telemetry_doc is not None:
            doc["telemetry"] = telemetry_doc

        if entry_path.exists():
            existing = json.loads(entry_path.read_text())
            ex_meta = existing.get("meta", {})
            if (
                existing.get("spec") != payload
                or ex_meta.get("spec_hash") != sh
                or ex_meta.get("run_digest") != digest
            ):
                raise LedgerCollisionError(
                    f"ledger key {sh[:_KEY_CHARS]}/{digest[:_KEY_CHARS]} already "
                    f"holds a different spec — content-addressing violated "
                    f"(stored spec_hash={ex_meta.get('spec_hash', '?')[:_KEY_CHARS]})"
                )
            return LedgerEntry(entry_dir, existing)

        entry_dir.mkdir(parents=True, exist_ok=True)
        if telemetry is not None and telemetry.series is not None:
            _write_atomic(entry_dir / "series.json", _series_chunks(telemetry.series))
        if result.audit is not None:
            _write_atomic(
                entry_dir / "audit.json",
                json.dumps(_jsonable(result.audit.to_dict()), indent=2, sort_keys=True)
                + "\n",
            )
        # entry.json goes last: its presence is what marks the entry stored.
        _write_atomic(entry_path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return LedgerEntry(entry_dir, doc)

    # -- reading runs --------------------------------------------------
    def entries(self) -> List[LedgerEntry]:
        """All stored runs, oldest first (by created timestamp)."""
        out: List[LedgerEntry] = []
        if not self.runs_dir.is_dir():
            return out
        for entry_path in sorted(self.runs_dir.glob("*/*/entry.json")):
            out.append(LedgerEntry(entry_path.parent, json.loads(entry_path.read_text())))
        out.sort(key=lambda e: (e.meta.get("created_unix", 0.0), e.key))
        return out

    def get(self, key: str) -> LedgerEntry:
        """Resolve ``<spec_hash_prefix>/<digest_prefix>`` to an entry."""
        try:
            spec_part, digest_part = key.split("/", 1)
        except ValueError:
            raise KeyError(
                f"ledger key must look like <spec_hash>/<run_digest>, got {key!r}"
            ) from None
        matches = [
            e
            for e in self.entries()
            if e.spec_hash.startswith(spec_part) and e.run_digest.startswith(digest_part)
        ]
        if not matches:
            raise KeyError(f"no ledger entry matching {key!r} under {self.root}")
        if len(matches) > 1:
            raise KeyError(f"ambiguous ledger key {key!r}: {len(matches)} matches")
        return matches[0]

    def families(self) -> Dict[str, List[LedgerEntry]]:
        """Entries grouped by seed-blind family hash (oldest first)."""
        out: Dict[str, List[LedgerEntry]] = {}
        for entry in self.entries():
            out.setdefault(entry.family_hash, []).append(entry)
        return out

    # -- figure tables -------------------------------------------------
    def put_figure(self, figure: Any) -> Path:
        """Persist a :class:`FigureResult` table under ``figures/``."""
        self.figures_dir.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema": "figure-table/v1",
            "figure": figure.figure,
            "title": figure.title,
            "columns": list(figure.columns),
            "rows": _jsonable([dict(r) for r in figure.rows]),
            "notes": list(figure.notes),
            "git_revision": git_revision(),
            "created_unix": time.time(),
        }
        safe = figure.figure.replace("/", "_").replace(":", "_")
        path = self.figures_dir / f"{safe}.json"
        _write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return path

    def figures(self) -> Dict[str, Dict[str, Any]]:
        """Stored figure tables keyed by figure name, sorted."""
        if not self.figures_dir.is_dir():
            return {}
        out: Dict[str, Dict[str, Any]] = {}
        for path in sorted(self.figures_dir.glob("*.json")):
            doc = json.loads(path.read_text())
            out[doc.get("figure", path.stem)] = doc
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RunLedger({str(self.root)!r}, {len(self.entries())} entries)"
