"""Flow-trace import/export (CSV and JSONL).

The paper's workloads come from production traces we cannot ship; this
module lets downstream users run the simulator on their *own* traces.
Two formats round-trip exactly:

**CSV** — a header row then one flow per line::

    arrival,src,dst,size_bytes[,tenant[,deadline[,job]]]

**JSONL** — one JSON object per line with the same fields
(``arrival``, ``src``, ``dst``, ``size_bytes`` required; ``tenant``,
``deadline``, ``job`` optional)::

    {"arrival": 0.0013, "src": 4, "dst": 9, "size_bytes": 21460, "job": 2}

Field semantics:

* ``arrival`` — seconds (float), >= 0;
* ``src``/``dst`` — distinct host indices in the simulated fabric;
* ``size_bytes`` — positive payload size;
* ``tenant`` — optional integer tenant id (default 0);
* ``deadline`` — optional absolute deadline in seconds;
* ``job`` — optional integer job id (becomes ``Flow.request_id``,
  grouping the flow into a coflow for job-completion metrics).

The format is chosen from the file suffix (``.jsonl``/``.ndjson`` →
JSONL, anything else CSV) unless forced with ``fmt=``.  Malformed rows
— negative arrival, non-positive size, self-loop, host outside the
fabric, arrivals that go backwards when the file claims ``sorted=True``
— raise :class:`TraceFormatError` naming the offending line; a trace
that parses is guaranteed to be a runnable schedule.

``save_flows``/``load_flows`` round-trip exactly (arrivals written with
``repr`` so floats survive), ``iter_flows`` streams records without
materialising the list, and ``check_trace`` validates a file without
building any flows.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.net.packet import Flow

__all__ = ["save_flows", "load_flows", "iter_flows", "check_trace", "TraceFormatError"]

_HEADER = ["arrival", "src", "dst", "size_bytes", "tenant", "deadline", "job"]
_JSONL_SUFFIXES = {".jsonl", ".ndjson"}


class TraceFormatError(ValueError):
    """Raised when a trace file cannot be parsed."""


def _format_for(path: Path, fmt: Optional[str]) -> str:
    if fmt is not None:
        if fmt not in ("csv", "jsonl"):
            raise ValueError(f"fmt must be 'csv' or 'jsonl', got {fmt!r}")
        return fmt
    return "jsonl" if path.suffix.lower() in _JSONL_SUFFIXES else "csv"


def save_flows(
    flows: Iterable[Flow],
    path: Union[str, Path],
    fmt: Optional[str] = None,
) -> int:
    """Write flows as CSV or JSONL; returns the number of rows written.

    Format follows the file suffix (``.jsonl``/``.ndjson`` → JSONL)
    unless ``fmt`` forces one.
    """
    path = Path(path)
    if _format_for(path, fmt) == "jsonl":
        return _save_jsonl(flows, path)
    count = 0
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for flow in flows:
            writer.writerow(
                [
                    repr(flow.arrival),
                    flow.src,
                    flow.dst,
                    flow.size_bytes,
                    flow.tenant,
                    "" if flow.deadline is None else repr(flow.deadline),
                    "" if flow.request_id is None else flow.request_id,
                ]
            )
            count += 1
    return count


def _save_jsonl(flows: Iterable[Flow], path: Path) -> int:
    count = 0
    with path.open("w") as fh:
        for flow in flows:
            rec = {
                "arrival": flow.arrival,
                "src": flow.src,
                "dst": flow.dst,
                "size_bytes": flow.size_bytes,
            }
            if flow.tenant:
                rec["tenant"] = flow.tenant
            if flow.deadline is not None:
                rec["deadline"] = flow.deadline
            if flow.request_id is not None:
                rec["job"] = flow.request_id
            fh.write(json.dumps(rec) + "\n")
            count += 1
    return count


# ----------------------------------------------------------------------
# Loading

# (arrival, src, dst, size, tenant, deadline, job)
_Row = Tuple[float, int, int, int, int, Optional[float], Optional[int]]


def _check_row(
    path: Path,
    lineno: int,
    arrival: float,
    src: int,
    dst: int,
    size: int,
    n_hosts: Optional[int],
) -> None:
    if arrival < 0:
        raise TraceFormatError(f"{path}:{lineno}: negative arrival {arrival}")
    if size < 1:
        raise TraceFormatError(
            f"{path}:{lineno}: non-positive size {size} (a flow must carry "
            "at least one byte)"
        )
    if src == dst:
        raise TraceFormatError(f"{path}:{lineno}: src == dst == {src}")
    if n_hosts is not None and not (0 <= src < n_hosts and 0 <= dst < n_hosts):
        raise TraceFormatError(
            f"{path}:{lineno}: host pair ({src}, {dst}) out of range for "
            f"{n_hosts}-host fabric"
        )


def _iter_csv_rows(path: Path, n_hosts: Optional[int]) -> Iterator[_Row]:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError(f"{path}: empty trace file") from None
        header = [h.strip().lower() for h in header]
        if header[:4] != _HEADER[:4]:
            raise TraceFormatError(
                f"{path}: header must start with {_HEADER[:4]}, got {header[:4]}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                arrival = float(row[0])
                src = int(row[1])
                dst = int(row[2])
                size = int(row[3])
                tenant = int(row[4]) if len(row) > 4 and row[4].strip() else 0
                deadline = (
                    float(row[5]) if len(row) > 5 and row[5].strip() else None
                )
                job = int(row[6]) if len(row) > 6 and row[6].strip() else None
            except (ValueError, IndexError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: bad row {row!r}") from exc
            _check_row(path, lineno, arrival, src, dst, size, n_hosts)
            yield (arrival, src, dst, size, tenant, deadline, job)


def _iter_jsonl_rows(path: Path, n_hosts: Optional[int]) -> Iterator[_Row]:
    saw_record = False
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(
                    f"{path}:{lineno}: invalid JSON: {exc.msg}"
                ) from None
            if not isinstance(rec, dict):
                raise TraceFormatError(
                    f"{path}:{lineno}: expected a JSON object, got "
                    f"{type(rec).__name__}"
                )
            missing = [
                k for k in ("arrival", "src", "dst", "size_bytes") if k not in rec
            ]
            if missing:
                raise TraceFormatError(
                    f"{path}:{lineno}: missing required fields {missing}"
                )
            try:
                arrival = float(rec["arrival"])
                src = int(rec["src"])
                dst = int(rec["dst"])
                size = int(rec["size_bytes"])
                tenant = int(rec.get("tenant", 0))
                deadline = (
                    float(rec["deadline"]) if rec.get("deadline") is not None else None
                )
                job = int(rec["job"]) if rec.get("job") is not None else None
            except (TypeError, ValueError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: bad record: {exc}") from None
            _check_row(path, lineno, arrival, src, dst, size, n_hosts)
            saw_record = True
            yield (arrival, src, dst, size, tenant, deadline, job)
    if not saw_record:
        raise TraceFormatError(f"{path}: empty trace file")


def _iter_rows(path: Path, n_hosts: Optional[int], fmt: Optional[str]) -> Iterator[_Row]:
    if _format_for(path, fmt) == "jsonl":
        return _iter_jsonl_rows(path, n_hosts)
    return _iter_csv_rows(path, n_hosts)


def check_trace(
    path: Union[str, Path],
    n_hosts: Optional[int] = None,
    fmt: Optional[str] = None,
) -> int:
    """Validate every row of a trace as :func:`load_flows` does, without
    building flows; returns the number of flows.  Raises
    :class:`TraceFormatError` on the first bad row."""
    return sum(1 for _ in _iter_rows(Path(path), n_hosts, fmt))


def iter_flows(
    path: Union[str, Path],
    n_hosts: Optional[int] = None,
    first_fid: int = 0,
    fmt: Optional[str] = None,
) -> Iterator[Flow]:
    """Stream flows from a trace in file order, validating each row.

    Unlike :func:`load_flows` this neither sorts nor buffers — ids are
    assigned in file order — so arbitrarily large traces can be scanned
    in constant memory.
    """
    rows = _iter_rows(Path(path), n_hosts, fmt)
    for i, (arrival, src, dst, size, tenant, deadline, job) in enumerate(rows):
        yield Flow(
            first_fid + i,
            src,
            dst,
            size,
            arrival,
            tenant=tenant,
            deadline=deadline,
            request_id=job,
        )


def load_flows(
    path: Union[str, Path],
    n_hosts: Optional[int] = None,
    first_fid: int = 0,
    fmt: Optional[str] = None,
    sorted: bool = False,
) -> List[Flow]:
    """Read flows from a trace file, validating against the fabric size.

    With ``sorted=False`` (default) rows may arrive in any order: flows
    are sorted by arrival time (stable, so equal arrivals keep file
    order) and renumbered sequentially from ``first_fid``.  With
    ``sorted=True`` the file *claims* to already be in arrival order —
    a row whose arrival precedes its predecessor's is an error, and
    file order is preserved exactly.
    """
    path = Path(path)
    rows_iter = _iter_rows(path, n_hosts, fmt)
    rows: List[_Row] = []
    if sorted:
        prev = None
        for lineno_ish, row in enumerate(rows_iter):
            if prev is not None and row[0] < prev:
                raise TraceFormatError(
                    f"{path}: arrivals are not monotone (record "
                    f"{lineno_ish + 1} has arrival {row[0]!r} after {prev!r}) "
                    "but sorted=True was requested"
                )
            prev = row[0]
            rows.append(row)
    else:
        rows = list(rows_iter)
        rows.sort(key=lambda r: r[0])
    return [
        Flow(
            first_fid + i,
            src,
            dst,
            size,
            arrival,
            tenant=tenant,
            deadline=deadline,
            request_id=job,
        )
        for i, (arrival, src, dst, size, tenant, deadline, job) in enumerate(rows)
    ]
