"""Chrome ``trace_event`` export.

A :class:`ChromeTraceSink` listens to the run (a collector observer
subscribed to the fabric's congestion and injected-fault drop lists, the
same seams the :mod:`repro.validate` auditors use) and accumulates
Chrome trace-event dicts:

* one ``"X"`` *complete* span per flow (arrival → completion; unfinished
  flows are closed at finalize time), grouped under pid 1 with one
  thread row per source host;
* ``"i"`` *instant* events for drops (``drop hop{N}`` for congestion,
  ``fault drop hop{N}`` for injected faults), RTS control packets, and
  retransmissions, grouped under pid 2 with one thread row per category;
* ``"M"`` *metadata* events naming the process/thread rows.

``write()`` emits the JSON-object form ``{"traceEvents": [...]}``, which
Perfetto and ``chrome://tracing`` both load.  Timestamps are sim-time
microseconds (the unit the format mandates).

:func:`validate_chrome_trace` is the schema check used by tests and CI:
the file must parse as JSON and every event must carry ``ph``, ``ts``
and ``pid``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.net.packet import Flow, Packet, PacketType

__all__ = ["ChromeTraceError", "ChromeTraceSink", "validate_chrome_trace"]


class ChromeTraceError(ValueError):
    """A trace file failed schema validation.

    Carries the zero-based ``index`` of the first offending event and
    the ``event`` object itself (both ``None`` for file-level problems
    like unparseable JSON), so callers — ``scripts/check_chrome_trace.py``
    in particular — can print exactly what broke.
    """

    def __init__(self, message: str, index: Optional[int] = None, event=None) -> None:
        super().__init__(message)
        self.index = index
        self.event = event

_PID_FLOWS = 1
_PID_FABRIC = 2

#: Fabric-process thread rows (tid) for instant events.
_TID_DROPS = 1
_TID_RTS = 2
_TID_RETX = 3


def _us(t: float) -> float:
    return t * 1e6


class ChromeTraceSink:
    """Accumulates Chrome trace events from one simulation run."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self.events: List[dict] = []
        self._open_flows: Dict[int, Tuple[Flow, float]] = {}
        self._env = None
        self._seen_src_tids: set = set()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, ctx) -> "ChromeTraceSink":
        """Attach to a run: stack on the collector and subscribe to both
        of the fabric's drop lists."""
        if self._env is not None:
            raise RuntimeError("ChromeTraceSink is already attached to a run")
        self._env = ctx.env
        ctx.collector.add_observer(self)
        ctx.fabric.drop_hooks.append(self._on_drop)
        ctx.fabric.fault_drop_hooks.append(self._on_fault_drop)
        self._metadata(_PID_FLOWS, None, "process_name", "flows")
        self._metadata(_PID_FABRIC, None, "process_name", "fabric")
        self._metadata(_PID_FABRIC, _TID_DROPS, "thread_name", "drops")
        self._metadata(_PID_FABRIC, _TID_RTS, "thread_name", "rts")
        self._metadata(_PID_FABRIC, _TID_RETX, "thread_name", "retransmissions")
        return self

    def finalize(self, ctx) -> None:
        """Close spans for unfinished flows and write the file if asked."""
        now = ctx.env.now
        for fid in sorted(self._open_flows):
            flow, start = self._open_flows[fid]
            self._span(flow, start, now, finished=False)
        self._open_flows.clear()
        if self.path is not None:
            self.write(self.path)

    # ------------------------------------------------------------------
    # Observer interface (called by the collector)
    # ------------------------------------------------------------------
    def flow_arrived(self, flow: Flow, now: float) -> None:
        self._open_flows[flow.fid] = (flow, now)
        if flow.src not in self._seen_src_tids:
            self._seen_src_tids.add(flow.src)
            self._metadata(_PID_FLOWS, flow.src, "thread_name", f"src h{flow.src}")

    def flow_completed(self, flow: Flow, now: float) -> None:
        opened = self._open_flows.pop(flow.fid, None)
        start = opened[1] if opened is not None else flow.arrival
        self._span(flow, start, now, finished=True)

    def data_sent(self, pkt: Packet, first_time: bool) -> None:
        if not first_time:
            self._instant(
                "retx",
                _TID_RETX,
                fid=pkt.flow.fid if pkt.flow is not None else None,
                seq=pkt.seq,
            )

    def data_delivered(self, pkt: Packet) -> None:
        pass

    def data_duplicate(self, pkt: Packet) -> None:
        pass

    def control_sent(self, pkt: Packet) -> None:
        if pkt.ptype == PacketType.RTS:
            self._instant(
                "rts",
                _TID_RTS,
                fid=pkt.flow.fid if pkt.flow is not None else None,
                src=pkt.src,
                dst=pkt.dst,
            )

    def _on_drop(self, pkt: Packet, hop_index: int) -> None:
        self._drop_instant(f"drop hop{hop_index}", pkt, hop_index)

    def _on_fault_drop(self, pkt: Packet, hop_index: int) -> None:
        self._drop_instant(f"fault drop hop{hop_index}", pkt, hop_index)

    # ------------------------------------------------------------------
    # Event construction
    # ------------------------------------------------------------------
    def _span(self, flow: Flow, start: float, end: float, finished: bool) -> None:
        self.events.append(
            {
                "name": f"flow {flow.fid}",
                "cat": "flow",
                "ph": "X",
                "ts": _us(start),
                "dur": _us(max(end - start, 0.0)),
                "pid": _PID_FLOWS,
                "tid": flow.src,
                "args": {
                    "fid": flow.fid,
                    "src": flow.src,
                    "dst": flow.dst,
                    "bytes": flow.size_bytes,
                    "finished": finished,
                },
            }
        )

    def _drop_instant(self, name: str, pkt: Packet, hop_index: int) -> None:
        self._instant(
            name,
            _TID_DROPS,
            fid=pkt.flow.fid if pkt.flow is not None else None,
            seq=pkt.seq,
            hop=hop_index,
        )

    def _instant(self, name: str, tid: int, **args) -> None:
        self.events.append(
            {
                "name": name,
                "cat": "fabric",
                "ph": "i",
                "ts": _us(self._env.now if self._env is not None else 0.0),
                "pid": _PID_FABRIC,
                "tid": tid,
                "s": "t",
                "args": {k: v for k, v in args.items() if v is not None},
            }
        )

    def _metadata(self, pid: int, tid: Optional[int], name: str, value: str) -> None:
        event = {
            "name": name,
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "args": {"name": value},
        }
        if tid is not None:
            event["tid"] = tid
        self.events.append(event)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {"traceEvents": list(self.events)}

    def write(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)
        return path

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ChromeTraceSink({len(self.events)} events, path={self.path!r})"


def validate_chrome_trace(path: str) -> List[dict]:
    """Load ``path`` and check trace-event schema requirements.

    Returns the event list on success; raises :class:`ChromeTraceError`
    (a ``ValueError``, carrying the first offending event and its
    index) otherwise.  Accepts both the JSON-object form
    (``{"traceEvents": [...]}``) and the bare-array form.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ChromeTraceError(f"{path}: not valid JSON: {exc}") from exc
    if isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            raise ChromeTraceError(f"{path}: missing 'traceEvents' array")
    elif isinstance(doc, list):
        events = doc
    else:
        raise ChromeTraceError(f"{path}: top level must be an object or array")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ChromeTraceError(
                f"{path}: event {i} is not an object", index=i, event=event
            )
        for field in ("ph", "ts", "pid"):
            if field not in event:
                raise ChromeTraceError(
                    f"{path}: event {i} missing required {field!r}",
                    index=i,
                    event=event,
                )
    return events
