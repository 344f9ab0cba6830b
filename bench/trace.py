"""The traced repetition: stage spans plus a cProfile roll-up by layer.

One extra repetition per workload runs every protocol with the stages
called one by one (see ``workloads.run_once``) under ``cProfile``.  Spans
and profile stay in memory and are written when the workload ends, as a
Chrome ``trace_event`` file.  End-to-end metrics never come from here.
"""

from __future__ import annotations

import cProfile
import json
import time
from pathlib import Path
from typing import Dict, List, Tuple

import repro

from bench.workloads import Sample, Scale, Spans, Workload, run_once

_REPRO_ROOT = Path(repro.__file__).resolve().parent

#: ``self_s.<layer>`` names, in reporting order.
LAYERS = (
    "sim.engine", "sim.wheel", "sim.other",
    "net.port", "net.queues", "net.switch", "net.routing", "net.packets", "net.other",
    "dataplane",
    "protocols.phost", "protocols.pfabric", "protocols.fastpass", "protocols.dctcp",
    "protocols.other",
    "metrics", "validate", "obs", "workloads", "experiments", "other_repro", "stdlib",
)

_NET_FILES = {
    "port.py": "net.port",
    "queues.py": "net.queues",
    "switch.py": "net.switch", "node.py": "net.switch", "nic.py": "net.switch",
    "routing.py": "net.routing",
    "packet.py": "net.packets", "pool.py": "net.packets", "columns.py": "net.packets",
}
_SIM_FILES = {"engine.py": "sim.engine", "wheel.py": "sim.wheel"}
_WHOLE_PACKAGES = ("dataplane", "metrics", "validate", "obs", "workloads", "experiments")
_PROTOCOLS = ("phost", "pfabric", "fastpass", "dctcp")


def layer_of(code) -> str:
    """Owning layer of a profiled code object: its file's place under
    ``src/repro``.  Builtins, the standard library and this harness are
    ``stdlib`` — time the simulator spends outside its own source."""
    if isinstance(code, str):  # builtin or C method
        return "stdlib"
    try:
        parts = Path(code.co_filename).resolve().relative_to(_REPRO_ROOT).parts
    except ValueError:
        return "stdlib"
    package = parts[0]
    if package == "sim":
        return _SIM_FILES.get(parts[-1], "sim.other")
    if package == "net":
        return _NET_FILES.get(parts[-1], "net.other")
    if package in _WHOLE_PACKAGES:
        return package
    if package == "core":  # deprecation shim for protocols.phost
        return "protocols.phost"
    if package == "protocols":
        if len(parts) > 2 and parts[1] in _PROTOCOLS:
            return f"protocols.{parts[1]}"
        return "protocols.other"
    return "other_repro"


def _is_loop_entry(code) -> bool:
    """The event loop's entry point (``EventLoop.run`` today)."""
    if isinstance(code, str) or code.co_name != "run":
        return False
    return Path(code.co_filename).resolve() == _REPRO_ROOT / "sim" / "engine.py"


def traced_repetition(
    workload: Workload, seed: int, scale: Scale, scratch: Path
) -> Tuple[List[Sample], Spans, Dict[str, Dict[str, float]], Dict[str, float]]:
    """Run every protocol once, staged and profiled.

    Returns the samples, their spans, self-seconds per protocol and
    layer, and the totals: profiled seconds (what the layers must sum to)
    and cumulative seconds inside the event loop's entry point.
    """
    spans = Spans()
    samples: List[Sample] = []
    by_protocol: Dict[str, Dict[str, float]] = {}
    totals = {"profiled_s": 0.0, "loop_s": 0.0}
    cache: Dict[object, str] = {}
    for protocol in workload.protocols:
        self_s = by_protocol[protocol] = {layer: 0.0 for layer in LAYERS}
        profile = cProfile.Profile()
        start = time.perf_counter()
        profile.enable()
        try:
            samples.append(run_once(workload, protocol, seed, scale, scratch, spans))
        finally:
            profile.disable()
        totals["profiled_s"] += time.perf_counter() - start
        for entry in profile.getstats():
            layer = cache.get(entry.code)
            if layer is None:
                layer = cache[entry.code] = layer_of(entry.code)
            self_s[layer] += entry.inlinetime
            if _is_loop_entry(entry.code):
                totals["loop_s"] += entry.totaltime
    return samples, spans, by_protocol, totals


def write_chrome_trace(
    path: Path, spans: Spans, self_s: Dict[str, Dict[str, float]], meta: dict
) -> None:
    """Spans as Chrome ``trace_event`` complete events (one thread per
    protocol run), the per-protocol layer roll-up beside them."""
    origin = min(e["start"] for e in spans.events)
    tids: Dict[str, int] = {}
    events = []
    for e in spans.events:
        tid = tids.setdefault(e["id"], len(tids) + 1)
        events.append(
            {
                "name": e["name"], "cat": "bench", "ph": "X", "pid": 1, "tid": tid,
                "ts": (e["start"] - origin) * 1e6,
                "dur": (e["end"] - e["start"]) * 1e6,
                "args": {"id": e["id"], "parent": e["parent"]},
            }
        )
    for run_id, tid in tids.items():
        events.append(
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "ts": 0,
             "args": {"name": run_id}}
        )
    doc = {"traceEvents": events, "self_s": self_s, "meta": meta}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
