"""Batch experiment definitions as JSON files.

A spec file is a JSON object::

    {
      "defaults": {"workload": "imc10", "load": 0.6, "scale": "tiny"},
      "experiments": [
        {"name": "phost-base", "protocol": "phost"},
        {"name": "pfabric-hot", "protocol": "pfabric", "load": 0.8}
      ]
    }

Each experiment entry inherits ``defaults``, may carry a ``name`` (for
reports) and a ``scale`` preset, and otherwise uses
:func:`repro.experiments.defaults.make_spec` field names.  A
``topology`` object changes the named fields of the preset's topology,
e.g. ``"topology": {"oversubscription": 2.0}``.  Run with::

    phost-repro --batch experiments.json [--parallel N]
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.experiments.defaults import make_spec
from repro.experiments.spec import ExperimentSpec

__all__ = ["load_spec_file", "SpecFileError"]


class SpecFileError(ValueError):
    """Raised when a spec file cannot be interpreted."""


def _build_one(entry: Dict[str, Any], defaults: Dict[str, Any], index: int
               ) -> Tuple[str, ExperimentSpec]:
    merged: Dict[str, Any] = dict(defaults)
    merged.update(entry)
    name = str(merged.pop("name", f"experiment-{index}"))
    scale = merged.pop("scale", "bench")
    protocol = merged.pop("protocol", None)
    workload = merged.pop("workload", None)
    if protocol is None or workload is None:
        raise SpecFileError(
            f"{name}: every experiment needs 'protocol' and 'workload' "
            "(directly or via defaults)"
        )
    try:
        spec = make_spec(protocol, workload, scale, **merged)
    except (TypeError, ValueError) as exc:
        raise SpecFileError(f"{name}: {exc}") from exc
    return name, spec


def load_spec_file(path: Union[str, Path]) -> List[Tuple[str, ExperimentSpec]]:
    """Parse a spec file into (name, spec) pairs."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise SpecFileError(f"{path}: cannot read ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "experiments" not in payload:
        raise SpecFileError(f"{path}: top level must be an object with 'experiments'")
    defaults = payload.get("defaults", {})
    if not isinstance(defaults, dict):
        raise SpecFileError(f"{path}: 'defaults' must be an object")
    entries = payload["experiments"]
    if not isinstance(entries, list) or not entries:
        raise SpecFileError(f"{path}: 'experiments' must be a non-empty list")
    out: List[Tuple[str, ExperimentSpec]] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SpecFileError(f"{path}: experiment #{i} must be an object")
        out.append(_build_one(entry, defaults, i))
    names = [n for n, _ in out]
    if len(set(names)) != len(names):
        raise SpecFileError(f"{path}: duplicate experiment names")
    return out
