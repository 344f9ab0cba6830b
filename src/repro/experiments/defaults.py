"""Scale presets and default experiment parameters.

The paper injects hundreds of millions of packets into a 144-host
fabric; a pure-Python simulator reproduces the *comparisons* at a
fraction of that scale.  Three presets:

* ``tiny``  — a small fabric, few flows, strong size truncation.  For
  unit/integration tests (sub-second runs).
* ``bench`` — the paper's 144-host fabric, hundreds of flows, long
  tails truncated to single-digit MB.  For the per-figure benchmarks
  (seconds per simulation).
* ``full``  — the paper's fabric, thousands of flows, faithful
  distributions.  For unattended runs; hours in CPython.

Mean slowdown is dominated by the short-flow mass in every workload, so
truncating the extreme tail changes absolute values slightly but not
the protocol ordering the paper reports; EXPERIMENTS.md quantifies the
deltas per figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.experiments.spec import ExperimentSpec
from repro.net.topology import TopologyConfig

__all__ = [
    "Scale",
    "SCALES",
    "make_spec",
    "PROTOCOLS",
    "EXTENDED_PROTOCOLS",
    "WORKLOAD_NAMES",
    "DEFAULT_LOAD",
]

#: The paper's three transports — the comparison every figure reproduces.
PROTOCOLS = ("phost", "pfabric", "fastpass")
#: The paper trio plus baselines added by this repository (currently
#: DCTCP); the headline figures (fig3, fig9c, figR) carry these extra
#: columns, the paper-only figures stay with the trio.
EXTENDED_PROTOCOLS = PROTOCOLS + ("dctcp",)
WORKLOAD_NAMES = ("websearch", "datamining", "imc10")
DEFAULT_LOAD = 0.6


@dataclass(frozen=True)
class Scale:
    """One run-size preset."""

    name: str
    topology: TopologyConfig
    n_flows: Dict[str, int]
    truncate: Dict[str, Optional[int]]
    incast_bytes: int
    incast_requests: int
    stability_samples: int = 24

    def flows_for(self, workload: str) -> int:
        return self.n_flows.get(workload, self.n_flows["default"])

    def truncate_for(self, workload: str) -> Optional[int]:
        return self.truncate.get(workload, self.truncate.get("default"))


SCALES: Dict[str, Scale] = {
    "tiny": Scale(
        name="tiny",
        topology=TopologyConfig.small(),
        n_flows={"default": 120, "websearch": 80},
        truncate={"default": 200_000, "bimodal": None},
        incast_bytes=1_000_000,
        incast_requests=3,
        stability_samples=12,
    ),
    "bench": Scale(
        name="bench",
        topology=TopologyConfig.paper(),
        n_flows={"default": 500, "websearch": 350, "bimodal": 400},
        truncate={
            "websearch": 1_000_000,
            "datamining": 3_000_000,
            "imc10": None,
            "bimodal": None,  # the two modes *are* the workload
            "default": 3_000_000,
        },
        incast_bytes=5_000_000,
        incast_requests=4,
        stability_samples=24,
    ),
    "full": Scale(
        name="full",
        topology=TopologyConfig.paper(),
        n_flows={"default": 20_000, "websearch": 10_000},
        truncate={"default": None},
        incast_bytes=100_000_000,
        incast_requests=20,
        stability_samples=40,
    ),
}


def make_spec(
    protocol: str,
    workload: str,
    scale: str = "bench",
    **overrides,
) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` from a scale preset.

    Any spec field can be overridden by keyword (load, seed,
    traffic_matrix, buffer_bytes, ...).  A ``topology`` given as a dict
    (as a JSON spec file writes it) changes those fields of the preset's
    topology; a name the topology does not have raises TypeError.
    """
    try:
        preset = SCALES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}") from None
    params = dict(
        protocol=protocol,
        workload=workload,
        load=DEFAULT_LOAD,
        n_flows=preset.flows_for(workload),
        max_flow_bytes=preset.truncate_for(workload),
        topology=preset.topology,
    )
    params.update(overrides)
    if isinstance(params["topology"], dict):
        params["topology"] = replace(preset.topology, **params["topology"])
    return ExperimentSpec(**params)
