"""pHost reproduction (CoNEXT 2015).

A packet-level datacenter network simulator with three transports —
pHost (the paper's contribution), pFabric and Fastpass — plus the
paper's workloads, metrics and a per-figure experiment harness.

Quickstart::

    from repro import ExperimentSpec, run_experiment

    spec = ExperimentSpec(protocol="phost", workload="websearch",
                          load=0.6, n_flows=500)
    result = run_experiment(spec)
    print(result.mean_slowdown())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.protocols.phost import PHostAgent, PHostConfig
from repro.experiments import (
    ExperimentResult,
    ExperimentSpec,
    IncastResult,
    run_experiment,
    run_incast,
)
from repro.experiments.defaults import make_spec
from repro.experiments.runner import run_flow_list, run_tenant_fairness
from repro.net import Fabric, FatTreeConfig, TopologyConfig
from repro.protocols import available_protocols, get_protocol
from repro.protocols.fastpass import FastpassConfig
from repro.protocols.pfabric import PFabricConfig
from repro.sim import EventLoop, SeededRng, SimContext
from repro.workloads.trace_io import load_flows, save_flows

__version__ = "1.0.0"

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "run_experiment",
    "run_flow_list",
    "run_incast",
    "run_tenant_fairness",
    "make_spec",
    "IncastResult",
    "PHostConfig",
    "PHostAgent",
    "PFabricConfig",
    "FastpassConfig",
    "TopologyConfig",
    "FatTreeConfig",
    "Fabric",
    "EventLoop",
    "SeededRng",
    "SimContext",
    "load_flows",
    "save_flows",
    "available_protocols",
    "get_protocol",
    "__version__",
]
