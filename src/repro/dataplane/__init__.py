"""Pluggable dataplane programs (match-action switch pipeline).

See docs/DATAPLANE.md for the programming model.  Public surface:

* :class:`DataplaneProgram` — the four-stage policy API
  (classify -> meter/mark -> admit/evict -> schedule);
* :class:`ProgramQueue` — the generic per-port engine executing a
  program with bounded :class:`PortState` ledgers;
* :class:`CommodityProgram` / :class:`PFabricProgram` — the paper's two
  switch models as reference programs;
* :class:`DctcpEcnProgram` — DCTCP-style ECN threshold marking, the
  first plug-in landed purely through the public API;
* :func:`register_dataplane` / :func:`get_dataplane` /
  :func:`available_dataplanes` — the name registry the runner and CLI
  resolve against;
* :class:`DataplaneBinding` — the per-run record of which programs a
  simulation is executing (held at ``SimContext.dataplane``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataplane.program import DataplaneProgram, PortState, ProgramQueue
from repro.dataplane.programs import (
    CommodityProgram,
    DctcpEcnProgram,
    PFabricProgram,
)
from repro.dataplane.registry import (
    available_dataplanes,
    get_dataplane,
    register_dataplane,
)

__all__ = [
    "DataplaneProgram",
    "PortState",
    "ProgramQueue",
    "CommodityProgram",
    "PFabricProgram",
    "DctcpEcnProgram",
    "DataplaneBinding",
    "available_dataplanes",
    "get_dataplane",
    "register_dataplane",
]


@dataclass(frozen=True)
class DataplaneBinding:
    """Which programs one run's fabric is executing: ``switch`` on every
    switch port, ``host`` on every NIC, each in a :class:`ProgramQueue`."""

    switch: DataplaneProgram
    host: DataplaneProgram

    @property
    def names(self) -> str:
        if self.switch.name == self.host.name:
            return self.switch.name
        return f"{self.switch.name}/{self.host.name}"
