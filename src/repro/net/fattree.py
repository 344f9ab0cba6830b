"""Three-tier k-ary fat-tree fabric (Al-Fares et al., SIGCOMM 2008).

The paper's evaluation uses a two-tier multi-rooted tree, but its §2.1
grounds the full-bisection assumption in "topologies such as Fat-Tree
[3] or VL2 [11]".  This module provides the classic k-ary fat-tree so
the protocol results can be checked on a deeper fabric with two levels
of packet spraying:

* k pods; each pod has k/2 edge switches and k/2 aggregation switches;
* each edge switch serves k/2 hosts and uplinks to every agg in its pod;
* (k/2)^2 core switches; aggregation switch j of every pod connects to
  cores j*(k/2) .. j*(k/2)+k/2-1;
* k^3/4 hosts total, full bisection bandwidth with uniform link rates.

Cross-pod paths traverse six output ports; hop classes extend the
two-tier taxonomy: 1 host NIC, 2 edge up, 3 agg up, 4 core down,
5 agg down, 6 edge down.

`FatTreeFabric` is a :class:`repro.net.topology.Fabric` that supplies
only its wiring, hop names and path model; ports, drop ledgers,
`opt_fct`, `utilization_by_hop` and the rest are the base class's, and
every switch routes with :mod:`repro.net.routing`.  Every protocol,
driver and analysis in the repository runs on it unchanged — see
`benchmarks/test_ablation_topology.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.net.port import Port
from repro.net.routing import ECMP, SPRAY, make_core_route, make_tor_route
from repro.net.switch import Switch
from repro.net.topology import Fabric
from repro.sim.randoms import SeededRng
from repro.sim.units import HEADER_BYTES, MSS_BYTES, gbps, nsec

__all__ = ["FatTreeConfig", "FatTreeFabric", "FAT_TREE_HOP_NAMES"]

FAT_TREE_HOP_NAMES = {
    1: "host NIC",
    2: "edge up",
    3: "agg up",
    4: "core",
    5: "agg down",
    6: "edge down",
}


@dataclass
class FatTreeConfig:
    """Dimensions of a k-ary fat-tree.

    ``k`` must be even and >= 2.  All links run at ``link_gbps``
    (uniform rates are what make the classic fat-tree rearrangeably
    non-blocking).
    """

    k: int = 4
    link_gbps: float = 10.0
    propagation_delay: float = nsec(200)
    buffer_bytes: int = 36_000
    load_balancing: str = SPRAY

    def __post_init__(self) -> None:
        if self.k < 2 or self.k % 2 != 0:
            raise ValueError("fat-tree k must be an even integer >= 2")
        if self.link_gbps <= 0:
            raise ValueError("link rate must be positive")
        if self.buffer_bytes < 2 * (MSS_BYTES + HEADER_BYTES):
            raise ValueError("buffers must hold at least two MTUs")
        if self.load_balancing not in (SPRAY, ECMP):
            raise ValueError("load_balancing must be 'spray' or 'ecmp'")

    # -- fabric-interface compatibility (what configs/resolvers use) ----
    @property
    def half(self) -> int:
        return self.k // 2

    @property
    def n_pods(self) -> int:
        return self.k

    @property
    def hosts_per_edge(self) -> int:
        return self.half

    @property
    def hosts_per_pod(self) -> int:
        return self.half * self.half

    @property
    def n_hosts(self) -> int:
        return self.k * self.hosts_per_pod

    @property
    def n_cores(self) -> int:
        return self.half * self.half

    @property
    def access_gbps(self) -> float:
        return self.link_gbps

    @property
    def core_gbps(self) -> float:
        return self.link_gbps

    @property
    def access_bps(self) -> float:
        return gbps(self.link_gbps)

    @property
    def core_bps(self) -> float:
        return gbps(self.link_gbps)

    @property
    def oversubscription(self) -> float:
        return 1.0

    @property
    def mtu_tx_time(self) -> float:
        return (MSS_BYTES + HEADER_BYTES) * 8.0 / self.access_bps

    # -- host coordinates ------------------------------------------------
    def pod_of(self, host_id: int) -> int:
        return host_id // self.hosts_per_pod

    def edge_of(self, host_id: int) -> int:
        """Global edge-switch index of a host."""
        return host_id // self.hosts_per_edge

    def rack_of(self, host_id: int) -> int:
        """Alias: an edge switch is the fat-tree's "rack"."""
        return self.edge_of(host_id)


class FatTreeFabric(Fabric):
    """A built k-ary fat-tree: a :class:`Fabric` with fat-tree wiring."""

    hop_names = FAT_TREE_HOP_NAMES

    def _wire(self, rng: SeededRng) -> List[Switch]:
        cfg = self.config
        half = cfg.half
        rate = cfg.access_bps
        n_hosts = cfg.n_hosts
        mode = cfg.load_balancing
        # One spray stream shared by every edge and aggregation switch.
        spray_rng = rng.stream("fattree")

        self.edges: List[Switch] = [
            Switch(i, "edge", name=f"edge{i}") for i in range(cfg.k * half)
        ]
        self.aggs: List[Switch] = [
            Switch(i, "agg", name=f"agg{i}") for i in range(cfg.k * half)
        ]
        self.cores: List[Switch] = [
            Switch(i, "core", name=f"core{i}") for i in range(cfg.n_cores)
        ]

        # Edge wiring: down to hosts, up to every agg in the pod
        for e, edge in enumerate(self.edges):
            pod = e // half
            down: Dict[int, Port] = {}
            for hid in range(e * half, (e + 1) * half):
                port = self._port(f"edge{e}.down.h{hid}", 6, rate)
                port.connect(self.hosts[hid])
                edge.add_port(port)
                down[hid] = port
                self.hosts[hid].port.connect(edge)
            ups: List[Port] = []
            for j in range(half):
                agg = self.aggs[pod * half + j]
                port = self._port(f"edge{e}.up.agg{agg.node_id}", 2, rate)
                port.connect(agg)
                edge.add_port(port)
                ups.append(port)
            edge.route = make_tor_route(down, ups, n_hosts, spray_rng, mode=mode)

        # Agg wiring: down to every edge in the pod, up to its core group
        for a, agg in enumerate(self.aggs):
            pod = a // half
            j = a % half
            down = {}
            for i in range(half):
                edge = self.edges[pod * half + i]
                port = self._port(f"agg{a}.down.edge{edge.node_id}", 5, rate)
                port.connect(edge)
                agg.add_port(port)
                for hid in range(edge.node_id * half, (edge.node_id + 1) * half):
                    down[hid] = port
            ups = []
            for c in range(j * half, (j + 1) * half):
                port = self._port(f"agg{a}.up.core{c}", 3, rate)
                port.connect(self.cores[c])
                agg.add_port(port)
                ups.append(port)
            agg.route = make_tor_route(down, ups, n_hosts, spray_rng, mode=mode)

        # Core wiring: one port per pod, down to that pod's agg j
        for c, core in enumerate(self.cores):
            j = c // half  # which agg position this core serves
            downs: List[Port] = []
            for pod in range(cfg.k):
                agg = self.aggs[pod * half + j]
                port = self._port(f"core{c}.down.pod{pod}", 4, rate)
                port.connect(agg)
                core.add_port(port)
                downs.append(port)
            core.route = make_core_route(downs, cfg.pod_of, n_hosts)
        return self.edges + self.aggs + self.cores

    def hop_count(self, src: int, dst: int) -> int:
        cfg = self.config
        if cfg.edge_of(src) == cfg.edge_of(dst):
            return 2
        if cfg.pod_of(src) == cfg.pod_of(dst):
            return 4
        return 6

    def path_rates(self, src: int, dst: int) -> List[float]:
        return [self.config.access_bps] * self.hop_count(src, dst)
