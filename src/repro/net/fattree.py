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

`FatTreeFabric` exposes the same surface as
:class:`repro.net.topology.Fabric` (hosts, `opt_fct`, drop accounting,
`utilization_by_hop`, ...), so every protocol, driver and analysis in
the repository runs on it unchanged — see
`benchmarks/test_ablation_topology.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.net.node import Host
from repro.net.packet import Packet
from repro.net.port import Port
from repro.net.queues import PriorityQueue
from repro.net.routing import ECMP, SPRAY
from repro.net.switch import Switch
from repro.sim.engine import EventLoop
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

QueueFactory = Callable[[int], object]


def _default_queue_factory(capacity_bytes: int) -> PriorityQueue:
    return PriorityQueue(capacity_bytes)


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
    n_priority_bands: int = 8

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


class FatTreeFabric:
    """A built k-ary fat-tree with the :class:`Fabric` interface."""

    def __init__(
        self,
        env: EventLoop,
        config: FatTreeConfig,
        rng: SeededRng,
        queue_factory: Optional[QueueFactory] = None,
        host_queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        self.env = env
        self.config = config
        self.rng = rng.stream("fattree")
        qf = queue_factory or _default_queue_factory
        host_qf = host_queue_factory or qf
        self.drops_by_hop: Dict[int, int] = {h: 0 for h in FAT_TREE_HOP_NAMES}
        self.drops_total = 0
        self.dropped_packets: List[Packet] = []
        self.keep_dropped = False
        self.drop_hook = None
        self.pool = None  # PacketPool, set by the runner when pooling is on
        # Injected-fault ledger, mirroring Fabric (see repro.faults).
        self.fault_drops_by_hop: Dict[int, int] = {h: 0 for h in FAT_TREE_HOP_NAMES}
        self.fault_drops_total = 0
        self.fault_drops_by_reason: Dict[str, int] = {}
        self.fault_drop_hook = None

        cfg = config
        half = cfg.half
        prop = cfg.propagation_delay
        rate = cfg.access_bps
        spray = cfg.load_balancing == SPRAY

        def make_port(name: str, hop: int, queue_factory=qf) -> Port:
            return Port(
                env, rate, prop, queue_factory(cfg.buffer_bytes),
                name=name, hop_index=hop, on_drop=self._record_drop,
            )

        # Hosts
        self.hosts: List[Host] = []
        for hid in range(cfg.n_hosts):
            port = Port(
                env, rate, prop, host_qf(cfg.buffer_bytes),
                name=f"h{hid}.nic", hop_index=1, on_drop=self._record_drop,
            )
            self.hosts.append(Host(hid, cfg.rack_of(hid), port))

        # Switch shells
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
        edge_down: List[Dict[int, Port]] = []
        edge_up: List[List[Port]] = []
        for e, edge in enumerate(self.edges):
            pod = e // half
            down: Dict[int, Port] = {}
            for hid in range(e * half, (e + 1) * half):
                port = make_port(f"edge{e}.down.h{hid}", 6)
                port.connect(self.hosts[hid])
                edge.add_port(port)
                down[hid] = port
                self.hosts[hid].port.connect(edge)
            ups: List[Port] = []
            for j in range(half):
                agg = self.aggs[pod * half + j]
                port = make_port(f"edge{e}.up.agg{agg.node_id}", 2)
                port.connect(agg)
                edge.add_port(port)
                ups.append(port)
            edge_down.append(down)
            edge_up.append(ups)

        # Agg wiring: down to every edge in the pod, up to its core group
        agg_down: List[List[Port]] = []   # indexed by agg, then edge-in-pod
        agg_up: List[List[Port]] = []
        for a, agg in enumerate(self.aggs):
            pod = a // half
            j = a % half
            downs: List[Port] = []
            for i in range(half):
                edge = self.edges[pod * half + i]
                port = make_port(f"agg{a}.down.edge{edge.node_id}", 5)
                port.connect(edge)
                agg.add_port(port)
                downs.append(port)
            ups: List[Port] = []
            for c in range(j * half, (j + 1) * half):
                port = make_port(f"agg{a}.up.core{c}", 3)
                port.connect(self.cores[c])
                agg.add_port(port)
                ups.append(port)
            agg_down.append(downs)
            agg_up.append(ups)

        # Core wiring: one port per pod, down to that pod's agg j
        core_down: List[List[Port]] = []
        for c, core in enumerate(self.cores):
            j = c // half  # which agg position this core serves
            downs: List[Port] = []
            for pod in range(cfg.k):
                agg = self.aggs[pod * half + j]
                port = make_port(f"core{c}.down.pod{pod}", 4)
                port.connect(agg)
                core.add_port(port)
                downs.append(port)
            core_down.append(downs)

        # Routing closures
        pod_of = cfg.pod_of
        edge_of = cfg.edge_of
        fabric_rng = self.rng

        def edge_route(e: int):
            pod = e // half
            down = edge_down[e]
            ups = edge_up[e]

            def route(pkt: Packet) -> Port:
                dst = pkt.dst
                if edge_of(dst) == e:
                    return down[dst]
                if spray:
                    return ups[fabric_rng.randrange(half)]
                fid = pkt.flow.fid if pkt.flow is not None else pkt.seq
                return ups[hash(fid) % half]

            return route

        def agg_route(a: int):
            pod = a // half
            downs = agg_down[a]
            ups = agg_up[a]

            def route(pkt: Packet) -> Port:
                dst = pkt.dst
                if pod_of(dst) == pod:
                    return downs[edge_of(dst) % half]
                if spray:
                    return ups[fabric_rng.randrange(half)]
                fid = pkt.flow.fid if pkt.flow is not None else pkt.seq
                return ups[hash(fid) % half]

            return route

        def core_route(c: int):
            downs = core_down[c]

            def route(pkt: Packet) -> Port:
                return downs[pod_of(pkt.dst)]

            return route

        for e, edge in enumerate(self.edges):
            edge.route = edge_route(e)
        for a, agg in enumerate(self.aggs):
            agg.route = agg_route(a)
        for c, core in enumerate(self.cores):
            core.route = core_route(c)

    # ------------------------------------------------------------------
    # Fabric interface
    # ------------------------------------------------------------------
    def _record_drop(self, pkt: Packet, hop_index: int) -> None:
        self.drops_by_hop[hop_index] = self.drops_by_hop.get(hop_index, 0) + 1
        self.drops_total += 1
        if self.keep_dropped:
            self.dropped_packets.append(pkt)
        if self.drop_hook is not None:
            self.drop_hook(pkt, hop_index)
        # End of life, as in Fabric._record_drop.
        if self.pool is not None and not self.keep_dropped:
            self.pool.release(pkt)

    def record_fault_drop(self, pkt: Packet, hop_index: int, reason: str = "fault") -> None:
        """Ledger one injected drop (see :meth:`Fabric.record_fault_drop`)."""
        self.fault_drops_by_hop[hop_index] = self.fault_drops_by_hop.get(hop_index, 0) + 1
        self.fault_drops_total += 1
        self.fault_drops_by_reason[reason] = self.fault_drops_by_reason.get(reason, 0) + 1
        if self.fault_drop_hook is not None:
            self.fault_drop_hook(pkt, hop_index)
        if self.pool is not None:
            self.pool.release(pkt)

    def host(self, host_id: int) -> Host:
        return self.hosts[host_id]

    def same_rack(self, a: int, b: int) -> bool:
        return self.config.edge_of(a) == self.config.edge_of(b)

    def hop_count(self, src: int, dst: int) -> int:
        cfg = self.config
        if cfg.edge_of(src) == cfg.edge_of(dst):
            return 2
        if cfg.pod_of(src) == cfg.pod_of(dst):
            return 4
        return 6

    def path_rates(self, src: int, dst: int) -> List[float]:
        return [self.config.access_bps] * self.hop_count(src, dst)

    def one_way_delay(self, src: int, dst: int, pkt_bytes: int) -> float:
        rates = self.path_rates(src, dst)
        bits = pkt_bytes * 8.0
        return sum(bits / r for r in rates) + self.config.propagation_delay * len(rates)

    def base_rtt(self, src: int, dst: int) -> float:
        return 2.0 * self.one_way_delay(src, dst, HEADER_BYTES)

    def opt_fct(self, size_bytes: int, src: int, dst: int) -> float:
        from repro.net.packet import Flow

        if src == dst:
            raise ValueError("src == dst")
        flow = Flow(-1, src, dst, size_bytes, 0.0)
        rates = self.path_rates(src, dst)
        access = rates[0]
        total = 0.0
        for seq in range(flow.n_pkts):
            total += flow.wire_bytes_of(seq) * 8.0 / access
        last_wire = flow.wire_bytes_of(flow.n_pkts - 1) * 8.0
        for rate in rates[1:]:
            total += last_wire / rate
        total += self.config.propagation_delay * len(rates)
        return total

    def all_ports(self) -> List[Port]:
        ports: List[Port] = [h.port for h in self.hosts]
        for switch in self.edges + self.aggs + self.cores:
            ports.extend(switch.ports)
        return ports

    def utilization_by_hop(self, duration: float) -> Dict[int, float]:
        if duration <= 0:
            raise ValueError("duration must be positive")
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for port in self.all_ports():
            frac = port.bytes_sent * 8.0 / (port.rate_bps * duration)
            sums[port.hop_index] = sums.get(port.hop_index, 0.0) + frac
            counts[port.hop_index] = counts.get(port.hop_index, 0) + 1
        return {h: sums[h] / counts[h] for h in sums}

    def reset_counters(self) -> None:
        self.drops_by_hop = {h: 0 for h in FAT_TREE_HOP_NAMES}
        self.drops_total = 0
        self.dropped_packets = []
        for port in self.all_ports():
            port.bytes_sent = 0
            port.pkts_sent = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cfg = self.config
        return f"FatTreeFabric(k={cfg.k}, {cfg.n_hosts} hosts, {cfg.link_gbps:g}G)"
