"""The two-tier multi-rooted tree fabric of the paper.

Default dimensions match pFabric/pHost: 9 racks x 16 hosts = 144 hosts,
10 Gbps access links, 4 core switches each with one 40 Gbps link per
rack (full bisection bandwidth: 144 Gbps), 200 ns propagation per link,
36 kB per-port buffers.  Everything is parametric so tests and CI-scale
experiments can instantiate small fabrics.

Hop taxonomy (paper Figure 5(f)):

1. end-host NIC queue,
2. aggregation (ToR) switch upstream queue,
3. core switch queue,
4. aggregation (ToR) switch downstream queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.net.node import Host
from repro.net.packet import Flow, Packet
from repro.net.port import Port
from repro.net.routing import SPRAY, make_core_route, make_tor_route
from repro.net.switch import Switch
from repro.sim.engine import EventLoop
from repro.sim.randoms import SeededRng
from repro.sim.units import HEADER_BYTES, MSS_BYTES, gbps, nsec

__all__ = ["TopologyConfig", "Fabric", "HOP_NAMES"]

HOP_NAMES = {1: "host NIC", 2: "ToR up", 3: "core", 4: "ToR down"}

QueueFactory = Callable[[int], object]


def _default_queue_factory(capacity_bytes: int):
    # Imported here: repro.dataplane imports repro.net.packet, so a
    # module-level import would close a cycle through repro.net.
    from repro.dataplane import CommodityProgram

    return CommodityProgram().make_queue(capacity_bytes)


@dataclass
class TopologyConfig:
    """Dimensions and link parameters of the fabric.

    The defaults are the paper's evaluation topology.
    """

    n_racks: int = 9
    hosts_per_rack: int = 16
    n_cores: int = 4
    access_gbps: float = 10.0
    core_gbps: float = 40.0
    propagation_delay: float = nsec(200)
    buffer_bytes: int = 36_000
    load_balancing: str = SPRAY
    #: Core oversubscription factor: 1.0 is the paper's full-bisection
    #: fabric; f > 1 divides every core link's rate by f.  The paper's
    #: §2.3 argument (spraying empties the core) assumes f = 1; the
    #: oversubscription ablation bench shows what breaks otherwise.
    oversubscription: float = 1.0

    def __post_init__(self) -> None:
        if self.n_racks < 1 or self.hosts_per_rack < 1 or self.n_cores < 1:
            raise ValueError("topology dimensions must be positive")
        if self.access_gbps <= 0 or self.core_gbps <= 0:
            raise ValueError("link rates must be positive")
        if self.buffer_bytes < 2 * (MSS_BYTES + HEADER_BYTES):
            raise ValueError("buffers must hold at least two MTUs")
        if self.oversubscription < 1.0:
            raise ValueError("oversubscription factor must be >= 1.0")

    @property
    def n_hosts(self) -> int:
        return self.n_racks * self.hosts_per_rack

    @property
    def access_bps(self) -> float:
        return gbps(self.access_gbps)

    @property
    def core_bps(self) -> float:
        return gbps(self.core_gbps) / self.oversubscription

    @property
    def mtu_tx_time(self) -> float:
        """Transmission time of one MTU on the access link — the paper's
        base time unit for tokens, epochs and timeouts."""
        return (MSS_BYTES + HEADER_BYTES) * 8.0 / self.access_bps

    def rack_of(self, host_id: int) -> int:
        return host_id // self.hosts_per_rack

    @classmethod
    def paper(cls) -> "TopologyConfig":
        """The exact evaluation topology of the paper."""
        return cls()

    @classmethod
    def small(cls, n_racks: int = 3, hosts_per_rack: int = 4, n_cores: int = 2) -> "TopologyConfig":
        """A scaled-down fabric for tests and fast experiments."""
        return cls(n_racks=n_racks, hosts_per_rack=hosts_per_rack, n_cores=n_cores)


class Fabric:
    """A built network: hosts, switches, links — by default the paper's
    two-tier tree of ToR and core switches.

    Everything that does not depend on the wiring lives here: port
    construction, the congestion and fault drop ledgers (keyed by
    :attr:`hop_names`), and the unloaded-path arithmetic derived from
    :meth:`path_rates`.  Another topology subclasses this and supplies
    its wiring (:meth:`_wire`), :attr:`hop_names` and path model
    (:meth:`same_rack`, :meth:`hop_count`, :meth:`path_rates`); see
    :class:`repro.net.fattree.FatTreeFabric`.
    """

    #: Hop index -> name, in traversal order (first = sender NIC, last =
    #: the receiver's downlink).
    hop_names: Dict[int, str] = HOP_NAMES

    def __init__(
        self,
        env: EventLoop,
        config: TopologyConfig,
        rng: SeededRng,
        queue_factory: Optional[QueueFactory] = None,
        host_queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        self.env = env
        self.config = config
        self._queue_factory = queue_factory or _default_queue_factory
        self.drops_by_hop: Dict[int, int] = dict.fromkeys(self.hop_names, 0)
        self.drops_total = 0
        #: Called as ``hook(pkt, hop_index)`` on every congestion drop,
        #: in attach order; instruments subscribe by appending.
        self.drop_hooks: List[Callable[[Packet, int], None]] = []
        self.pool = None  # PacketPool, set by the runner when pooling is on
        # Injected-fault drops (repro.faults) are ledgered separately
        # from the congestion drops above so golden digests and the
        # Fig. 5e/f drop accounting are untouched by fault plans.
        self.fault_drops_by_hop: Dict[int, int] = dict.fromkeys(self.hop_names, 0)
        self.fault_drops_total = 0
        self.fault_drops_by_reason: Dict[str, int] = {}
        self.fault_drop_hooks: List[Callable[[Packet, int], None]] = []

        # Hosts and their NIC ports (hop 1)
        host_qf = host_queue_factory or self._queue_factory
        self.hosts: List[Host] = []
        for hid in range(config.n_hosts):
            port = self._port(f"h{hid}.nic", 1, config.access_bps, host_qf)
            self.hosts.append(Host(hid, config.rack_of(hid), port))
        #: Every switch, in port-listing order (see :meth:`all_ports`).
        self.switches: List[Switch] = self._wire(rng)

    def _port(self, name: str, hop: int, rate: float, queue_factory=None) -> Port:
        qf = queue_factory or self._queue_factory
        return Port(
            self.env,
            rate,
            self.config.propagation_delay,
            qf(self.config.buffer_bytes),
            name=name,
            hop_index=hop,
            on_drop=self._record_drop,
        )

    def _wire(self, rng: SeededRng) -> List[Switch]:
        """Build the switches and links below the host NICs; return the
        switches."""
        cfg = self.config
        fabric_rng = rng.stream("fabric")
        self.tors: List[Switch] = []
        self.cores: List[Switch] = [Switch(cid, "core") for cid in range(cfg.n_cores)]

        # ToR switches with down ports (hop 4) and up ports (hop 2)
        for rid in range(cfg.n_racks):
            tor = Switch(rid, "tor")
            down_ports: Dict[int, Port] = {}
            for hid in range(rid * cfg.hosts_per_rack, (rid + 1) * cfg.hosts_per_rack):
                port = self._port(f"tor{rid}.down.h{hid}", 4, cfg.access_bps)
                port.connect(self.hosts[hid])
                tor.add_port(port)
                down_ports[hid] = port
                self.hosts[hid].port.connect(tor)
            up_ports: List[Port] = []
            for cid in range(cfg.n_cores):
                port = self._port(f"tor{rid}.up.c{cid}", 2, cfg.core_bps)
                port.connect(self.cores[cid])
                tor.add_port(port)
                up_ports.append(port)
            tor.route = make_tor_route(
                down_ports,
                up_ports,
                cfg.n_hosts,
                fabric_rng.stream(f"tor{rid}"),
                mode=cfg.load_balancing,
            )
            self.tors.append(tor)

        # Core switch down ports (hop 3), one per rack
        for cid, core in enumerate(self.cores):
            rack_ports: List[Port] = []
            for rid in range(cfg.n_racks):
                port = self._port(f"core{cid}.down.tor{rid}", 3, cfg.core_bps)
                port.connect(self.tors[rid])
                core.add_port(port)
                rack_ports.append(port)
            core.route = make_core_route(rack_ports, cfg.rack_of, cfg.n_hosts)
        return self.tors + self.cores

    # ------------------------------------------------------------------
    def _record_drop(self, pkt: Packet, hop_index: int) -> None:
        self.drops_by_hop[hop_index] = self.drops_by_hop.get(hop_index, 0) + 1
        self.drops_total += 1
        for hook in self.drop_hooks:
            hook(pkt, hop_index)
        # A drop is a packet's end of life, like delivery: once the
        # hooks have seen it nothing refers to it.
        if self.pool is not None:
            self.pool.release(pkt)

    def record_fault_drop(self, pkt: Packet, hop_index: int, reason: str = "fault") -> None:
        """Ledger one injected drop (loss model, dead link, scripted)."""
        self.fault_drops_by_hop[hop_index] = self.fault_drops_by_hop.get(hop_index, 0) + 1
        self.fault_drops_total += 1
        self.fault_drops_by_reason[reason] = self.fault_drops_by_reason.get(reason, 0) + 1
        for hook in self.fault_drop_hooks:
            hook(pkt, hop_index)
        if self.pool is not None:
            self.pool.release(pkt)

    # ------------------------------------------------------------------
    def host(self, host_id: int) -> Host:
        return self.hosts[host_id]

    def same_rack(self, a: int, b: int) -> bool:
        return self.config.rack_of(a) == self.config.rack_of(b)

    def hop_count(self, src: int, dst: int) -> int:
        """Number of output ports a packet traverses from src to dst."""
        return 2 if self.same_rack(src, dst) else 4

    def path_rates(self, src: int, dst: int) -> List[float]:
        """Link rates (bps) along the path, in traversal order."""
        cfg = self.config
        if self.same_rack(src, dst):
            return [cfg.access_bps, cfg.access_bps]
        return [cfg.access_bps, cfg.core_bps, cfg.core_bps, cfg.access_bps]

    def base_rtt(self, src: int, dst: int) -> float:
        """Unloaded control-packet round-trip time between two hosts."""
        return 2.0 * self.one_way_delay(src, dst, HEADER_BYTES)

    def one_way_delay(self, src: int, dst: int, pkt_bytes: int) -> float:
        """Unloaded delay for one packet of ``pkt_bytes`` src -> dst."""
        rates = self.path_rates(src, dst)
        bits = pkt_bytes * 8.0
        return sum(bits / r for r in rates) + self.config.propagation_delay * len(rates)

    def opt_fct(self, size_bytes: int, src: int, dst: int) -> float:
        """Ideal flow completion time on an idle network.

        Store-and-forward pipelining: all n packets serialize back to
        back on the source access link; the final (possibly short)
        packet then crosses the remaining hops unobstructed.  This is
        the paper's OPT(i) denominator (flow alone in the network),
        computed under the same forwarding model as the simulator so
        slowdown >= 1 by construction.
        """
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
        """Every output port in the fabric: host NICs, then each
        switch's ports in :attr:`switches` order."""
        ports: List[Port] = [h.port for h in self.hosts]
        for switch in self.switches:
            ports.extend(switch.ports)
        return ports

    def utilization_by_hop(self, duration: float) -> Dict[int, float]:
        """Mean link utilization per hop class over ``duration`` seconds.

        Utilization is bytes actually serialized divided by link
        capacity x time, averaged across the ports of each hop class
        (:attr:`hop_names`).  Useful to confirm §2.3's claim that the
        sprayed core runs far below the edges.
        """
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
        self.drops_by_hop = dict.fromkeys(self.hop_names, 0)
        self.drops_total = 0
        self.fault_drops_by_hop = dict.fromkeys(self.hop_names, 0)
        self.fault_drops_total = 0
        self.fault_drops_by_reason = {}
        for port in self.all_ports():
            port.bytes_sent = 0
            port.pkts_sent = 0
            port.max_qlen_bytes = 0
            port.max_qlen_pkts = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.config.n_hosts} hosts, {len(self.switches)} switches)"
