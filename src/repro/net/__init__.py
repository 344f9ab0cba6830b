"""Network fabric substrate (S2-S4).

Models the paper's commodity datacenter fabric: a two-tier multi-rooted
tree of output-queued switches with small per-port buffers, a few strict
priority levels, per-packet spraying across uplinks, and 10/40 Gbps
links with 200 ns propagation delay.

Key pieces:

* :mod:`repro.net.packet` — the packet and flow records.
* :mod:`repro.net.port` — an output port: queue + transmitter + link;
  the queue is a :mod:`repro.dataplane` program's engine.
* :mod:`repro.net.switch` / :mod:`repro.net.node` — switches and hosts.
* :mod:`repro.net.topology` — builds the fabric and computes ideal FCTs.
"""

from repro.net.packet import Flow, Packet, PacketType
from repro.net.port import Port
from repro.net.node import Host, Node
from repro.net.switch import Switch
from repro.net.topology import Fabric, TopologyConfig
from repro.net.fattree import FatTreeConfig, FatTreeFabric

__all__ = [
    "Flow",
    "Packet",
    "PacketType",
    "Port",
    "Node",
    "Host",
    "Switch",
    "Fabric",
    "TopologyConfig",
    "FatTreeConfig",
    "FatTreeFabric",
]
