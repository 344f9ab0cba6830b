"""Switches.

Switches here are deliberately dumb, mirroring the paper's commodity
assumption: on receive, pick an output port (routing/spraying decision)
and enqueue.  All interesting behaviour lives in the per-port queues
(:mod:`repro.dataplane` programs) and in the routing closure installed by the
topology builder (:mod:`repro.net.routing`).
"""

from __future__ import annotations

from typing import Callable, List

from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.port import Port

__all__ = ["Switch"]

RouteFn = Callable[[Packet], Port]


class Switch(Node):
    """An output-queued switch with a pluggable routing function."""

    __slots__ = ("kind", "ports", "route", "pkts_forwarded")

    def __init__(self, node_id: int, kind: str, name: str = "") -> None:
        super().__init__(node_id, name=name or f"{kind}{node_id}")
        self.kind = kind  # "tor" | "core"
        self.ports: List[Port] = []
        self.route: RouteFn = _unrouted
        self.pkts_forwarded = 0

    def add_port(self, port: Port) -> Port:
        self.ports.append(port)
        return port

    def receive(self, pkt: Packet) -> None:
        pkt.hops += 1
        self.pkts_forwarded += 1
        self.route(pkt).send(pkt)


def _unrouted(pkt: Packet) -> Port:  # pragma: no cover - config error path
    raise RuntimeError(f"switch has no routing function installed (pkt={pkt!r})")
