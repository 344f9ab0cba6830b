"""Routing and load-balancing policies for tree fabrics.

The paper relies on *packet spraying*: each packet of an inter-rack flow
is sent to a core switch chosen uniformly at random, which (together
with full bisection bandwidth) removes essentially all congestion from
the core (§2.3).  We also provide per-flow ECMP as an ablation, since
the paper cites both options as commodity features.

These functions build the routing closures of every
:class:`repro.net.switch.Switch` in the repository: the two-tier tree's
ToRs and cores, and the fat-tree's edge, aggregation and core switches.
Per-destination decisions are precomputed into dense tables (the
host-id space is contiguous) so the per-packet work is one list index
plus — for sprayed upward traffic — a single ``randbelow`` draw.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.net.packet import Packet
from repro.net.port import Port
from repro.sim.randoms import SeededRng

__all__ = ["make_tor_route", "make_core_route", "SPRAY", "ECMP"]

SPRAY = "spray"
ECMP = "ecmp"


def make_tor_route(
    down_ports: Dict[int, Port],
    up_ports: List[Port],
    n_hosts: int,
    rng: SeededRng,
    mode: str = SPRAY,
) -> Callable[[Packet], Port]:
    """Routing closure for a switch with uplinks to spray over.

    ``down_ports`` maps every host below the switch to the port towards
    it (a ToR's or edge switch's hosts; every host of an aggregation
    switch's pod).  Those destinations go straight down; all others go
    up via spraying (uniform per-packet) or ECMP (hash of flow id,
    per-flow stable).  The lookup is a dense list indexed by host id
    (``None`` marks a destination that goes up — the spray candidates
    are the full ``up_ports`` list for every one, per §2.3's uniform
    spraying).

    The closure carries its uplinks (``route.uplinks``) and a mutable
    live set (``route.set_live_uplinks`` / ``route.live_uplinks``) so
    the fault layer can exclude dead links.
    """
    n_up = len(up_ports)
    if mode not in (SPRAY, ECMP):
        raise ValueError(f"unknown load-balancing mode: {mode}")
    up0 = up_ports[0] if n_up else None
    spray = mode == SPRAY
    # Identical draw stream to rng.randrange(n) for n > 0, minus two
    # wrapper frames per sprayed packet.
    randrange = rng.randbelow

    # Live uplink state, mutable so the fault layer can exclude dead
    # links (`state` = [candidate count, sole/fallback port]).  With
    # every link up, `live` is `up_ports` itself and the spray draw
    # stream is untouched.  With no live uplink at all, packets fall
    # back to the first (dead) uplink, whose tap black-holes them.
    live: List[Port] = list(up_ports)
    state: List[object] = [n_up, up0]

    def set_live_uplinks(ports) -> None:
        alive_set = set(id(p) for p in ports)
        alive = [p for p in up_ports if id(p) in alive_set]
        live[:] = alive
        if not alive:
            state[0] = 1
            state[1] = up0
        else:
            state[0] = len(alive)
            state[1] = alive[0]

    def live_uplinks() -> List[Port]:
        return list(live)

    local: List[Optional[Port]] = [down_ports.get(d) for d in range(n_hosts)]

    def route(pkt: Packet) -> Port:
        port = local[pkt.dst]
        if port is not None:
            return port
        n = state[0]
        if n == 1:
            return state[1]
        if spray:
            return live[randrange(n)]
        fid = pkt.flow.fid if pkt.flow is not None else pkt.seq
        return live[hash(fid) % n]

    route.uplinks = tuple(up_ports)
    route.set_live_uplinks = set_live_uplinks
    route.live_uplinks = live_uplinks
    return route


def make_core_route(
    down_ports: List[Port],
    group_of: Callable[[int], int],
    n_hosts: int,
) -> Callable[[Packet], Port]:
    """Routing closure for a core switch: downhill only, one port per
    group of hosts (a two-tier rack, a fat-tree pod).

    ``group_of`` is flattened into one dense host-id -> port table (a
    single list index per packet)."""
    table: List[Port] = [down_ports[group_of(d)] for d in range(n_hosts)]

    def route(pkt: Packet) -> Port:
        return table[pkt.dst]

    return route
