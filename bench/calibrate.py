"""A fixed reference kernel that measures how fast this machine is *now*.

The boxes this benchmark runs on drift: the same run took 3.0 s and 5.2 s
minutes apart (neighbours on the host; see README "Noise").  No estimator
over a 20 s run removes that, so host time is reported at a reference
machine speed instead: every timed sample is bracketed by runs of the
kernel below and scaled by ``REFERENCE_S / (kernel seconds seen)``.

The kernel is a tiny packet simulation of its own (heap of timestamped
callbacks, bound-method dispatch, per-port deques, small slotted objects)
because its time has to respond to a slow machine the way the simulator's
does; a plain arithmetic loop over-responds.  It shares no code with
``src/``, so a change to the simulator cannot move it.
"""

from __future__ import annotations

import heapq
import statistics
import time
from collections import deque

#: Kernel seconds on the reference machine.  Only ratios between commits
#: matter; the value just keeps calibrated times near real seconds here.
REFERENCE_S = 0.05
#: Kernel runs per calibration point (their mean is the point).
RUNS_PER_POINT = 3


class _Packet:
    __slots__ = ("flow", "size", "hops")

    def __init__(self, flow: int, size: int) -> None:
        self.flow = flow
        self.size = size
        self.hops = 0


class _Loop:
    def __init__(self) -> None:
        self.heap: list = []
        self.now = 0.0
        self.seq = 0

    def schedule(self, delay: float, fn, arg) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, fn, arg))

    def run(self) -> None:
        heap, pop = self.heap, heapq.heappop
        while heap:
            self.now, _, fn, arg = pop(heap)
            fn(arg)


class _Port:
    __slots__ = ("loop", "queue", "busy", "peer", "sent")

    def __init__(self, loop: _Loop) -> None:
        self.loop = loop
        self.queue: deque = deque()
        self.busy = False
        self.peer = None
        self.sent = 0

    def enqueue(self, pkt: _Packet) -> None:
        if self.busy:
            self.queue.append(pkt)
        else:
            self.busy = True
            self.loop.schedule(pkt.size / 1.25e9, self.tx_done, pkt)

    def tx_done(self, pkt: _Packet) -> None:
        self.sent += 1
        pkt.hops += 1
        self.loop.schedule(2e-7, self.peer.receive, pkt)
        if self.queue:
            nxt = self.queue.popleft()
            self.loop.schedule(nxt.size / 1.25e9, self.tx_done, nxt)
        else:
            self.busy = False


class _Node:
    __slots__ = ("ports", "delivered")

    def __init__(self) -> None:
        self.ports: list = []
        self.delivered: dict = {}

    def receive(self, pkt: _Packet) -> None:
        if pkt.hops >= 3:
            self.delivered[pkt.flow] = self.delivered.get(pkt.flow, 0) + 1
        else:
            self.ports[(pkt.flow + pkt.hops) % len(self.ports)].enqueue(pkt)


def kernel_seconds(n_nodes: int = 48, n_packets: int = 6000) -> float:
    """Run the reference kernel once (three hops per packet, ~42 k events)
    and return the seconds it took."""
    start = time.perf_counter()
    loop = _Loop()
    nodes = [_Node() for _ in range(n_nodes)]
    for i, node in enumerate(nodes):
        for k in range(4):
            port = _Port(loop)
            port.peer = nodes[(i * 7 + k * 11 + 1) % n_nodes]
            node.ports.append(port)
    for i in range(n_packets):
        loop.schedule(i * 1.3e-6, nodes[i % n_nodes].receive, _Packet(i % 97, 1500))
    loop.run()
    if sum(sum(node.delivered.values()) for node in nodes) != n_packets:
        raise RuntimeError("reference kernel lost packets")
    return time.perf_counter() - start


def calibration_point() -> float:
    """Machine speed now: mean kernel seconds over a few runs."""
    return statistics.mean(kernel_seconds() for _ in range(RUNS_PER_POINT))
