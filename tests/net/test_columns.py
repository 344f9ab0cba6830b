"""Acquire/release recycling order of the packet store.

Packets used to live as rows of a columnar slot store; they are now
plain objects on the pool's freelist.  The recycling contract that
store carried is unchanged and is checked here in object terms.
"""

from __future__ import annotations

from repro.net.packet import Flow
from repro.net.pool import PacketPool


def make_flow(fid=7, n_pkts=4):
    return Flow(fid=fid, src=0, dst=1, size_bytes=n_pkts * 1460, arrival=0.0)


def test_acquire_release_recycles_slots_lifo():
    pool = PacketPool(enabled=True)
    flow = make_flow()
    a = pool.data(flow, 0, flow.src, flow.dst, 1500, 1, 0.0)
    b = pool.data(flow, 1, flow.src, flow.dst, 1500, 1, 0.0)
    assert a is not b
    pool.release(a)
    assert pool.data(flow, 2, flow.src, flow.dst, 1500, 1, 0.0) is a  # LIFO reuse
    assert pool.allocated == 2 and pool.stats()["free"] == 0  # two in use
