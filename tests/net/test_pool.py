"""Unit tests for the packet freelist (repro.net.pool)."""

from __future__ import annotations

from repro.net.packet import Flow, PacketType
from repro.net.pool import PacketPool
from tests.net.models import RetainsPackets


def make_flow(fid=1, n_pkts=4):
    return Flow(fid=fid, src=0, dst=1, size_bytes=n_pkts * 1460, arrival=0.0)


def test_disabled_pool_is_a_plain_factory():
    pool = PacketPool(enabled=False)
    flow = make_flow()
    a = pool.data(flow, 0, flow.src, flow.dst, 1500, 1, 0.0)
    pool.release(a)
    b = pool.data(flow, 1, flow.src, flow.dst, 1500, 1, 0.0)
    assert b is not a  # release was a no-op
    assert pool.reused == 0
    assert pool.stats()["free"] == 0


def test_enabled_pool_recycles_released_packets():
    pool = PacketPool(enabled=True)
    flow = make_flow()
    a = pool.data(flow, 0, flow.src, flow.dst, 1500, 1, 0.0)
    pool.release(a)
    b = pool.data(flow, 1, flow.src, flow.dst, 1460, 3, 2.5)
    assert b is a  # same object back
    assert pool.allocated == 1
    assert pool.reused == 1
    # all fields re-stamped for the new life
    assert (b.seq, b.size, b.priority, b.born) == (1, 1460, 3, 2.5)


def test_release_clears_references_and_scratch_fields():
    pool = PacketPool(enabled=True)
    flow = make_flow()
    pkt = pool.data(flow, 2, flow.src, flow.dst, 1500, 1, 0.0)
    pkt.payload = object()
    pkt.remaining = 7
    pkt.data_prio = 5
    pkt.expiry = 9.9
    pkt.hops = 3
    pool.release(pkt)
    assert pkt.flow is None and pkt.payload is None
    assert pkt.remaining == 0 and pkt.data_prio == 0
    assert pkt.expiry == 0.0 and pkt.hops == 0


def test_control_packets_recycle_too():
    pool = PacketPool(enabled=True)
    flow = make_flow()
    rts = pool.control(PacketType.RTS, flow, 0, flow.src, flow.dst, 0.0)
    pool.release(rts)
    tok = pool.control(PacketType.TOKEN, flow, 3, flow.dst, flow.src, 1.0)
    assert tok is rts
    assert tok.ptype is PacketType.TOKEN
    assert (tok.seq, tok.src, tok.dst, tok.born) == (3, flow.dst, flow.src, 1.0)


def test_runner_disables_pooling_for_packet_retaining_hooks():
    from repro.experiments.defaults import make_spec
    from repro.experiments.runner import build_simulation

    spec = make_spec("phost", "websearch", "tiny", seed=42)
    assert build_simulation(spec).pool.enabled
    keeper_ctx = build_simulation(spec.variant(instruments=(RetainsPackets(),)))
    assert not keeper_ctx.pool.enabled
    assert all(h.pool is None for h in keeper_ctx.fabric.hosts)
    assert keeper_ctx.fabric.pool is None  # the drop path stays out of it too


def test_over_cap_release_goes_back_to_the_store():
    # There is no cap: every released packet is parked, none is retired,
    # and they come back last-released-first.
    pool = PacketPool(enabled=True)
    flow = make_flow()
    pkts = [pool.data(flow, i, flow.src, flow.dst, 1500, 1, 0.0) for i in range(5)]
    for p in pkts:
        pool.release(p)
    assert pool.released == 5 and pool.stats()["free"] == 5
    again = [pool.control(PacketType.ACK, flow, i, flow.dst, flow.src, 1.0) for i in range(5)]
    assert again == pkts[::-1]  # last released, first reacquired
    assert pool.allocated == 5 and pool.stats()["free"] == 0


def test_freelist_is_bounded():
    # Waves of packets alive at once: objects are created only to cover
    # a new peak, never per acquire, so the freelist never holds more
    # than the peak number of packets held at once.
    pool = PacketPool(enabled=True)
    flow = make_flow()
    held, peak = [], 0
    for wave in (3, 7, 2, 7, 5):
        while len(held) < wave:
            held.append(pool.data(flow, 0, flow.src, flow.dst, 1500, 1, 0.0))
        peak = max(peak, len(held))
        while held:
            pool.release(held.pop())
        assert pool.allocated == peak
        assert pool.stats()["free"] == peak
    assert pool.allocated == 7 and pool.reused == 24 - 7


# ----------------------------------------------------------------------
# A drop ends a packet's life too
# ----------------------------------------------------------------------

def _pfabric_ctx(instruments=()):
    from repro.experiments.defaults import make_spec
    from repro.experiments.runner import build_simulation

    return build_simulation(
        make_spec("pfabric", "websearch", "tiny", seed=42, instruments=instruments)
    )


def _overflow_nic(ctx, flow):
    """Push data into host 0's NIC queue until it evicts one packet."""
    pool, port = ctx.pool, ctx.fabric.hosts[0].port
    sent = []
    while ctx.fabric.drops_total == 0:
        pkt = pool.data(flow, len(sent), flow.src, flow.dst, 1500, 1, 0.0)
        pkt.remaining = len(sent)  # later packets are less urgent
        sent.append(pkt)
        port.send(pkt)
    return sent


def test_dropped_packet_slot_is_reused_by_the_next_acquire():
    ctx = _pfabric_ctx()
    flow = make_flow(n_pkts=100)
    victim = _overflow_nic(ctx, flow)[-1]  # least urgent: the incoming one
    assert victim.flow is None  # reset on release
    nxt = ctx.pool.data(flow, 99, flow.src, flow.dst, 1500, 1, 0.0)
    assert nxt is victim
    assert ctx.pool.reused == 1


class DropKeeper(RetainsPackets):
    """Keeps every congestion-dropped packet; declares it, so the runner
    turns the pool off."""

    def __init__(self):
        self.kept = []

    def bind(self, ctx):
        ctx.fabric.drop_hooks.append(lambda pkt, hop: self.kept.append(pkt))


def test_retaining_drop_hook_keeps_packets_with_their_fields():
    keeper = DropKeeper()
    ctx = _pfabric_ctx(instruments=(keeper,))
    flow = make_flow(n_pkts=100)
    sent = _overflow_nic(ctx, flow)
    (kept,) = keeper.kept
    assert kept is sent[-1]
    assert kept.flow is flow and kept.seq == len(sent) - 1 and kept.remaining == kept.seq
    nxt = ctx.pool.data(flow, 99, flow.src, flow.dst, 1500, 1, 0.0)
    assert nxt is not kept
    assert ctx.pool.reused == 0


def test_fault_drop_releases_the_slot():
    ctx = _pfabric_ctx()
    flow = make_flow()
    pkt = ctx.pool.data(flow, 0, flow.src, flow.dst, 1500, 1, 0.0)
    ctx.fabric.record_fault_drop(pkt, 2, "loss")
    assert ctx.pool.data(flow, 1, flow.src, flow.dst, 1500, 1, 0.0) is pkt


def test_incast_store_tracks_packets_in_flight_not_drops():
    """pFabric drops on purpose under incast; the pool must not create a
    packet per drop."""
    from repro.experiments.defaults import SCALES
    from repro.experiments.runner import run_incast

    class Probe:
        ctx = None

        def bind(self, ctx):
            self.ctx = ctx

    probe = Probe()
    n_senders = 9
    run_incast(
        "pfabric", n_senders=n_senders, total_bytes=1_000_000, n_requests=3,
        topology=SCALES["tiny"].topology, seed=7, instruments=(probe,),
    )
    ctx = probe.ctx
    pool, drops = ctx.pool, ctx.fabric.drops_total
    assert drops > 1000
    # Every sender keeps at most a window of data in the network, plus
    # the ACKs coming back: a few hundred packets, however many drops.
    assert pool.allocated <= 4 * n_senders * ctx.config.init_cwnd < drops
