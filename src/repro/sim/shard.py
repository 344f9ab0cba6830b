"""Sharded per-rack parallel simulation with conservative sync.

The fabric is partitioned into per-rack logical processes: each shard
owns a contiguous range of racks (those racks' hosts + ToRs) plus a
replica of the core layer, and runs its own event loop.  Packets that
leave a shard's ToR uplinks are intercepted at the scheduling boundary
and relayed — locally (both racks in the same shard) or over a message
queue to the owning shard.  A conservative null-message protocol keeps
every shard inside the horizon it has been granted:

* **lookahead** — every cross-shard effect is at least one inter-rack
  propagation delay in the future (``TopologyConfig.propagation_delay``;
  serialization completes *before* the departure event fires, so
  propagation alone is a sound floor).  Fastpass arbiter traffic rides
  the same machinery with ``ctrl_latency`` as its lookahead, which the
  support gate requires to be >= the propagation floor.
* **global window** — a coordinator collects every shard's next event
  time plus the timestamps of messages still in flight, takes the
  minimum ``m``, and grants the window ``[.., m + lookahead)``.  Every
  shard runs all events strictly below the horizon; messages emitted in
  round ``k`` are delivered at the start of round ``k+1`` (their effect
  times are provably >= the round-``k`` horizon).

**Determinism.**  The merged run must be *byte-identical* to the
single-process run (``repro.validate.digest.run_digest``).  The serial
engine breaks ties at equal timestamps by allocation order (a global
monotone sequence number); shards cannot share a counter without
serializing, so :class:`LineageEventLoop` replaces the integer with a
*lineage key* that reconstructs the serial allocation order from local
information:

``(t_alloc, parent_key, intra, root, shard, lseq)``

* ``t_alloc`` — simulated time the event was scheduled (= the parent
  event's execution time; ``-1.0`` for pre-run roots).
* ``parent_key`` — the scheduling event's own key (shared by
  reference, O(1)).  Roots use ``()``.
* ``intra`` — 1, 2, 3... for the parent's first, second, third
  ``schedule`` call.
* ``root`` — the pre-run root counter the lineage descends from; every
  shard counts *all* roots (skipping foreign ones via
  :meth:`LineageEventLoop.skip_root`) so the numbering is global.
* ``shard`` / ``lseq`` — owning shard and a shard-local allocation
  counter; gives uniqueness and, for same-shard keys, the exact serial
  sub-order.

Two events tie only at equal times, where comparing ``t_alloc`` then
recursing into parent keys reproduces the serial order exactly: the
serial engine orders equal-time events by allocation order, allocation
order follows the parents' execution order, and induction bottoms out
at differing allocation times, a shared parent (``intra`` decides), or
the pre-run roots (``root`` decides).  Chains are deliberately *not*
truncated: parent keys are shared by reference (one tuple per event,
O(1) to allocate), and lineages in lockstep — synchronized transfers
whose ancestors keep pairwise-equal timestamps for hundreds of
generations, routine in incast traffic with quantized packet sizes —
genuinely need the deep walk; any bounded summary mis-orders them.
Retention is the live events' ancestor closure, which tracks the
backlog (busy-period/ACK-clock depth), not total run length.

**Termination.**  Shards cannot stop at the Nth completion the way the
serial loop does (no shard sees all completions), so they overrun: the
coordinator detects global completion, computes the serial stop point
``S`` (the max completion's ``(time, key)`` pair) and every shard rolls
back the side effects of events executed after ``S`` using a per-round
journal of counter deltas.  Flow arrivals and completions are provably
never post-``S`` (every flow completes, and a flow's arrival precedes
its completion), so only packet/drop counters ever roll back.

Entry point: :func:`run_sharded`, called by
``repro.experiments.runner.run_experiment`` when ``tuning.shards`` is
not ``"off"``.  Unsupported specs return ``None`` (with a warning) and
the runner falls through to the byte-identical serial path.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

from repro.net.packet import Flow, Packet, PacketType
from repro.sim.engine import EventLoop, SimulationError
from repro.sim.randoms import SeededRng
from repro.sim.tuning import SimTuning
from repro.validate.base import AuditReport, Auditor, InvariantCheck

__all__ = [
    "ShardPlan",
    "ShardRunStats",
    "ShardStat",
    "LineageEventLoop",
    "run_sharded",
    "next_window",
    "canonical_merge",
    "shard_width_hint",
]

#: ``t_alloc`` sentinel for pre-run roots; below any simulated time.
_ROOT_T = -1.0

#: Collector counters journaled for post-stop rollback.  Everything the
#: digest / result reads that a post-``S`` overrun event can touch.
_COUNTER_ATTRS = frozenset({
    "data_pkts_injected",
    "data_pkts_retransmitted",
    "data_pkts_delivered",
    "data_pkts_duplicate",
    "payload_bytes_delivered",
    "control_pkts_sent",
    "control_bytes_sent",
    "pkts_arrived",
})

#: Protocols whose agents are host-local (or centrally scheduled with a
#: latency the lookahead covers); anything else falls back to serial.
_SUPPORTED_PROTOCOLS = frozenset({"phost", "pfabric", "fastpass", "ideal", "dctcp"})

_WORKER_TIMEOUT_S = 600.0

#: Stack reservation for the threads that run shard event loops.
#: Lineage-key comparisons recurse one C level per lockstep generation
#: (tuple rich-compare), and synchronized incast chains reach thousands
#: of generations — far past the default recursion limit and, for the
#: default 8 MiB thread stack, past the stack itself.  The reservation
#: is virtual address space; only pages actually touched materialize.
_DEEP_STACK_BYTES = 1 << 29  # 512 MiB
_DEEP_RECURSION_LIMIT = 1_000_000


def _call_deep(fn, *args):
    """Run ``fn(*args)`` on a large-stack thread with a raised
    recursion limit, so arbitrarily deep lineage-key comparisons
    (heap sifts, journal-vs-cut checks, message sorts) cannot blow the
    interpreter's recursion guard.  ``sys.setrecursionlimit`` is
    process-global, so the caller's limit is restored on exit; the
    calling thread just blocks in ``join`` meanwhile."""
    out: List[Any] = []
    err: List[BaseException] = []

    def body() -> None:
        try:
            out.append(fn(*args))
        except BaseException as exc:  # relayed to the caller below
            err.append(exc)

    old_limit = sys.getrecursionlimit()
    old_stack = threading.stack_size(_DEEP_STACK_BYTES)
    sys.setrecursionlimit(max(old_limit, _DEEP_RECURSION_LIMIT))
    try:
        thread = threading.Thread(target=body, name="shard-deep")
        thread.start()
        thread.join()
    finally:
        threading.stack_size(old_stack)
        sys.setrecursionlimit(old_limit)
    if err:
        raise err[0]
    return out[0]


# ======================================================================
# Partitioning
# ======================================================================

@dataclass(frozen=True)
class ShardPlan:
    """Static rack -> shard assignment (contiguous, balanced ranges)."""

    n_shards: int
    n_racks: int
    hosts_per_rack: int
    rack_ranges: Tuple[Tuple[int, int], ...]  # per shard: [lo, hi)
    shard_of_rack: Tuple[int, ...]

    @classmethod
    def build(cls, topo, n_shards: int) -> "ShardPlan":
        n_racks = topo.n_racks
        n_shards = max(1, min(n_shards, n_racks))
        base, extra = divmod(n_racks, n_shards)
        ranges: List[Tuple[int, int]] = []
        of_rack: List[int] = []
        lo = 0
        for sid in range(n_shards):
            hi = lo + base + (1 if sid < extra else 0)
            ranges.append((lo, hi))
            of_rack.extend([sid] * (hi - lo))
            lo = hi
        return cls(n_shards, n_racks, topo.hosts_per_rack, tuple(ranges), tuple(of_rack))

    def shard_of_host(self, host_id: int) -> int:
        return self.shard_of_rack[host_id // self.hosts_per_rack]

    def racks_of(self, sid: int) -> range:
        lo, hi = self.rack_ranges[sid]
        return range(lo, hi)


@dataclass(frozen=True)
class ShardStat:
    """Per-shard execution facts (plain data; survives pickling)."""

    sid: int
    racks: Tuple[int, int]
    events_processed: int
    rolled_back: int
    wall_seconds: float


@dataclass(frozen=True)
class ShardRunStats:
    """How a sharded run executed; ``ExperimentResult.shard_stats``."""

    n_shards: int
    transport: str
    rounds: int
    cross_shard_msgs: int
    cut: bool  # True = stopped at the Nth completion (vs the time guard)
    shards: Tuple[ShardStat, ...]


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_shard_count(tuning: SimTuning, topo) -> int:
    """Number of shards for this run ("auto" caps at racks/CPUs/8)."""
    shards = tuning.shards
    if shards == "auto":
        return max(1, min(topo.n_racks, _available_cpus(), 8))
    return max(1, min(int(shards), topo.n_racks))


def shard_width_hint(spec) -> int:
    """How many workers one run of ``spec`` will occupy (>= 1).

    Used by ``run_experiments_parallel`` to divide its process budget
    when cross-run and in-run parallelism compose.
    """
    tuning = spec.tuning if spec.tuning is not None else SimTuning()
    if tuning.shards == "off":
        return 1
    try:
        topo = spec.with_topology_buffer()
        if _unsupported_reason(spec) is not None:
            return 1
        return resolve_shard_count(tuning, topo)
    except Exception:
        return 1


# ======================================================================
# Conservative-sync core (pure; property-tested in isolation)
# ======================================================================

def next_window(t_nexts, held_whens, lookahead: float, guard: float) -> Optional[float]:
    """Next horizon ``W`` to grant, or None to stop on the guard.

    ``t_nexts`` are each shard's next pending event time (inf when
    idle); ``held_whens`` the timestamps of cross-shard messages not
    yet delivered.  Any event or message at the global minimum ``m``
    can execute without ever seeing a cross-shard effect earlier than
    ``m + lookahead``, so granting ``W = m + lookahead`` is safe and
    always makes progress (the ``m`` event itself runs).
    """
    cand = min(
        min(t_nexts, default=math.inf),
        min(held_whens, default=math.inf),
    )
    if cand == math.inf or cand > guard:
        return None
    return cand + lookahead


def canonical_merge(streams):
    """Merge per-shard ``(when, key, ...)`` streams into the global
    order — plain sort by ``(when, key)``, the same order one shared
    heap would produce.  Exposed for the shard-parity property tests."""
    merged = [item for stream in streams for item in stream]
    merged.sort(key=lambda item: (item[0], item[1]))
    return merged


# ======================================================================
# Lineage-keyed event loop
# ======================================================================

class LineageEventLoop(EventLoop):
    """EventLoop whose tie-break keys reconstruct serial allocation order.

    Heap entries are ``[when, key, fn, args, owner]`` — the same layout
    as the base class with the integer sequence number replaced by a
    lineage key (see module docstring), so ``EventLoop.cancel`` /
    ``is_pending`` and heap compaction work unchanged.

    ``router`` maps ``id(target_object)`` to a boundary handler; a
    ``schedule_at`` whose function is a bound method of a routed object
    is diverted (the handler ships or relays it) and returns an inert
    already-dead entry.
    """

    __slots__ = (
        "shard_id",
        "router",
        "_lseq",
        "_rc",
        "_sealed",
        "_dispatching",
        "_intra",
        "_cur_parent",
        "_cur_rc",
        "_cur_pair",
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.shard_id = 0
        self.router: Dict[int, Any] = {}
        self._lseq = 0
        self._rc = 0
        self._sealed = False
        self._dispatching = False
        self._intra = 0
        self._cur_parent: Tuple = ()
        self._cur_rc = 0
        self._cur_pair: Optional[Tuple[float, Tuple]] = None

    # -- key allocation -------------------------------------------------
    def _alloc_key(self) -> Tuple:
        self._lseq += 1
        if self._dispatching:
            self._intra += 1
            return (
                self.now, self._cur_parent, self._intra,
                self._cur_rc, self.shard_id, self._lseq,
            )
        if self._sealed:
            raise SimulationError(
                "event scheduled outside dispatch after seal_roots(); "
                "root numbering would diverge across shards"
            )
        self._rc += 1
        return (_ROOT_T, (), self._rc, self._rc, self.shard_id, self._lseq)

    def skip_root(self) -> None:
        """Account for a root another shard schedules (keeps the global
        root counter aligned without materializing the event)."""
        if self._sealed:
            raise SimulationError("skip_root() after seal_roots()")
        self._rc += 1

    def seal_roots(self) -> None:
        """End the setup phase; further non-dispatch scheduling raises."""
        self._sealed = True

    # -- scheduling -----------------------------------------------------
    def schedule_at(self, when: float, fn, *args):
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {when} < now={self.now}"
            )
        if self.router:
            target = getattr(fn, "__self__", None)
            if target is not None:
                handler = self.router.get(id(target))
                if handler is not None and handler(when, fn, args):
                    # Diverted at the shard boundary; hand back an inert
                    # dead entry (cancel / is_pending treat it as done).
                    return [when, (), None, (), self]
        key = self._alloc_key()
        entry = [when, key, fn, args, self]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def schedule_timer_at(self, when: float, fn, *args):
        # The timer wheel is forced off under sharding (wheel slots
        # would bypass lineage keying); timers share the keyed heap.
        return self.schedule_at(when, fn, *args)

    # -- windowed execution --------------------------------------------
    def run_window(self, stop_before: float, hard_cap: float) -> int:
        """Run every event with ``t < stop_before and t <= hard_cap``.

        ``stop_before`` is the granted conservative horizon (exclusive:
        ties at the horizon wait for the next round, when any same-time
        cross-shard message will have been delivered); ``hard_cap`` is
        the run's time guard (inclusive, matching the serial
        ``run(until=guard)`` semantics).
        """
        heap = self._heap
        executed = 0
        while heap:
            entry = heap[0]
            if entry[2] is None:  # cancelled head
                heappop(heap)
                self._cancelled -= 1
                continue
            when = entry[0]
            if when >= stop_before or when > hard_cap:
                break
            heappop(heap)
            self._live -= 1
            if when < self.now and self._clock_watcher is not None:
                self._clock_watcher(self.now, when)
            self.now = when
            key = entry[1]
            self._cur_parent = key
            self._cur_rc = key[3]
            self._cur_pair = (when, key)
            self._intra = 0
            self._dispatching = True
            try:
                entry[2](*entry[3])
            finally:
                self._dispatching = False
            executed += 1
        self.events_processed += executed
        return executed

    def next_time(self) -> float:
        """Earliest pending event time (inf when idle)."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else math.inf

    def current_pair(self) -> Optional[Tuple[float, Tuple]]:
        """(time, key) of the event being dispatched; None outside."""
        return self._cur_pair if self._dispatching else None

    def inject(self, when: float, key: Tuple, fn, args: Tuple) -> None:
        """Insert a relayed event with a key minted by its sender."""
        heappush(self._heap, [when, key, fn, args, self])
        self._live += 1


# ======================================================================
# Journaling subclasses (rollback support)
# ======================================================================

class _ShardCollector:
    """MetricsCollector that journals counter deltas by (time, key).

    Built lazily as a real subclass (import cycle: metrics imports
    nothing from sim, but constructing here keeps this module's imports
    light).  See :func:`_make_collector`.
    """


def _make_collector():
    from repro.metrics.collector import MetricsCollector

    class ShardCollector(MetricsCollector):
        _journal: Optional[list] = None
        _env: Optional[LineageEventLoop] = None
        _completions: Optional[list] = None

        def __setattr__(self, name, value):
            if name in _COUNTER_ATTRS:
                journal = self._journal
                if journal is not None:
                    pair = self._env.current_pair()
                    if pair is not None:
                        journal.append(
                            ("attr", pair, name, value - self.__dict__.get(name, 0))
                        )
            object.__setattr__(self, name, value)

        def flow_completed(self, flow, now):
            first = flow.finish is None
            super().flow_completed(flow, now)
            if first and flow.finish is not None and self._completions is not None:
                self._completions.append(
                    (flow.fid, flow.finish, self._env.current_pair())
                )

    return ShardCollector()


def _make_fabric_cls():
    from repro.net.topology import Fabric

    class ShardFabric(Fabric):
        _journal: Optional[list] = None
        _env: Optional[LineageEventLoop] = None
        #: Set by the boundary handler while evaluating a fault verdict,
        #: so the drop is journaled at its *arrival* (time, key) — where
        #: the serial run ledgers it — not the departure event's.
        _pair_override: Optional[Tuple[float, Tuple]] = None

        def _journal_pair(self):
            if self._journal is None:
                return None
            if self._pair_override is not None:
                return self._pair_override
            return self._env.current_pair()

        def _record_drop(self, pkt, hop_index):
            pair = self._journal_pair()
            if pair is not None:
                self._journal.append(("drop", pair, hop_index))
            super()._record_drop(pkt, hop_index)

        def record_fault_drop(self, pkt, hop_index, reason="fault"):
            pair = self._journal_pair()
            if pair is not None:
                self._journal.append(("fdrop", pair, hop_index, reason))
            super().record_fault_drop(pkt, hop_index, reason)

    return ShardFabric


class _LinkStateTimeline:
    """Up/down state of one boundary link as a function of time.

    Replays the plan's scheduled toggles for the link (in scheduling
    order, suppressing no-op repeats exactly like
    ``FaultInjector._set_link_state``) into a step function, so the
    sender-side verdict can ask for the state at the packet's *arrival*
    time — the instant the serial run's receiving tap would test
    ``self.down``.  Toggle events sort before arrivals at the same
    timestamp (their root keys lead with ``-1.0``), so arrivals at
    exactly a transition see the post-transition state, as in serial.
    """

    def __init__(self, toggles):
        state = False
        self._times: List[float] = []
        self._states: List[bool] = []
        for when, flag in toggles:
            if flag == state:
                continue
            state = flag
            self._times.append(when)
            self._states.append(flag)

    def down_at(self, t: float) -> bool:
        i = bisect_right(self._times, t)
        return self._states[i - 1] if i else False


def _link_timelines(plan) -> Dict[str, _LinkStateTimeline]:
    """Per-link down/up timelines from a FaultPlan's LinkDown events.

    Host pauses never touch inter-rack uplinks (they expand to the
    host's NIC and its ToR-facing downlink), so only ``link_downs``
    matter at shard boundaries.
    """
    toggles: Dict[str, List[Tuple[float, bool]]] = {}
    for ev in plan.link_downs:
        entries = toggles.setdefault(ev.link, [])
        entries.append((ev.down_at, True))
        if ev.up_at != math.inf:
            entries.append((ev.up_at, False))
    out = {}
    for name, entries in toggles.items():
        entries.sort(key=lambda e: e[0])
        out[name] = _LinkStateTimeline(entries)
    return out


# ======================================================================
# Packet wire format (cross-shard relay)
# ======================================================================

def _pack_pkt(pkt: Packet) -> Tuple:
    return (
        int(pkt.ptype),
        pkt.flow.fid if pkt.flow is not None else None,
        pkt.seq, pkt.src, pkt.dst, pkt.size, pkt.priority, pkt.born,
        pkt.remaining, pkt.data_prio, pkt.expiry, pkt.ecn, pkt.hops,
        pkt.payload,
    )


def _unpack_pkt(packed: Tuple, flow_by_fid: Dict[int, Flow]) -> Packet:
    (ptv, fid, seq, src, dst, size, priority, born,
     remaining, data_prio, expiry, ecn, hops, payload) = packed
    flow = flow_by_fid.get(fid) if fid is not None else None
    pkt = Packet(PacketType(ptv), flow, seq, src, dst, size, priority, born)
    pkt.remaining = remaining
    pkt.data_prio = data_prio
    pkt.expiry = expiry
    pkt.ecn = ecn
    pkt.hops = hops
    pkt.payload = payload
    return pkt


# ======================================================================
# Per-shard runtime
# ======================================================================

class ShardRuntime:
    """One shard: its own event loop, fabric replica, and boundary."""

    def __init__(self, spec, plan: ShardPlan, sid: int) -> None:
        from repro.experiments.runner import (
            _default_time_guard,
            _generate_flows,
            build_simulation,
        )

        self.plan = plan
        self.sid = sid
        base = spec.tuning if spec.tuning is not None else SimTuning()
        # Knobs incompatible with lineage keying are forced off; all of
        # them are digest-inert (tests/sim/test_determinism.py), so the
        # merged run still matches the default serial digest.
        forced = replace(
            base,
            timer_wheel=False,
            fused_ports=False,
            packet_pool=False,
            shards="off",
        )
        # Fresh auditor instances per shard: originals stay unbound (so
        # in-process sharding can't double-bind them) and each shard
        # ships its summaries back for merging.
        clones = tuple(type(h)() for h in spec.instruments)
        spec2 = spec.variant(tuning=forced, instruments=clones)

        env = LineageEventLoop()
        env.shard_id = sid
        self.env = env
        self.ctx = build_simulation(
            spec2, env=env, collector=_make_collector(),
            fabric_cls=_make_fabric_cls(),
        )
        self.fabric = self.ctx.fabric
        self.collector = self.ctx.collector

        self.journal: List[Tuple] = []
        self.completions: List[Tuple] = []
        self.outbox: List[Tuple[int, Tuple]] = []
        self.msgs_out = 0
        self.wall = 0.0

        col = self.collector
        object.__setattr__(col, "_env", env)
        object.__setattr__(col, "_completions", self.completions)
        self.fabric._env = env
        # Shared deltas list; attached last so setup writes never journal.
        self.fabric._journal = self.journal
        object.__setattr__(col, "_journal", self.journal)

        flows = _generate_flows(spec2, self.fabric, SeededRng(spec.seed))
        flows.sort(key=lambda f: f.arrival)
        self.flow_by_fid = {f.fid: f for f in flows}
        col.total_pkts_offered = sum(f.n_pkts for f in flows)
        col.expected_flows = len(flows)
        for flow in flows:
            if plan.shard_of_host(flow.src) == sid:
                env.schedule_at(
                    flow.arrival, self.fabric.hosts[flow.src].agent.start_flow, flow
                )
            else:
                env.skip_root()
        env.seal_roots()
        self.guard = _default_time_guard(spec, flows)
        self._install_boundary(spec)

    # -- boundary wiring ------------------------------------------------
    def _install_boundary(self, spec) -> None:
        plan, sid, env = self.plan, self.sid, self.env
        inj = self.ctx.faults
        timelines = _link_timelines(spec.faults) if inj is not None else {}
        seen_cores = set()
        for rid in plan.racks_of(sid):
            tor = self.fabric.tors[rid]
            for port in tor.ports:
                if port.hop_index != 2:
                    continue
                peer = port.peer
                if inj is not None and port.name in inj.taps:
                    tap = peer  # _LinkTap wrapping the core switch
                    timeline = timelines.get(
                        port.name, _LinkStateTimeline(())
                    )
                    env.router[id(tap)] = self._tap_handler(tap, timeline)
                else:
                    if id(peer) not in seen_cores:
                        seen_cores.add(id(peer))
                        env.router[id(peer)] = self._core_handler(peer)
        self._install_fastpass_boundary()

    def _core_handler(self, core):
        def handler(when, fn, args) -> bool:
            if getattr(fn, "__name__", "") != "receive":
                return False
            key = self.env._alloc_key()
            self._emit(when, key, core, args[0])
            return True
        return handler

    def _tap_handler(self, tap, timeline: _LinkStateTimeline):
        inj = self.ctx.faults
        fabric = self.fabric

        def handler(when, fn, args) -> bool:
            if getattr(fn, "__name__", "") != "receive":
                return False
            pkt = args[0]
            # The serial run allocates one sequence number for this
            # schedule and ledgers any drop at the *arrival* event, so:
            # allocate the arrival key unconditionally and stamp the
            # verdict's side effects with the arrival pair.
            key = self.env._alloc_key()
            fabric._pair_override = (when, key)
            try:
                if timeline.down_at(when):
                    inj._ledger(pkt, tap, "link_down")
                    return True
                if inj.scripted_active and inj._match_scripted(pkt, tap):
                    inj._ledger(pkt, tap, "scripted")
                    return True
                model = tap.model
                if model is not None and model.lose(tap.rng):
                    inj._ledger(pkt, tap, "loss")
                    return True
                rate = tap.corrupt_rate
                if rate > 0.0 and tap.rng.random() < rate:
                    inj._record_corrupt(pkt, tap)
                    return True
            finally:
                fabric._pair_override = None
            tap.pkts_forwarded += 1
            if tap.forward_hook is not None:
                tap.forward_hook(pkt, tap)
            self._emit(when, key, tap.real, pkt)
            return True
        return handler

    def _emit(self, when: float, key: Tuple, core, pkt: Packet) -> None:
        dst_sid = self.plan.shard_of_host(pkt.dst)
        if dst_sid == self.sid:
            # Same shard, different rack: relay locally.  Must not wait
            # for the next round — the arrival can precede the horizon.
            self.env.inject(when, key, core.receive, (pkt,))
        else:
            self.outbox.append(
                (dst_sid, ("pkt", when, key, core.node_id, _pack_pkt(pkt)))
            )
            self.msgs_out += 1

    def _install_fastpass_boundary(self) -> None:
        try:
            from repro.protocols.fastpass.arbiter import FastpassArbiter
        except ImportError:  # pragma: no cover
            return
        shared = self.ctx.shared
        if not isinstance(shared, FastpassArbiter):
            return
        plan, sid, env = self.plan, self.sid, self.env
        owner = plan.shard_of_host(0)
        if sid != owner:
            def request_handler(when, fn, args) -> bool:
                if getattr(fn, "__name__", "") != "request":
                    raise SimulationError(
                        f"unexpected arbiter method at shard boundary: {fn}"
                    )
                flow, demand = args
                key = env._alloc_key()
                self.outbox.append(
                    (owner, ("arbreq", when, key, flow.fid, int(demand)))
                )
                self.msgs_out += 1
                return True
            env.router[id(shared)] = request_handler
            return
        # Owner shard: divert allocations bound for agents on hosts the
        # other shards own.
        for host in self.fabric.hosts:
            hid = host.node_id
            dst_sid = plan.shard_of_host(hid)
            if dst_sid == sid:
                continue
            agent = host.agent

            def onsched_handler(when, fn, args, _dst=dst_sid, _hid=hid) -> bool:
                if getattr(fn, "__name__", "") != "on_schedule":
                    raise SimulationError(
                        f"unexpected remote-agent method at shard boundary: {fn}"
                    )
                (allocations,) = args
                key = env._alloc_key()
                packed = tuple((slot, f.fid) for slot, f in allocations)
                self.outbox.append(
                    (_dst, ("onsched", when, key, _hid, packed))
                )
                self.msgs_out += 1
                return True
            env.router[id(agent)] = onsched_handler

    # -- round protocol -------------------------------------------------
    def _inject(self, msgs: List[Tuple]) -> None:
        msgs.sort(key=lambda m: (m[1], m[2]))
        hooks = [
            h for h in self.ctx.hooks
            if getattr(h, "boundary_ingress", None) is not None
        ]
        for msg in msgs:
            kind = msg[0]
            when, key = msg[1], msg[2]
            if kind == "pkt":
                pkt = _unpack_pkt(msg[4], self.flow_by_fid)
                core = self.fabric.cores[msg[3]]
                self.env.inject(when, key, core.receive, (pkt,))
                for hook in hooks:
                    hook.boundary_ingress(pkt)
            elif kind == "arbreq":
                flow = self.flow_by_fid[msg[3]]
                self.env.inject(
                    when, key, self.ctx.shared.request, (flow, msg[4])
                )
            elif kind == "onsched":
                agent = self.fabric.hosts[msg[3]].agent
                allocs = [(slot, self.flow_by_fid[fid]) for slot, fid in msg[4]]
                self.env.inject(when, key, agent.on_schedule, (allocs,))
            else:  # pragma: no cover - protocol error
                raise SimulationError(f"unknown cross-shard message kind {kind!r}")

    def begin_round(self, horizon: float, msgs: List[Tuple]) -> None:
        t0 = time.perf_counter()
        self.journal.clear()
        self._inject(msgs)
        self.env.run_window(horizon, self.guard)
        self.wall += time.perf_counter() - t0

    def report(self) -> Tuple[float, List[Tuple], List[Tuple]]:
        out, self.outbox = self.outbox, []
        comps = list(self.completions)
        self.completions.clear()
        return self.env.next_time(), out, comps

    # -- termination ----------------------------------------------------
    def _rollback(self, cut: Tuple[float, Tuple]) -> int:
        col, fab = self.collector, self.fabric
        n = 0
        for entry in self.journal:
            if entry[1] <= cut:
                continue
            n += 1
            kind = entry[0]
            if kind == "attr":
                col.__dict__[entry[2]] -= entry[3]
            elif kind == "drop":
                fab.drops_by_hop[entry[2]] -= 1
                fab.drops_total -= 1
            else:  # fdrop
                fab.fault_drops_by_hop[entry[2]] -= 1
                fab.fault_drops_total -= 1
                reason = entry[3]
                fab.fault_drops_by_reason[reason] -= 1
                if fab.fault_drops_by_reason[reason] == 0:
                    del fab.fault_drops_by_reason[reason]
        return n

    def finish(self, cut: Optional[Tuple[float, Tuple]]) -> Dict[str, Any]:
        from repro.experiments.runner import _finalize_hooks

        t0 = time.perf_counter()
        # Finalize on the quiescent (pre-rollback) state: auditors'
        # internal ledgers saw the overrun events too, so reconciling
        # against rolled-back counters would manufacture violations.
        _finalize_hooks(self.ctx)
        rolled = self._rollback(cut) if cut is not None else 0
        col, fab = self.collector, self.fabric
        self.wall += time.perf_counter() - t0
        return {
            "sid": self.sid,
            "counters": {name: getattr(col, name) for name in _COUNTER_ATTRS},
            "first_arrival": col.first_arrival,
            "last_completion": col.last_completion,
            "drops_by_hop": dict(fab.drops_by_hop),
            "drops_total": fab.drops_total,
            "fault_by_hop": dict(fab.fault_drops_by_hop),
            "fault_total": fab.fault_drops_total,
            "fault_by_reason": dict(fab.fault_drops_by_reason),
            "events": self.env.events_processed,
            "rolled_back": rolled,
            "msgs_out": self.msgs_out,
            "wall": self.wall,
            "audits": _summarize_auditors(self.ctx.hooks),
        }


# ======================================================================
# Audit merging
# ======================================================================

def _summarize_auditors(hooks) -> Optional[List[Dict[str, Any]]]:
    auditors = [h for h in hooks if isinstance(h, Auditor)]
    if not auditors:
        return None
    out = []
    for a in auditors:
        out.append({
            "name": a.name,
            "checks": [
                (name, c.description, c.checked, c.violation_count,
                 list(c.violations))
                for name, c in a.checks.items()
            ],
            "order": list(a._order),
            "context": dict(a.context),
        })
    return out


class _MergedAuditor:
    """Duck-typed Auditor built from per-shard summaries, so the
    parent's :class:`AuditReport` renders merged checks transparently."""

    def __init__(self, name: str, summaries: List[Dict[str, Any]]) -> None:
        self.name = name
        self.checks: Dict[str, InvariantCheck] = {}
        self._order: List = []
        self.context: Dict[str, Any] = {}
        for s in summaries:
            for cname, desc, checked, vcount, violations in s["checks"]:
                check = self.checks.get(cname)
                if check is None:
                    check = InvariantCheck(cname, desc)
                    self.checks[cname] = check
                check.checked += checked
                check.violation_count += vcount
                for v in violations:
                    if len(check.violations) < 20:
                        check.violations.append(v)
            self._order.extend(s["order"])
            for k, v in s["context"].items():
                prior = self.context.get(k)
                if isinstance(v, (int, float)) and isinstance(prior, (int, float)):
                    self.context[k] = prior + v
                elif prior is None:
                    self.context[k] = v
        self._order.sort(key=lambda v: v.time)

    @property
    def ok(self) -> bool:
        return all(c.violation_count == 0 for c in self.checks.values())

    @property
    def violations(self):
        return list(self._order)


def _merge_audits(finals: List[Dict[str, Any]]) -> Optional[AuditReport]:
    per_shard = [f["audits"] for f in finals]
    if not any(per_shard):
        return None
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    order: List[str] = []
    for audits in per_shard:
        if not audits:
            continue
        for summary in audits:
            name = summary["name"]
            if name not in by_name:
                by_name[name] = []
                order.append(name)
            by_name[name].append(summary)
    return AuditReport([_MergedAuditor(n, by_name[n]) for n in order])


# ======================================================================
# Executors
# ======================================================================

class _LocalShard:
    """In-process handle (also the fallback inside daemonic workers)."""

    def __init__(self, spec, plan: ShardPlan, sid: int) -> None:
        self.rt = ShardRuntime(spec, plan, sid)
        self._pending: Optional[Tuple[float, List]] = None
        self._cut: Optional[Tuple] = None

    def recv_ready(self) -> float:
        return self.rt.env.next_time()

    def start_round(self, horizon: float, msgs: List[Tuple]) -> None:
        self._pending = (horizon, msgs)

    def collect(self):
        horizon, msgs = self._pending
        self.rt.begin_round(horizon, msgs)
        return self.rt.report()

    def send_stop(self, cut) -> None:
        self._cut = cut

    def recv_final(self) -> Dict[str, Any]:
        return self.rt.finish(self._cut)

    def shutdown(self) -> None:
        pass


class _KeyCodec:
    """Ships nested lineage keys over a pipe without recursive pickling.

    Lineage chains nest one tuple per generation; pickling them
    recursively overflows the interpreter recursion limit within a few
    hundred events of a port's busy chain.  Instead, each direction of
    a worker pipe carries one codec pair: the encoder walks a chain
    iteratively and sends only the frames the peer has not seen
    (id-interned, tuples kept alive so ids stay valid), and the decoder
    rebuilds them into an append-only table indexed by frame id — so a
    frame crosses the wire at most once and shared structure on the
    sender stays shared on the receiver.  Requires FIFO delivery and
    that every encoded payload is decoded exactly once, in order, which
    the single-threaded pipe protocol guarantees.
    """

    __slots__ = ("_ids", "_keep", "_table")

    def __init__(self) -> None:
        self._ids: Dict[int, int] = {}
        self._keep: List[Tuple] = []
        self._table: List[Tuple] = []

    def encode(self, key: Tuple) -> Tuple[int, List[Tuple]]:
        suffix = []
        cur = key
        ids = self._ids
        while cur != () and id(cur) not in ids:
            suffix.append(cur)
            cur = cur[1]
        ref = -1 if cur == () else ids[id(cur)]
        frames = []
        for tup in reversed(suffix):
            frames.append((tup[0], ref, tup[2], tup[3], tup[4], tup[5]))
            ref = len(self._keep)
            ids[id(tup)] = ref
            self._keep.append(tup)
        return (ref, frames)

    def decode(self, enc: Tuple[int, List[Tuple]]) -> Tuple:
        ref, frames = enc
        table = self._table
        for t, pref, intra, rc, sid, lseq in frames:
            parent = () if pref < 0 else table[pref]
            table.append((t, parent, intra, rc, sid, lseq))
        return () if ref < 0 else table[ref]


def _encode_msg(codec: _KeyCodec, msg: Tuple) -> Tuple:
    return (msg[0], msg[1], codec.encode(msg[2])) + msg[3:]


def _decode_msg(codec: _KeyCodec, msg: Tuple) -> Tuple:
    return (msg[0], msg[1], codec.decode(msg[2])) + msg[3:]


def _shard_worker(conn, spec, plan: ShardPlan, sid: int) -> None:
    # The whole worker life runs on a big-stack thread: every lineage
    # comparison (heap, sort, rollback) can recurse per generation.
    _call_deep(_shard_worker_main, conn, spec, plan, sid)


def _shard_worker_main(conn, spec, plan: ShardPlan, sid: int) -> None:
    try:
        rt = ShardRuntime(spec, plan, sid)
        enc = _KeyCodec()  # worker -> parent
        dec = _KeyCodec()  # parent -> worker
        conn.send(("ready", rt.env.next_time()))
        while True:
            msg = conn.recv()
            if msg[0] == "round":
                rt.begin_round(msg[1], [_decode_msg(dec, m) for m in msg[2]])
                t_next, out, comps = rt.report()
                conn.send((
                    "report", t_next,
                    [(dst, _encode_msg(enc, m)) for dst, m in out],
                    [(fid, fin, (w, enc.encode(k))) for fid, fin, (w, k) in comps],
                ))
            elif msg[0] == "stop":
                cut = msg[1]
                if cut is not None:
                    cut = (cut[0], dec.decode(cut[1]))
                conn.send(("final", rt.finish(cut)))
                return
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unknown coordinator message {msg[0]!r}")
    except BaseException:  # pragma: no cover - exercised via fault paths
        import traceback

        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


class _ProcShard:
    """Forked-process handle; fork keeps spec objects un-pickled."""

    def __init__(self, spec, plan: ShardPlan, sid: int, mpctx) -> None:
        self.conn, child = mpctx.Pipe()
        self.proc = mpctx.Process(
            target=_shard_worker, args=(child, spec, plan, sid), daemon=True
        )
        self.proc.start()
        child.close()
        self._enc = _KeyCodec()  # parent -> worker
        self._dec = _KeyCodec()  # worker -> parent

    def _recv(self):
        if not self.conn.poll(_WORKER_TIMEOUT_S):
            raise RuntimeError(
                "shard worker unresponsive after "
                f"{_WORKER_TIMEOUT_S:.0f}s; aborting run"
            )
        msg = self.conn.recv()
        if msg[0] == "error":
            raise RuntimeError(f"shard worker failed:\n{msg[1]}")
        return msg

    def recv_ready(self) -> float:
        return self._recv()[1]

    def start_round(self, horizon: float, msgs: List[Tuple]) -> None:
        self.conn.send(
            ("round", horizon, [_encode_msg(self._enc, m) for m in msgs])
        )

    def collect(self):
        msg = self._recv()
        out = [(dst, _decode_msg(self._dec, m)) for dst, m in msg[2]]
        comps = [
            (fid, fin, (w, self._dec.decode(k))) for fid, fin, (w, k) in msg[3]
        ]
        return msg[1], out, comps

    def send_stop(self, cut) -> None:
        if cut is not None:
            cut = (cut[0], self._enc.encode(cut[1]))
        self.conn.send(("stop", cut))

    def recv_final(self) -> Dict[str, Any]:
        return self._recv()[1]

    def shutdown(self) -> None:
        try:
            self.conn.close()
        except Exception:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5.0)


def _drive(handles, expected: int, guard: float, lookahead: float):
    """The shared coordinator: one round loop for both transports, so
    in-process and multiprocess runs are byte-identical by construction."""
    t_nexts = [h.recv_ready() for h in handles]
    held: List[List[Tuple]] = [[] for _ in handles]
    completions: List[Tuple] = []
    rounds = 0
    msgs = 0
    while True:
        if expected > 0 and len(completions) >= expected:
            cut = max(c[2] for c in completions)
            break
        horizon = next_window(
            t_nexts, [m[1] for q in held for m in q], lookahead, guard
        )
        if horizon is None:
            cut = None
            break
        for handle, queue in zip(handles, held):
            handle.start_round(horizon, queue)
        held = [[] for _ in handles]
        for i, handle in enumerate(handles):
            t_next, outbox, comps = handle.collect()
            t_nexts[i] = t_next
            completions.extend(comps)
            for dst, msg in outbox:
                if msg[1] + 1e-12 < horizon:
                    raise SimulationError(
                        f"conservative-sync violation: message at t={msg[1]} "
                        f"inside granted horizon {horizon}"
                    )
                held[dst].append(msg)
                msgs += 1
        rounds += 1
    for handle in handles:
        handle.send_stop(cut)
    finals = [handle.recv_final() for handle in handles]
    return finals, completions, rounds, msgs, cut


# ======================================================================
# Support gate
# ======================================================================

def _fastpass_ctrl_latency(spec, topo) -> float:
    from repro.protocols.fastpass.config import FastpassConfig

    config = spec.protocol_config
    if config is None:
        if spec.protocol == "ideal":
            return 0.0  # ideal_config pins control_latency=0.0
        config = FastpassConfig()
    if hasattr(config, "resolve"):
        config = config.resolve(topo)
    return getattr(config, "ctrl_latency", 0.0)


def _unsupported_reason(spec) -> Optional[str]:
    """Why this spec must run serially (None = shardable)."""
    from repro.net.fattree import FatTreeConfig

    topo = spec.with_topology_buffer()
    if isinstance(topo, FatTreeConfig):
        return "fat-tree topologies are not partitioned yet"
    if spec.protocol not in _SUPPORTED_PROTOCOLS:
        return f"protocol {spec.protocol!r} has no shard support declaration"
    if spec.observability is not None:
        return "observability hooks cannot ship state across shards"
    if spec.stability_samples > 0:
        return "stability sampling needs the global in-flight view"
    for hook in spec.instruments:
        if not isinstance(hook, Auditor):
            return f"instrument {type(hook).__name__} is not a mergeable Auditor"
        try:
            type(hook)()
        except Exception:
            return f"instrument {type(hook).__name__} cannot be re-instantiated per shard"
    faults = spec.faults
    if faults is not None and not faults.is_empty():
        if spec.protocol in ("fastpass", "ideal"):
            return "fault plans on centrally-arbitrated protocols"
        for rule in faults.scripted:
            if rule.link is None:
                return "scripted drops without a link filter span shards"
    if spec.protocol in ("fastpass", "ideal"):
        if _fastpass_ctrl_latency(spec, topo) < topo.propagation_delay:
            return "arbiter control latency below the shard lookahead"
    return None


# ======================================================================
# Entry point
# ======================================================================

def _resolve_transport(tuning: SimTuning, n_shards: int) -> str:
    import multiprocessing as mp

    choice = tuning.shard_transport
    can_fork = "fork" in mp.get_all_start_methods()
    daemonic = mp.current_process().daemon
    if choice == "inprocess":
        return "inprocess"
    if choice == "processes":
        if not can_fork or daemonic:
            warnings.warn(
                "shard_transport='processes' unavailable here "
                "(no fork or already inside a daemonic worker); "
                "using the in-process executor",
                RuntimeWarning,
                stacklevel=3,
            )
            return "inprocess"
        return "processes"
    # auto
    if n_shards > 1 and can_fork and not daemonic:
        return "processes"
    return "inprocess"


def run_sharded(spec):
    """Run ``spec`` sharded per :class:`ShardPlan`; None = unsupported.

    The returned :class:`~repro.experiments.spec.ExperimentResult` is
    byte-identical (``run_digest``) to the serial run of the same spec.
    """
    reason = _unsupported_reason(spec)
    if reason is not None:
        warnings.warn(
            f"sharded execution unavailable ({reason}); running serially",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    # Coordinator-side lineage comparisons (completion-cut max, local
    # shard execution under the in-process transport) recurse just like
    # worker-side ones; run the whole coordination on a deep stack.
    return _call_deep(_run_sharded_impl, spec)


def _run_sharded_impl(spec):
    wall0 = time.perf_counter()
    tuning = spec.tuning if spec.tuning is not None else SimTuning()
    topo = spec.with_topology_buffer()
    n_shards = resolve_shard_count(tuning, topo)
    plan = ShardPlan.build(topo, n_shards)
    lookahead = topo.propagation_delay
    transport = _resolve_transport(tuning, plan.n_shards)

    # The parent regenerates the flow list itself (same seed, same
    # generator) for the result records and the termination target.
    from repro.experiments.runner import _default_time_guard, _generate_flows
    from repro.net.topology import Fabric

    env0 = EventLoop()
    fab0 = Fabric(env0, topo, SeededRng(spec.seed))
    flows = _generate_flows(spec, fab0, SeededRng(spec.seed))
    flows.sort(key=lambda f: f.arrival)
    guard = _default_time_guard(spec, flows)

    handles: List[Any] = []
    try:
        if transport == "processes":
            import multiprocessing as mp

            mpctx = mp.get_context("fork")
            handles = [
                _ProcShard(spec, plan, sid, mpctx)
                for sid in range(plan.n_shards)
            ]
        else:
            handles = [
                _LocalShard(spec, plan, sid) for sid in range(plan.n_shards)
            ]
        finals, completions, rounds, msgs, cut = _drive(
            handles, len(flows), guard, lookahead
        )
    finally:
        for handle in handles:
            handle.shutdown()

    return _assemble(
        spec, topo, plan, fab0, flows, finals, completions,
        rounds, msgs, cut, transport, wall0,
    )


def _assemble(spec, topo, plan, fab0, flows, finals, completions,
              rounds, msgs, cut, transport, wall0):
    from repro.metrics.collector import MetricsCollector
    from repro.metrics.drops import DropStats
    from repro.metrics.records import records_from_flows
    from repro.metrics.throughput import per_host_goodput_gbps
    from repro.experiments.spec import ExperimentResult

    flow_by_fid = {f.fid: f for f in flows}
    for fid, finish, _pair in completions:
        flow_by_fid[fid].finish = finish
    records = records_from_flows(flows, fab0)

    counters = {name: 0 for name in _COUNTER_ATTRS}
    by_hop: Dict[int, int] = {1: 0, 2: 0, 3: 0, 4: 0}
    total_drops = 0
    fault_total = 0
    events = 0
    first_arrival = None
    last_completion = None
    for final in finals:
        for name, value in final["counters"].items():
            counters[name] += value
        for hop, n in final["drops_by_hop"].items():
            by_hop[hop] = by_hop.get(hop, 0) + n
        total_drops += final["drops_total"]
        fault_total += final["fault_total"]
        events += final["events"]
        if final["first_arrival"] is not None:
            if first_arrival is None or final["first_arrival"] < first_arrival:
                first_arrival = final["first_arrival"]
        if final["last_completion"] is not None:
            if last_completion is None or final["last_completion"] > last_completion:
                last_completion = final["last_completion"]

    shim = MetricsCollector()
    shim.payload_bytes_delivered = counters["payload_bytes_delivered"]
    shim.first_arrival = first_arrival
    shim.last_completion = last_completion
    duration = shim.duration()

    stats = ShardRunStats(
        n_shards=plan.n_shards,
        transport=transport,
        rounds=rounds,
        cross_shard_msgs=msgs,
        cut=cut is not None,
        shards=tuple(
            ShardStat(
                sid=final["sid"],
                racks=plan.rack_ranges[final["sid"]],
                events_processed=final["events"],
                rolled_back=final["rolled_back"],
                wall_seconds=final["wall"],
            )
            for final in finals
        ),
    )
    return ExperimentResult(
        spec=spec,
        records=records,
        drops=DropStats(
            by_hop=by_hop,
            total_drops=total_drops,
            pkts_injected=counters["data_pkts_injected"],
            pkts_retransmitted=counters["data_pkts_retransmitted"],
        ),
        duration=duration,
        n_flows=len(flows),
        n_completed=len(completions),
        payload_bytes_delivered=counters["payload_bytes_delivered"],
        data_pkts_injected=counters["data_pkts_injected"],
        data_pkts_retransmitted=counters["data_pkts_retransmitted"],
        control_pkts_sent=counters["control_pkts_sent"],
        control_bytes_sent=counters["control_bytes_sent"],
        goodput_gbps_per_host=per_host_goodput_gbps(shim, topo.n_hosts),
        stability=[],
        events_processed=events,
        wall_seconds=time.perf_counter() - wall0,
        fault_drops=fault_total,
        audit=_merge_audits(finals),
        telemetry=None,
        shard_stats=stats,
    )
