"""The fault injector: turns a :class:`FaultPlan` into wire-level taps
and scheduled outage events.

The injector is an ordinary instrument hook (``ctx.add_hook``); the
runner installs it only for non-empty plans, which is what makes the
empty plan byte-identical to no plan at all.  It interposes on links by
replacing each transmitting port's ``peer`` with a :class:`_LinkTap`
(a port binds its arrival to ``self.peer`` when serialization starts,
so the swap covers every packet started after it; the tap decides at
the arrival, so a link that goes down mid-serialization still drops
the packet).  A tapped
packet is dropped *after* the port's send counters ran — from the
fabric's point of view the packet died on the wire, so the per-port
conservation ledger keeps balancing and only the end-to-end ledger
needs the separate fault column.

Determinism: fault draws come from ``SeededRng(plan.seed)`` with one
derived stream per link, never from the run's own RNG — injecting
faults cannot perturb workload generation or spray draws, and a given
(plan, fault seed) replays the same drops against the same traffic.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional

from repro.faults.models import BernoulliLoss, GilbertElliottLoss
from repro.faults.plan import FaultPlan, HostPause, LinkDown, ScriptedDrop
from repro.net.packet import Packet
from repro.sim.randoms import SeededRng

__all__ = ["FaultInjector"]

#: Cap on corrupted packets retained for inspection; the count keeps
#: incrementing past it.
CORRUPT_RETAIN_CAP = 4096

#: Fault-drop reason labels (stable — instruments key off them).
REASONS = ("loss", "corrupt", "link_down", "scripted")


class _LinkTap:
    """Receiving-end wrapper for one link.

    Sits between a port and its real peer: decides drop / corrupt /
    forward per packet.  ``forward_hook`` (tests only) observes every
    packet that actually crosses the wire.
    """

    __slots__ = (
        "injector",
        "real",
        "name",
        "hop",
        "model",
        "corrupt_rate",
        "rng",
        "down",
        "fault_drops",
        "pkts_forwarded",
        "forward_hook",
    )

    def __init__(
        self,
        injector: "FaultInjector",
        real,
        name: str,
        hop: int,
        model,
        corrupt_rate: float,
        rng: Optional[SeededRng],
    ) -> None:
        self.injector = injector
        self.real = real
        self.name = name
        self.hop = hop
        self.model = model
        self.corrupt_rate = corrupt_rate
        self.rng = rng
        self.down = False
        self.fault_drops = 0
        self.pkts_forwarded = 0
        self.forward_hook: Optional[Callable[[Packet, "_LinkTap"], None]] = None

    def receive(self, pkt: Packet) -> None:
        inj = self.injector
        if self.down:
            inj._ledger(pkt, self, "link_down")
            return
        if inj.scripted_active and inj._match_scripted(pkt, self):
            inj._ledger(pkt, self, "scripted")
            return
        model = self.model
        if model is not None and model.lose(self.rng):
            inj._ledger(pkt, self, "loss")
            return
        rate = self.corrupt_rate
        if rate > 0.0 and self.rng.random() < rate:
            inj._record_corrupt(pkt, self)
            return
        self.pkts_forwarded += 1
        hook = self.forward_hook
        if hook is not None:
            hook(pkt, self)
        self.real.receive(pkt)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "down" if self.down else "up"
        return f"_LinkTap({self.name}, {state}, drops={self.fault_drops})"


class _RuleState:
    """Mutable consumption state of one :class:`ScriptedDrop` rule."""

    __slots__ = ("rule", "ptype_val", "skip_left", "remaining")

    def __init__(self, rule: ScriptedDrop) -> None:
        self.rule = rule
        self.ptype_val = rule.packet_type
        self.skip_left = rule.skip
        self.remaining = rule.count


class FaultInjector:
    """Instrument hook executing one :class:`FaultPlan`.

    Exposed on ``ctx.faults`` after binding.  ``retains_packets``
    mirrors the instrument contract from the packet-pool work: a
    corrupting plan holds dropped packets for inspection, so the runner
    must not recycle them through the pool.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.retains_packets = plan.corrupt_rate > 0.0
        self.ctx = None
        self.taps: Dict[str, _LinkTap] = {}
        self.corrupted: List[Packet] = []
        self.pkts_corrupted = 0
        self.drops_by_reason: Dict[str, int] = {r: 0 for r in REASONS}
        self.links_down_now = 0
        self.link_down_events = 0
        self._rules: List[_RuleState] = []
        self.scripted_active = False
        self._spray_switch: Dict[str, object] = {}
        self._record_fault_drop = None
        self.blackouts_started = 0

    # ------------------------------------------------------------------
    # Hook protocol
    # ------------------------------------------------------------------
    def bind(self, ctx) -> None:
        if self.ctx is not None:
            raise RuntimeError("FaultInjector is single-use; build a new one per run")
        self.ctx = ctx
        ctx.faults = self
        plan = self.plan
        self._record_fault_drop = getattr(ctx.fabric, "record_fault_drop", None)
        self._rules = [_RuleState(r) for r in plan.scripted]
        self.scripted_active = bool(self._rules)
        if plan.wire_faults_active():
            self._install_taps(ctx)
            self._schedule_outages(ctx)
        self._schedule_blackouts(ctx)

    def finalize(self, ctx) -> None:  # matches the instrument interface
        pass

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _install_taps(self, ctx) -> None:
        plan = self.plan
        root = SeededRng(plan.seed)
        for port in ctx.fabric.all_ports():
            if port.peer is None:  # pragma: no cover - unwired test port
                continue
            modeled = plan.models_link(port.name)
            model = None
            corrupt = 0.0
            rng = None
            if modeled:
                if plan.gilbert_elliott is not None:
                    model = GilbertElliottLoss(plan.gilbert_elliott)
                elif plan.loss_rate > 0.0:
                    model = BernoulliLoss(plan.loss_rate)
                corrupt = plan.corrupt_rate
                if model is not None or corrupt > 0.0:
                    rng = root.stream(port.name)
            tap = _LinkTap(self, port.peer, port.name, port.hop_index, model, corrupt, rng)
            port.peer = tap
            self.taps[port.name] = tap
        # Spray-table maintenance: which switch sprays over each uplink
        # (any switch whose routing closure can exclude dead links).
        for switch in ctx.fabric.switches:
            if getattr(switch.route, "set_live_uplinks", None) is None:
                continue
            for port in switch.route.uplinks:
                self._spray_switch[port.name] = switch

    def _schedule_outages(self, ctx) -> None:
        env = ctx.env
        events: List[LinkDown] = list(self.plan.link_downs)
        for pause in self.plan.host_pauses:
            events.extend(self._pause_as_downs(ctx, pause))
        for ev in events:
            tap = self.taps.get(ev.link)
            if tap is None:
                patterns = dict.fromkeys(re.sub(r"\d+", "*", name) for name in self.taps)
                raise ValueError(
                    f"fault plan names unknown link {ev.link!r} "
                    f"(known: {', '.join(patterns)})"
                )
            env.schedule_at(ev.down_at, self._set_link_state, tap, True)
            if ev.up_at != float("inf"):
                env.schedule_at(ev.up_at, self._set_link_state, tap, False)

    def _pause_as_downs(self, ctx, pause: HostPause) -> List[LinkDown]:
        """A paused host is both of its links going dark."""
        hosts = ctx.fabric.hosts
        if pause.host >= len(hosts):
            raise ValueError(f"fault plan pauses unknown host {pause.host}")
        host = hosts[pause.host]
        links = [host.port.name]
        for name, tap in self.taps.items():
            if tap.real is host:
                links.append(name)
        return [
            LinkDown(link=name, down_at=pause.pause_at, up_at=pause.resume_at)
            for name in links
        ]

    def _schedule_blackouts(self, ctx) -> None:
        if not self.plan.arbiter_blackouts:
            return
        set_offline = getattr(ctx.shared, "set_offline", None)
        if set_offline is None:
            return  # no central arbiter in this protocol — inert
        env = ctx.env
        for b in self.plan.arbiter_blackouts:
            env.schedule_at(b.start, self._blackout, set_offline, True)
            env.schedule_at(b.end, self._blackout, set_offline, False)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _set_link_state(self, tap: _LinkTap, down: bool) -> None:
        if tap.down == down:
            return
        tap.down = down
        if down:
            self.links_down_now += 1
            self.link_down_events += 1
        else:
            self.links_down_now -= 1
        switch = self._spray_switch.get(tap.name)
        if switch is not None:
            route = switch.route
            route.set_live_uplinks([p for p in route.uplinks if not self.taps[p.name].down])

    def _blackout(self, set_offline, offline: bool) -> None:
        if offline:
            self.blackouts_started += 1
        set_offline(offline)

    # ------------------------------------------------------------------
    # Per-packet bookkeeping
    # ------------------------------------------------------------------
    def _match_scripted(self, pkt: Packet, tap: _LinkTap) -> bool:
        for rs in self._rules:
            if rs.remaining == 0:
                continue
            rule = rs.rule
            if pkt.ptype != rs.ptype_val:
                continue
            if rule.hop is not None and rule.hop != tap.hop:
                continue
            if rule.link is not None and rule.link != tap.name:
                continue
            if rule.flow is not None and (
                pkt.flow is None or pkt.flow.fid != rule.flow
            ):
                continue
            if rule.seq is not None and pkt.seq != rule.seq:
                continue
            if rs.skip_left > 0:
                rs.skip_left -= 1
                return False  # matched, but still in the skip window
            rs.remaining -= 1
            if rs.remaining == 0 and all(x.remaining == 0 for x in self._rules):
                self.scripted_active = False
            return True
        return False

    def _ledger(self, pkt: Packet, tap: _LinkTap, reason: str) -> None:
        tap.fault_drops += 1
        self.drops_by_reason[reason] += 1
        if self._record_fault_drop is not None:
            self._record_fault_drop(pkt, tap.hop, reason)

    def _record_corrupt(self, pkt: Packet, tap: _LinkTap) -> None:
        self.pkts_corrupted += 1
        if len(self.corrupted) < CORRUPT_RETAIN_CAP:
            self.corrupted.append(pkt)
        self._ledger(pkt, tap, "corrupt")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def drops_total(self) -> int:
        return sum(self.drops_by_reason.values())

    def register_instruments(self, registry) -> None:
        """Surface fault counters as pull-based gauges."""
        for reason in REASONS:
            registry.gauge(
                "fault.drops",
                lambda r=reason: self.drops_by_reason[r],
                reason=reason,
            )
        registry.gauge("fault.links_down", lambda: self.links_down_now)
        registry.gauge("fault.pkts_corrupted", lambda: self.pkts_corrupted)
        registry.gauge("fault.blackouts", lambda: self.blackouts_started)
