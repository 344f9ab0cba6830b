"""The simulation context — one object owning a run's moving parts.

Every experiment assembles the same pieces: an event loop, a seeded RNG,
a fabric, a metrics collector, a resolved protocol configuration and
(for centrally-scheduled transports) protocol-shared state.  Before this
module existed that 6-tuple was threaded positionally through every
factory and driver; :class:`SimContext` replaces the tuple with a single
spine that

* protocol factories receive (``config_factory(ctx)``,
  ``shared_factory(ctx)``, ``agent_factory(host, ctx)`` — see
  :class:`repro.protocols.base.ProtocolSpec`);
* every :class:`~repro.protocols.base.TransportAgent` stores as
  ``self.ctx``;
* instrumentation hooks (auditors, :class:`repro.obs.Telemetry`, a
  :class:`repro.obs.ChromeTraceSink`) bind to via ``bind(ctx)``,
  instead of being hand-wired to a (collector, fabric) pair.

Capabilities a run gains later (the instrument registry, the packet
pool, fault injection, the dataplane binding) hang off this one object
instead of widening five call chains.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim <- net/metrics)
    from repro.metrics.collector import MetricsCollector
    from repro.net.topology import Fabric
    from repro.sim.engine import EventLoop
    from repro.sim.randoms import SeededRng

__all__ = ["SimContext"]


class SimContext:
    """Owns one simulation run's shared components.

    Built in two phases by :func:`repro.experiments.runner.build_simulation`:
    the substrate fields (``env``, ``rng``, ``fabric``, ``collector``)
    are set at construction; ``config`` and ``shared`` are filled in by
    the protocol's factories, which receive the partially-built context
    (they only read the substrate fields).
    """

    __slots__ = (
        "env",
        "rng",
        "fabric",
        "collector",
        "config",
        "shared",
        "hooks",
        "obs",
        "pool",
        "faults",
        "dataplane",
    )

    def __init__(
        self,
        env: "EventLoop",
        rng: "SeededRng",
        fabric: "Fabric",
        collector: "MetricsCollector",
        config: Any = None,
        shared: Any = None,
        hooks: Optional[List[Any]] = None,
    ) -> None:
        self.env = env
        self.rng = rng
        self.fabric = fabric
        self.collector = collector
        #: The run's packet freelist.  Created with the context and never
        #: replaced (agents cache the reference); the runner turns
        #: ``pool.enabled`` off when an attached hook retains packets.
        from repro.net.pool import PacketPool

        self.pool = PacketPool(enabled=True)
        #: Resolved protocol configuration (e.g. a ``PHostConfig`` with
        #: absolute times computed for this topology).
        self.config = config
        #: Protocol-shared state (e.g. the Fastpass arbiter); None for
        #: fully-decentralized transports.
        self.shared = shared
        #: Instrumentation hooks bound to this run (see :meth:`add_hook`).
        self.hooks: List[Any] = list(hooks) if hooks else []
        #: The run's instrument registry (see :mod:`repro.obs`).  Always
        #: present; registration is near-free and nothing is evaluated
        #: until a sink (sampler/exporter) snapshots it.  Imported
        #: lazily to keep ``sim`` free of package-level cycles.
        from repro.obs.registry import InstrumentRegistry

        self.obs = InstrumentRegistry()
        #: The run's bound :class:`repro.faults.FaultInjector`, set by
        #: the injector itself when the runner installs one for a
        #: non-empty fault plan; None in fault-free runs.  Agents may
        #: consult this to arm fault-only recovery timers without
        #: perturbing fault-free event streams.
        self.faults: Any = None
        #: The run's :class:`repro.dataplane.DataplaneBinding` (its switch
        #: and NIC programs); None for hand-wired fabrics.
        self.dataplane: Any = None

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def add_hook(self, hook: Any) -> Any:
        """Bind an instrumentation hook to this run and track it.

        A hook is any object with ``bind(ctx)``; it subscribes to what
        it watches (``collector.add_observer``, ``fabric.drop_hooks``,
        ...).  Returns the hook for chaining.  Hooks arrive from
        ``ExperimentSpec.instruments``, which is user input, so one
        without ``bind`` raises :class:`TypeError` naming it.
        """
        bind = getattr(hook, "bind", None)
        if not callable(bind):
            raise TypeError(
                f"instrumentation hook {hook!r} has no bind(ctx) method"
            )
        bind(self)
        self.hooks.append(hook)
        return hook

    def hooks_of_type(self, cls: type) -> List[Any]:
        """The bound hooks that are instances of ``cls``."""
        return [h for h in self.hooks if isinstance(h, cls)]

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (convenience passthrough)."""
        return self.env.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        proto = type(self.config).__name__ if self.config is not None else "?"
        return (
            f"SimContext(now={self.env.now:.9f}, hosts={len(self.fabric.hosts)}, "
            f"config={proto}, hooks={len(self.hooks)})"
        )
