"""Hot-path tuning knobs for one simulation run.

Every optimization in the per-packet hot path — the hierarchical timer
wheel, fused per-hop port events, and packet pooling — is
behaviour-preserving by construction: a run's digest
(:func:`repro.validate.digest.run_digest`) is byte-identical with any
combination of these knobs.  They exist as knobs anyway, for three
reasons:

* the determinism suite proves the byte-identity claim by running the
  same spec with everything on and everything off;
* benchmarking needs an honest baseline (``SimTuning.baseline()``);
* if an optimization is ever suspected in a bug hunt, it can be switched
  off in isolation without touching code.

The default (everything on) is what experiments should use.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SimTuning"]


@dataclass(frozen=True)
class SimTuning:
    """Per-run switches for the hot-path optimizations.

    Attributes:
        timer_wheel: Route :meth:`~repro.sim.engine.EventLoop.schedule_timer`
            through the hierarchical timing wheel instead of the heap.
        fused_ports: Ports fuse serialization-done and propagation-
            arrival into one reused heap entry per hop.
        packet_pool: Recycle :class:`~repro.net.packet.Packet` objects
            through a freelist once they are delivered.
        fused_dataplane: Let reference dataplane programs compile to
            their hand-optimized queue classes
            (:class:`~repro.net.queues.PriorityQueue` /
            :class:`~repro.net.queues.PFabricQueue`) instead of running
            on the generic :class:`~repro.dataplane.ProgramQueue`
            engine.  Digest-inert like every other knob; turn off to
            exercise the match-action reference semantics (with full
            per-stage ledgers) on any protocol.
        shards: Partition the fabric into per-rack shards that run
            concurrently under conservative synchronization (see
            :mod:`repro.sim.shard`).  ``"off"`` (default) is the
            single-process reference path; ``"auto"`` picks
            ``min(n_racks, cpus, 8)``; an integer requests that many
            shards (clamped to the rack count).  Digest-inert like
            every other knob: sharded runs are byte-identical to
            serial ones on supported specs, and unsupported specs fall
            back to serial with a warning.
        shard_transport: How shard workers execute. ``"auto"`` uses
            worker processes when the platform supports fork and the
            current process may spawn children, else the in-process
            round-robin executor; ``"inprocess"`` / ``"processes"``
            force one or the other.  Both executors are byte-identical.
    """

    timer_wheel: bool = True
    fused_ports: bool = True
    packet_pool: bool = True
    fused_dataplane: bool = True
    shards: object = "off"
    shard_transport: str = "auto"

    def __post_init__(self) -> None:
        shards = self.shards
        if isinstance(shards, bool) or not (
            shards in ("off", "auto")
            or (isinstance(shards, int) and shards >= 1)
        ):
            raise ValueError(
                f"shards must be 'off', 'auto', or a positive int, got {shards!r}"
            )
        if self.shard_transport not in ("auto", "inprocess", "processes"):
            raise ValueError(
                f"unknown shard_transport {self.shard_transport!r}; "
                "choose 'auto', 'inprocess', or 'processes'"
            )

    @classmethod
    def baseline(cls) -> "SimTuning":
        """Everything off — the pre-optimization execution path."""
        return cls(timer_wheel=False, fused_ports=False, packet_pool=False)
