"""Hot-path tuning knobs for one simulation run.

Every optimization in the per-packet hot path — the hierarchical timer
wheel, fused per-hop port events and packet pooling — is
behaviour-preserving by construction: a run's digest
(:func:`repro.validate.digest.run_digest`) is byte-identical with any
combination of these three knobs.  Every run executes in one process on
one event loop whatever the knobs say.  They exist as knobs anyway, for
two reasons:

* the determinism suite proves the byte-identity claim by running the
  same spec with everything on and everything off;
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
    """

    timer_wheel: bool = True
    fused_ports: bool = True
    packet_pool: bool = True
