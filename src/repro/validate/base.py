"""Auditor base machinery: violations, per-invariant checks, reports.

An :class:`Auditor` is an instrumentation hook (it binds to a run's
:class:`~repro.sim.context.SimContext` via ``ExperimentSpec.instruments``
/ ``SimContext.add_hook``) that watches the event stream *while the
simulation runs* and records :class:`Violation`\\ s the moment an
invariant breaks — with the simulated time and event context of the
first offending event, not a post-hoc diff of summary counters.

Auditors never raise into the simulation: a broken invariant is
evidence to report, and aborting mid-run would destroy the very state
worth inspecting.  After the run, the experiment runner calls
``finalize(ctx)`` (end-of-run ledger reconciliation) and collects every
auditor's checks into one :class:`AuditReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["Violation", "InvariantCheck", "Auditor", "AuditReport"]

#: Violations kept verbatim per invariant; later ones only bump the count.
_KEEP_VIOLATIONS = 20


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach.

    ``time`` is the simulated clock at the offending event; ``context``
    carries event-specific fields (fid, seq, port name, counters...).
    """

    auditor: str
    invariant: str
    time: float
    message: str
    context: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "auditor": self.auditor,
            "invariant": self.invariant,
            "time": self.time,
            "message": self.message,
            "context": dict(self.context),
        }

    def __str__(self) -> str:
        ctx = ", ".join(f"{k}={v}" for k, v in self.context.items())
        return (
            f"[{self.auditor}/{self.invariant}] t={self.time:.9f}: "
            f"{self.message}" + (f" ({ctx})" if ctx else "")
        )


class InvariantCheck:
    """Pass/fail state of one named invariant within one auditor."""

    __slots__ = ("name", "description", "checked", "violation_count", "violations")

    def __init__(self, name: str, description: str) -> None:
        self.name = name
        self.description = description
        self.checked = 0
        self.violation_count = 0
        self.violations: List[Violation] = []

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "description": self.description,
            "ok": self.ok,
            "checked": self.checked,
            "violations": self.violation_count,
            "first_violations": [v.to_dict() for v in self.violations],
        }


class Auditor:
    """Base class for run-time invariant auditors.

    Subclasses declare ``name`` and the invariants they police (via
    :meth:`_declare`), implement whichever collector-observer callbacks
    they need, and optionally :meth:`finalize` for end-of-run ledger
    reconciliation.  The base class handles hook wiring: binding to the
    context registers the auditor as a collector observer, and
    :meth:`_tap_drops` / :meth:`_tap_fault_drops` subscribe it to the
    fabric's drop lists.
    """

    name = "auditor"

    def __init__(self) -> None:
        self.ctx = None
        self.checks: Dict[str, InvariantCheck] = {}
        self._order: List[Violation] = []  # all violations, in event order
        #: Free-form end-of-run facts (not violations) the auditor wants
        #: to surface — e.g. queue high-water marks.  Filled by
        #: :meth:`finalize`; aggregated into ``AuditReport.context``.
        self.context: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Hook wiring
    # ------------------------------------------------------------------
    def bind(self, ctx) -> "Auditor":
        """Attach to a run (SimContext hook protocol entry point)."""
        self.ctx = ctx
        ctx.collector.add_observer(self)
        return self

    def _tap_drops(self) -> None:
        """Subscribe :meth:`on_drop` to the fabric's congestion drops."""
        self.ctx.fabric.drop_hooks.append(self.on_drop)

    def _tap_fault_drops(self) -> None:
        """Subscribe :meth:`on_fault_drop` to the fabric's injected-fault
        drops (see :meth:`repro.net.topology.Fabric.record_fault_drop`),
        ledgered separately from congestion drops."""
        self.ctx.fabric.fault_drop_hooks.append(self.on_fault_drop)

    # ------------------------------------------------------------------
    # Invariant bookkeeping
    # ------------------------------------------------------------------
    def _declare(self, name: str, description: str) -> InvariantCheck:
        check = InvariantCheck(name, description)
        self.checks[name] = check
        return check

    def _checked(self, name: str, n: int = 1) -> None:
        self.checks[name].checked += n

    def _violate(self, name: str, message: str, **context: Any) -> Violation:
        now = self.ctx.env.now if self.ctx is not None else 0.0
        violation = Violation(self.name, name, now, message, context)
        check = self.checks[name]
        check.violation_count += 1
        if len(check.violations) < _KEEP_VIOLATIONS:
            check.violations.append(violation)
        self._order.append(violation)
        return violation

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    @property
    def violations(self) -> List[Violation]:
        return list(self._order)

    # ------------------------------------------------------------------
    # Collector-observer interface (subclasses override what they need)
    # ------------------------------------------------------------------
    def flow_arrived(self, flow, now: float) -> None:
        pass

    def flow_completed(self, flow, now: float) -> None:
        pass

    def data_sent(self, pkt, first_time: bool) -> None:
        pass

    def data_delivered(self, pkt) -> None:
        pass

    def data_duplicate(self, pkt) -> None:
        pass

    def control_sent(self, pkt) -> None:
        pass

    def on_drop(self, pkt, hop_index: int) -> None:
        pass

    def on_fault_drop(self, pkt, hop_index: int) -> None:
        pass

    # ------------------------------------------------------------------
    def finalize(self, ctx) -> None:
        """End-of-run reconciliation; called once by the runner."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        bad = sum(c.violation_count for c in self.checks.values())
        return f"{type(self).__name__}(ok={self.ok}, violations={bad})"


class AuditReport:
    """Aggregated pass/fail verdict across a run's auditors."""

    def __init__(self, auditors: List[Auditor]) -> None:
        self.auditors = list(auditors)

    @classmethod
    def from_hooks(cls, hooks) -> Optional["AuditReport"]:
        """Build a report from a context's hook list (None if no auditors)."""
        auditors = [h for h in hooks if isinstance(h, Auditor)]
        if not auditors:
            return None
        return cls(auditors)

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return all(a.ok for a in self.auditors)

    @property
    def total_violations(self) -> int:
        return sum(c.violation_count for a in self.auditors for c in a.checks.values())

    def first_violation(self) -> Optional[Violation]:
        """The earliest-recorded violation (event order, then sim time)."""
        candidates = [a._order[0] for a in self.auditors if a._order]
        if not candidates:
            return None
        return min(candidates, key=lambda v: v.time)

    def violations(self) -> List[Violation]:
        out: List[Violation] = []
        for auditor in self.auditors:
            out.extend(auditor._order)
        out.sort(key=lambda v: v.time)
        return out

    @property
    def context(self) -> Dict[str, Dict[str, Any]]:
        """Per-auditor end-of-run facts (only auditors that set any)."""
        return {a.name: dict(a.context) for a in self.auditors if a.context}

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        first = self.first_violation()
        return {
            "ok": self.ok,
            "total_violations": self.total_violations,
            "first_violation": first.to_dict() if first is not None else None,
            "context": self.context,
            "auditors": {
                a.name: {
                    "ok": a.ok,
                    "invariants": {n: c.to_dict() for n, c in a.checks.items()},
                }
                for a in self.auditors
            },
        }

    def summary(self) -> str:
        """Human-readable per-invariant table."""
        lines = [f"audit: {'PASS' if self.ok else 'FAIL'} "
                 f"({self.total_violations} violations)"]
        for auditor in self.auditors:
            for name, check in auditor.checks.items():
                status = "ok " if check.ok else "FAIL"
                lines.append(
                    f"  [{status}] {auditor.name}/{name}: "
                    f"checked={check.checked} violations={check.violation_count}"
                )
                if check.violations:
                    lines.append(f"         first: {check.violations[0]}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AuditReport(ok={self.ok}, violations={self.total_violations})"
