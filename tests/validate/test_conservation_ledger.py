"""The conservation auditor's per-flow ledgers in bounded memory.

:class:`ConservationAuditor` keeps byte maps for open flows and frees
them when a flow completes cleanly.  A differential test holds it to a
reference that keeps full per-flow seq sets for every flow ever seen
(the plain definition of the invariants): for any stream of sends,
deliveries, duplicates, drops and completions, with repeated and
out-of-range seqs, both must record the same violations in the same
order and the same ``checked`` counts.  A real audited run then shows
the memory side: no cleanly completed flow keeps a ledger.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import make_spec, run_experiment
from repro.net.packet import Flow, PacketType
from repro.sim.units import HEADER_BYTES
from repro.validate import ConservationAuditor


class SetReference(ConservationAuditor):
    """The live hooks over full sent/delivered seq sets per flow."""

    def __init__(self):
        super().__init__()
        self.sent, self.delivered = {}, {}

    def data_sent(self, pkt, first_time):
        self._send_events += 1
        self._checked("unique-injection")
        fid, seq = pkt.flow.fid, pkt.seq
        seqs = self.sent.setdefault(fid, set())
        if not 0 <= seq < pkt.flow.n_pkts:
            self._violate("unique-injection", f"flow {fid} sent out-of-range seq {seq}",
                          fid=fid, seq=seq, n_pkts=pkt.flow.n_pkts)
            return
        if first_time and seq in seqs:
            self._violate("unique-injection", f"flow {fid} seq {seq} injected as first-time twice",
                          fid=fid, seq=seq)
        elif not first_time and seq not in seqs:
            self._violate("unique-injection",
                          f"flow {fid} seq {seq} retransmitted before any injection",
                          fid=fid, seq=seq)
        seqs.add(seq)

    def data_delivered(self, pkt):
        self._deliver_events += 1
        self._checked("delivery-once")
        self._checked("delivery-accounted")
        fid, seq = pkt.flow.fid, pkt.seq
        delivered = self.delivered.setdefault(fid, set())
        if seq in delivered:
            self._violate("delivery-once", f"flow {fid} seq {seq} counted delivered twice",
                          fid=fid, seq=seq)
            return
        if seq not in self.sent.get(fid, ()):
            self._violate("delivery-accounted", f"flow {fid} seq {seq} delivered but never sent",
                          fid=fid, seq=seq)
        expected = pkt.flow.payload_of(seq) if 0 <= seq < pkt.flow.n_pkts else -1
        payload = max(pkt.size - HEADER_BYTES, 0)
        if payload != expected:
            self._violate("delivery-accounted",
                          f"flow {fid} seq {seq} delivered {payload}B, expected {expected}B",
                          fid=fid, seq=seq, payload=payload, expected=expected)
        delivered.add(seq)

    def _was_delivered(self, flow, seq):
        return seq in self.delivered.get(flow.fid, ())

    def _was_sent(self, flow, seq):
        return flow is not None and seq in self.sent.get(flow.fid, ())

    def flow_completed(self, flow, now):
        # Same checks, from the sets: len(delivered) stands in for counts.
        self._checked("completion")
        if flow.fid in self._completed:
            self._violate("completion", f"flow {flow.fid} completed twice", fid=flow.fid)
            return
        self._completed.add(flow.fid)
        n = len(self.delivered.get(flow.fid, ()))
        if n != flow.n_pkts:
            self._violate("completion",
                          f"flow {flow.fid} completed with {n}/{flow.n_pkts} packets delivered",
                          fid=flow.fid, delivered=n, n_pkts=flow.n_pkts)


class Pkt:
    def __init__(self, flow, seq, size=0, ptype=PacketType.DATA):
        self.flow, self.seq, self.size, self.ptype = flow, seq, size, ptype


FLOWS = [
    Flow(0, 0, 1, 1460 * 3, 0.0),  # 3 full packets
    Flow(1, 1, 2, 100, 0.0),       # 1 short packet
    Flow(2, 2, 0, 4000, 0.0),      # 3 packets, short last
]

_event = st.tuples(
    st.sampled_from(
        ["arrive", "send", "resend", "deliver", "misdeliver", "duplicate",
         "drop", "fault_drop", "complete", "fill"]
    ),
    st.sampled_from(FLOWS + [None]),
    st.integers(min_value=-1, max_value=3),
)
ONE, THREE = FLOWS[1], FLOWS[2]


def _replay(auditor, events):
    for kind, flow, seq in events:
        if flow is None and kind not in ("drop", "fault_drop"):
            flow = FLOWS[0]
        fill = range(flow.n_pkts) if kind == "fill" else ()
        for s in fill:  # a clean life: every seq sent, then delivered
            auditor.data_sent(Pkt(flow, s), True)
        for s in fill:
            auditor.data_delivered(Pkt(flow, s, HEADER_BYTES + flow.payload_of(s)))
        if kind == "arrive":
            auditor.flow_arrived(flow, 0.0)
        elif kind in ("send", "resend"):
            auditor.data_sent(Pkt(flow, seq), kind == "send")
        elif kind in ("deliver", "misdeliver"):
            good = kind == "deliver" and 0 <= seq < flow.n_pkts
            payload = flow.payload_of(seq) if good else 7
            auditor.data_delivered(Pkt(flow, seq, HEADER_BYTES + payload))
        elif kind == "duplicate":
            auditor.data_duplicate(Pkt(flow, seq))
        elif kind == "drop":
            auditor.on_drop(Pkt(flow, seq), 1)
        elif kind == "fault_drop":
            auditor.on_fault_drop(Pkt(flow, seq), 2)
        elif kind in ("complete", "fill"):
            auditor.flow_completed(flow, 0.0)


@settings(max_examples=500)
@given(st.lists(_event, max_size=60))
# Delivered but never sent, then completed: the flow must stay open.
@example([("deliver", ONE, 0), ("complete", ONE, 0), ("send", ONE, 0)])
# A cleanly closed flow answers every in-range question with yes.
@example([("fill", THREE, 0), ("resend", THREE, 2), ("send", THREE, 1),
          ("duplicate", THREE, 0), ("drop", THREE, 1), ("fault_drop", THREE, 2),
          ("deliver", THREE, 2), ("complete", THREE, 0)])
# Out-of-range deliveries count towards the completion message and are
# remembered after closure.
@example([("misdeliver", ONE, 3), ("fill", ONE, 0), ("duplicate", ONE, 3),
          ("misdeliver", ONE, 3), ("duplicate", ONE, -1), ("arrive", ONE, 0)])
def test_byte_map_ledgers_match_full_seq_sets(events):
    audited, reference = ConservationAuditor(), SetReference()
    _replay(audited, events)
    _replay(reference, events)
    assert audited.violations == reference.violations
    assert {k: c.checked for k, c in audited.checks.items()} == {
        k: c.checked for k, c in reference.checks.items()
    }
    # A closed flow has no ledger left.
    assert not audited._closed & audited._open.keys()


@pytest.mark.parametrize("protocol", ["phost", "pfabric"])
def test_clean_run_keeps_no_ledger_for_completed_flows(protocol):
    auditor = ConservationAuditor()
    spec = make_spec(protocol, "websearch", "tiny", seed=42).variant(instruments=(auditor,))
    result = run_experiment(spec)
    assert result.audit.ok, result.audit.summary()
    assert result.n_completed == result.n_flows
    assert auditor._closed == {r.fid for r in result.records}
    assert not auditor._open and not auditor._overflow
