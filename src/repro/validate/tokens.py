"""pHost token-ledger auditing.

Tokens are pHost's currency: the destination mints them (one per data
packet, paced at one per MTU time), the wire may lose them, and the
source either spends each one on a data packet, lets it lapse, or
discards it (stale arrival for a finished flow, or unspent credit left
when the ACK lands).  The :class:`TokenLedgerAuditor` balances both
sides of that ledger:

* **mint side** — every TOKEN control packet observed on the wire is
  checked against the flow's packet range, and the wire count must
  match the destinations' ``tokens_granted`` counters;
* **spend side** — per-source, ``received == spent + expired +
  discarded + still-held``; and globally, ``minted >= received + stale
  + dropped`` (the difference being tokens still in flight when the run
  ends).  A source holding a token that was never minted — a token
  leak — makes the global ledger go negative.

The auditor is inert (all invariants vacuously pass) for non-pHost
runs.
"""

from __future__ import annotations

from repro.net.packet import PacketType
from repro.validate.base import Auditor

__all__ = ["TokenLedgerAuditor"]


class TokenLedgerAuditor(Auditor):
    """Balances pHost token mint/spend/expire/drop accounting."""

    name = "token-ledger"

    def __init__(self) -> None:
        super().__init__()
        self._declare(
            "token-range",
            "every minted token names a packet inside its flow's range",
        )
        self._declare(
            "mint-accounting",
            "tokens observed on the wire match destination grant counters",
        )
        self._declare(
            "source-balance",
            "per source: received == spent + expired + discarded + held",
        )
        self._declare(
            "global-ledger",
            "minted >= received + stale + dropped (no token appears from nowhere)",
        )
        self._active = False
        self._minted = 0
        self._token_drops = 0
        self._fault_token_drops = 0

    # ------------------------------------------------------------------
    def bind(self, ctx) -> "TokenLedgerAuditor":
        super().bind(ctx)
        self._tap_drops()
        self._tap_fault_drops()
        from repro.protocols.phost.agent import PHostAgent

        self._active = any(
            isinstance(host.agent, PHostAgent) for host in ctx.fabric.hosts
        )
        return self

    # ------------------------------------------------------------------
    # Live event checks
    # ------------------------------------------------------------------
    def control_sent(self, pkt) -> None:
        if not self._active or pkt.ptype != PacketType.TOKEN:
            return
        self._minted += 1
        self._checked("token-range")
        if pkt.flow is None or not 0 <= pkt.seq < pkt.flow.n_pkts:
            fid = pkt.flow.fid if pkt.flow is not None else None
            n_pkts = pkt.flow.n_pkts if pkt.flow is not None else None
            self._violate(
                "token-range",
                f"token for flow {fid} names seq {pkt.seq} outside 0..{n_pkts}",
                fid=fid, seq=pkt.seq, n_pkts=n_pkts,
            )

    def on_drop(self, pkt, hop_index: int) -> None:
        if self._active and pkt.ptype == PacketType.TOKEN:
            self._token_drops += 1

    def on_fault_drop(self, pkt, hop_index: int) -> None:
        # Injected token drops leave the global ledger exact: a token
        # lost to the fault layer was minted but never received.
        if self._active and pkt.ptype == PacketType.TOKEN:
            self._token_drops += 1
            self._fault_token_drops += 1

    # ------------------------------------------------------------------
    # End-of-run ledger reconciliation
    # ------------------------------------------------------------------
    def finalize(self, ctx) -> None:
        if not self._active:
            return
        from repro.protocols.phost.agent import PHostAgent

        granted = received = spent = expired = discarded = held = stale = 0
        for host in ctx.fabric.hosts:
            agent = host.agent
            if not isinstance(agent, PHostAgent):
                continue
            source, dest = agent.source, agent.destination
            granted += dest.tokens_granted
            stale += source.tokens_stale
            received += source.tokens_received_retired
            spent += source.tokens_spent_retired
            expired += source.tokens_expired_retired
            discarded += source.tokens_unspent_retired
            for state in source.flows.values():
                received += state.tokens_received
                spent += state.tokens_spent
                expired += state.tokens_expired_n
                held += len(state.tokens)

        self._checked("mint-accounting")
        if granted != self._minted:
            self._violate(
                "mint-accounting",
                f"destinations granted {granted} tokens but {self._minted} "
                "TOKEN packets were observed on the wire",
                granted=granted, observed=self._minted,
            )
        self._checked("source-balance")
        if received != spent + expired + discarded + held:
            self._violate(
                "source-balance",
                f"source token balance broken: received={received} != "
                f"spent={spent} + expired={expired} + discarded={discarded} "
                f"+ held={held}",
                received=received, spent=spent, expired=expired,
                discarded=discarded, held=held,
            )
        self._checked("global-ledger")
        in_flight = self._minted - received - stale - self._token_drops
        if in_flight < 0:
            self._violate(
                "global-ledger",
                f"token leak: sources received {received} (+{stale} stale) tokens "
                f"but only {self._minted} were minted ({self._token_drops} dropped) "
                f"— {-in_flight} token(s) appeared from nowhere",
                minted=self._minted, received=received, stale=stale,
                dropped=self._token_drops,
            )
        if self._fault_token_drops:
            self.context["fault_token_drops"] = self._fault_token_drops
