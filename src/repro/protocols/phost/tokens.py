"""Token bookkeeping at the pHost source.

A :class:`Token` is the source-side record of a destination grant: it
authorizes exactly one data packet (``seq``) at a given priority and
lapses at ``expiry`` (1.5 MTU transmission times after receipt, by
default).  :class:`SourceFlowState` tracks a flow's granted tokens, its
free-token budget and what has been sent (a byte per packet, with the
count of packets sent at least once).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.net.packet import Flow

__all__ = ["Token", "SourceFlowState"]


class Token:
    """One send credit for one specific packet of one flow."""

    __slots__ = ("seq", "priority", "expiry")

    def __init__(self, seq: int, priority: int, expiry: float) -> None:
        self.seq = seq
        self.priority = priority
        self.expiry = expiry

    def expired(self, now: float) -> bool:
        return now > self.expiry

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token(seq={self.seq}, prio={self.priority}, expiry={self.expiry:.9f})"


class SourceFlowState:
    """Source-side per-flow protocol state."""

    __slots__ = (
        "flow",
        "tokens",
        "free_left",
        "next_free_seq",
        "sent",
        "n_sent",
        "done",
        "got_token",
        "rts_sends",
        "ack_timer",
        "tokens_received",
        "tokens_spent",
        "tokens_expired_n",
    )

    def __init__(self, flow: Flow, free_tokens: int) -> None:
        self.flow = flow
        # Receipt order == spend order == expiry order: tokens are
        # stamped now + token_expiry (a per-run constant) as they
        # arrive, so expiries are non-decreasing and pruning is a pure
        # head operation — which is why this is a deque, giving O(1)
        # spend and O(expired) pruning on the NIC-pull hot path.
        self.tokens: Deque[Token] = deque()
        self.free_left = min(free_tokens, flow.n_pkts)
        self.next_free_seq = 0
        self.sent = bytearray(flow.n_pkts)
        self.n_sent = 0
        self.done = False
        self.got_token = False
        self.rts_sends = 0
        self.ack_timer: Optional[list] = None  # the ACK-check timer, once armed
        # Token-ledger counters (audited: received == spent + expired +
        # still-held, see repro.validate.tokens).
        self.tokens_received = 0
        self.tokens_spent = 0
        self.tokens_expired_n = 0

    # ------------------------------------------------------------------
    def add_token(self, token: Token) -> None:
        self.tokens.append(token)
        self.got_token = True
        self.tokens_received += 1

    def prune_expired(self, now: float) -> int:
        """Drop lapsed tokens; returns how many were discarded.

        Tokens arrive in expiry order (see ``tokens`` above), so lapsed
        ones form a prefix and pruning pops from the head only.
        """
        tokens = self.tokens
        dropped = 0
        while tokens and tokens[0].expiry < now:
            tokens.popleft()
            dropped += 1
        if dropped:
            self.tokens_expired_n += dropped
        return dropped

    def has_granted_token(self, now: float) -> bool:
        self.prune_expired(now)
        return bool(self.tokens)

    def pop_token(self) -> Token:
        """Spend the oldest live token (FIFO among a flow's tokens)."""
        self.tokens_spent += 1
        return self.tokens.popleft()

    def has_free_token(self) -> bool:
        # Skip entitlements for packets already sent via re-granted
        # tokens, so the free path never double-sends a sequence.
        while (
            self.free_left > 0
            and self.next_free_seq < self.flow.n_pkts
            and self.sent[self.next_free_seq]
        ):
            self.next_free_seq += 1
            self.free_left -= 1
        return self.free_left > 0 and self.next_free_seq < self.flow.n_pkts

    def take_free_seq(self) -> int:
        if not self.has_free_token():
            raise RuntimeError(f"flow {self.flow.fid}: no free token available")
        seq = self.next_free_seq
        self.next_free_seq += 1
        self.free_left -= 1
        return seq

    def mark_sent(self, seq: int) -> bool:
        """Record that ``seq`` went out; True on its first transmission."""
        if self.sent[seq]:
            return False
        self.sent[seq] = 1
        self.n_sent += 1
        return True

    def has_any_token(self, now: float) -> bool:
        """Any spendable credit — granted (unexpired) or free.

        Mirrors Algorithm 1, where free tokens sit in the same
        ActiveTokens list as granted ones: the spend policy chooses
        across all of them.
        """
        self.prune_expired(now)
        return bool(self.tokens) or self.has_free_token()

    def remaining_hint(self) -> int:
        """Packets not yet sent at least once (the SRPT spend key)."""
        return self.flow.n_pkts - self.n_sent

    def all_sent(self) -> bool:
        return self.n_sent >= self.flow.n_pkts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SourceFlowState(fid={self.flow.fid}, tokens={len(self.tokens)}, "
            f"free={self.free_left}, sent={self.n_sent}/{self.flow.n_pkts})"
        )
