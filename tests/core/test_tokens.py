"""Unit tests for source-side token bookkeeping."""

from __future__ import annotations

import pytest

from repro.protocols.phost.tokens import SourceFlowState, Token
from repro.net.packet import Flow


def make_state(n_bytes=14600, free=8):
    return SourceFlowState(Flow(1, 0, 1, n_bytes, 0.0), free)


def test_free_budget_capped_at_flow_size():
    state = SourceFlowState(Flow(1, 0, 1, 1460 * 2, 0.0), 8)
    assert state.free_left == 2


def test_free_seqs_issued_in_order():
    state = make_state(free=3)
    assert [state.take_free_seq() for _ in range(3)] == [0, 1, 2]
    assert not state.has_free_token()
    with pytest.raises(RuntimeError):
        state.take_free_seq()


def test_free_path_skips_seqs_already_sent_via_regrant():
    state = make_state(free=3)
    assert state.mark_sent(0)  # sent via a re-granted token
    assert state.take_free_seq() == 1
    # the entitlement for seq 0 was consumed by the skip
    assert state.free_left == 1


def test_token_expiry_pruning():
    state = make_state()
    state.add_token(Token(8, 1, expiry=1.0))
    state.add_token(Token(9, 1, expiry=3.0))
    assert state.prune_expired(2.0) == 1
    assert [t.seq for t in state.tokens] == [9]
    assert state.has_granted_token(2.5)
    assert not state.has_granted_token(4.0)


def test_tokens_spent_in_receipt_order():
    state = make_state()
    state.add_token(Token(8, 1, expiry=10.0))
    state.add_token(Token(9, 1, expiry=10.0))
    assert state.pop_token().seq == 8
    assert state.pop_token().seq == 9


def test_has_any_token_covers_both_kinds():
    state = make_state(free=1)
    assert state.has_any_token(0.0)       # free budget
    state.take_free_seq()
    assert not state.has_any_token(0.0)
    state.add_token(Token(5, 1, expiry=1.0))
    assert state.has_any_token(0.5)
    assert not state.has_any_token(2.0)   # expired


def test_remaining_hint_counts_unsent():
    state = make_state(n_bytes=1460 * 10)
    assert state.remaining_hint() == 10
    assert [state.mark_sent(seq) for seq in (0, 1, 2, 1)] == [True, True, True, False]
    assert state.remaining_hint() == 7  # a resend is not progress
    assert not state.all_sent()
    for seq in range(10):
        state.mark_sent(seq)
    assert state.all_sent()


def test_got_token_flag():
    state = make_state()
    assert not state.got_token
    state.add_token(Token(8, 1, expiry=1.0))
    assert state.got_token
