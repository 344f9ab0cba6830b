"""Deterministic run digests for golden-trace regression testing.

A digest is an *order-independent* sha256 fingerprint of what a run
produced: the per-flow completion records, the per-hop drop ledger, and
the headline packet counters.  Two runs of the same spec on the same
code must produce the same digest; a behavioural change anywhere in the
pipeline (scheduling order, drop policy, token pacing, RNG consumption)
shows up as a digest change even when summary statistics barely move.

Floats are serialised with ``repr`` — exact shortest-round-trip decimal,
stable across CPython versions — so digests can be committed as golden
fingerprints (see ``tests/validate/golden_digests.json``).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

__all__ = ["run_digest", "incast_digest"]


def _sha256_of(lines: Iterable[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


def _fid_key(record) -> str:
    return f"{record.fid},"


def _run_lines(result) -> Iterator[str]:
    # Record lines hash in the order of the sorted lines themselves.
    # Each line is "flow:<fid>,..." and fids are unique, so ordering the
    # records by "<fid>," gives that order (',' sorts before every
    # digit) without building the lines up front.
    for r in sorted(result.records, key=_fid_key):
        yield (
            f"flow:{r.fid},{r.src},{r.dst},{r.size_bytes},{r.n_pkts},{r.tenant},"
            f"{r.arrival!r},{'' if r.finish is None else repr(r.finish)}"
        )
    for hop, count in sorted(result.drops.by_hop.items()):
        yield f"drops:hop{hop}={count}"
    yield (
        "counters:"
        f"injected={result.data_pkts_injected},"
        f"retx={result.data_pkts_retransmitted},"
        f"control={result.control_pkts_sent},"
        f"payload_bytes={result.payload_bytes_delivered}"
    )


def run_digest(result) -> str:
    """Fingerprint an :class:`~repro.experiments.spec.ExperimentResult`.

    Record lines are hashed in sorted order, so the digest is
    independent of completion order bookkeeping (but not of the
    completion *times* themselves, which are part of each line).  Lines
    are hashed as they are made; none is kept.
    """
    return _sha256_of(_run_lines(result))


def incast_digest(result) -> str:
    """Fingerprint an :class:`~repro.experiments.runner.IncastResult`.

    FCT/RCT lists are hashed in order — the closed-loop driver's
    request sequence is part of the behaviour under test.
    """
    lines = [
        f"incast:senders={result.n_senders},bytes={result.total_bytes},"
        f"requests={result.n_requests}"
    ]
    lines.extend(f"fct:{i},{fct!r}" for i, fct in enumerate(result.fcts))
    lines.extend(f"rct:{i},{rct!r}" for i, rct in enumerate(result.rcts))
    return _sha256_of(lines)
