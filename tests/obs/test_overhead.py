"""Overhead guard: telemetry must not perturb or slow the simulation.

Two contracts from the issue:

* A run with the instrument registry populated but no sampler attached
  must produce a *byte-identical* ``run_digest`` to a bare run — the
  registry is pull-based, so registering gauges consumes no randomness
  and schedules no events.
* Wall-clock cost of the dormant registry stays under 5% on a tiny run.
  Timing is noisy, so a deterministic companion pins the reason it is
  cheap: with no sampler, no gauge function is ever evaluated.
"""

from __future__ import annotations

import gc
import time

from repro.experiments.defaults import make_spec
from repro.experiments.runner import run_experiment
from repro.obs import InstrumentRegistry, ObservabilityConfig
from repro.validate import run_digest

# Registry on, every sink off: no sampler, no profiler, no trace file.
DORMANT = ObservabilityConfig(sample_period=None)


def _bare():
    return run_experiment(make_spec("phost", "websearch", "tiny", seed=42))


def _instrumented(config=DORMANT):
    spec = make_spec("phost", "websearch", "tiny", seed=42)
    return run_experiment(spec.variant(observability=config))


def test_dormant_registry_is_byte_identical():
    assert run_digest(_instrumented()) == run_digest(_bare())


def test_sampling_does_not_move_the_digest():
    # The sampler only *reads* gauges; even with it running the flow
    # records, drop ledger, and counters must not budge.
    sampled = _instrumented(ObservabilityConfig(sample_period=50e-6))
    assert run_digest(sampled) == run_digest(_bare())
    assert sampled.telemetry.samples_taken >= 2


def test_dormant_registry_never_evaluates_a_gauge(monkeypatch):
    registered, evaluated = [], []
    register = InstrumentRegistry.gauge

    def counting_gauge(self, name, fn, **labels):
        def counted():
            evaluated.append(name)
            return fn()

        registered.append(name)
        return register(self, name, counted, **labels)

    monkeypatch.setattr(InstrumentRegistry, "gauge", counting_gauge)
    result = _instrumented()
    assert result.n_completed == result.n_flows
    # Collector, per-port, per-link, per-hop and protocol gauges.
    assert {"flows.active", "port.qlen_bytes", "link.util", "fabric.drops"} <= set(registered)
    assert evaluated == []


def test_dormant_registry_wall_clock_overhead_under_5_percent():
    # Warm both paths once (imports, allocator), then take min-of-5
    # interleaved so scheduler noise hits both variants equally.  Each
    # arm starts from a collected heap, so the garbage one arm (or an
    # earlier test) left behind is not collected inside the other's timing.
    _bare()
    _instrumented()
    bare_best = inst_best = float("inf")
    for _ in range(5):
        gc.collect()
        t0 = time.perf_counter()
        _bare()
        bare_best = min(bare_best, time.perf_counter() - t0)
        gc.collect()
        t0 = time.perf_counter()
        _instrumented()
        inst_best = min(inst_best, time.perf_counter() - t0)
    # 5% relative budget plus a small absolute floor so a sub-100ms run
    # can't fail on timer granularity alone.
    assert inst_best <= bare_best * 1.05 + 0.02, (
        f"dormant registry cost too much: bare={bare_best:.4f}s "
        f"instrumented={inst_best:.4f}s"
    )
