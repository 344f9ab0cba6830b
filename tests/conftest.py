"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.net.topology import Fabric, TopologyConfig
from repro.sim.engine import EventLoop
from repro.sim.randoms import SeededRng

# ``pytest --hypothesis-profile=ci`` gives the differential spec fuzz
# (tests/sim/test_differential_fuzz.py) this budget instead of tier 1's.
settings.register_profile("ci", max_examples=60)


@pytest.fixture
def env() -> EventLoop:
    return EventLoop()


@pytest.fixture
def rng() -> SeededRng:
    return SeededRng(1234)


@pytest.fixture
def small_topo() -> TopologyConfig:
    return TopologyConfig.small()


@pytest.fixture
def fabric(env, small_topo, rng) -> Fabric:
    return Fabric(env, small_topo, rng)

