"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.net.topology import Fabric, TopologyConfig
from repro.sim.engine import EventLoop
from repro.sim.randoms import SeededRng


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

