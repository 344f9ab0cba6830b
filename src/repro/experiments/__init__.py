"""Experiment harness (S12): declarative specs, a runner, and one
table of the paper's evaluation figures run by one driver
(:mod:`repro.experiments.figures`).
"""

from repro.experiments.spec import ExperimentResult, ExperimentSpec
from repro.experiments.runner import run_experiment, run_incast, IncastResult

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "run_experiment",
    "run_incast",
    "IncastResult",
]
