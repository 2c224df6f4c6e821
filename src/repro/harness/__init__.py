"""Experiment harness: one declared runner per experiment (see DESIGN.md §4)."""

from .experiments import (
    EXPERIMENTS,
    Experiment,
    ExperimentResult,
    experiment,
    run_all,
    run_experiment,
)

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "experiment",
    "run_all",
    "run_experiment",
]
