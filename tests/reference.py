"""Helpers the tests build on the package's study path; the package itself
does not use them."""

import numpy as np

from drsim.anfis import AnfisNetwork, TrainingSet
from drsim.errors import ValidationError
from drsim.harness import ComparisonStudy, TrainSpec, _axis_network, _training_sets
from drsim.kinematics import Trajectory


def make_residual_task(
    traj: Trajectory,
    tick: float,
    duration: float,
    horizon_ticks: int,
    n_samples: int,
    eta: float = 0.05,
) -> tuple[AnfisNetwork, TrainingSet]:
    """Desk-scale residual-learning task on the x axis, noise-free, seed 0: an
    untrained compact-rule network of 7 bell terms per input plus its data."""
    table = ComparisonStudy(traj, tick, duration).table
    idx = np.arange(1, len(table.dev) - horizon_ticks)
    if len(idx) < n_samples:
        raise ValidationError(f"trajectory yields only {len(idx)} samples, need {n_samples}")
    # a split at row n_samples + horizon_ticks + 1 trains on rows 1 .. n_samples
    data = _training_sets(table, n_samples + horizon_ticks + 1, [horizon_ticks], tick)[0][0]
    return _axis_network(TrainSpec(rule_base="compact", eta=eta), data, 0), data
