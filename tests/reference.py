"""Helpers the tests build on the package's study path and training solve; the
package itself does not use them."""

import numpy as np

from drsim import anfis
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
) -> tuple[AnfisNetwork, TrainingSet]:
    """Desk-scale residual-learning task on the x axis, noise-free, seed 0: the
    untrained grid network a study builds for it (7 bell terms per input that
    varies, one term for an input that holds one value), plus its data."""
    table = ComparisonStudy(traj, tick, duration).table
    idx = np.arange(1, len(table.truth.time) - horizon_ticks)
    if len(idx) < n_samples:
        raise ValidationError(f"trajectory yields only {len(idx)} samples, need {n_samples}")
    # a split at row n_samples + horizon_ticks + 1 trains on rows 1 .. n_samples
    data = _training_sets(table, n_samples + horizon_ticks + 1, [horizon_ticks], tick)[0][0]
    return _axis_network(TrainSpec(), data), data


def jitter_centres(net: AnfisNetwork, seed: int, jitter: float) -> AnfisNetwork:
    """net, its term centres moved in place: one generator seeded by seed draws,
    input by input, a uniform offset of up to jitter centre spacings per term
    (a one-term input's spacing is 2, the width of the normalized range)."""
    rng = np.random.default_rng(seed)
    for spec in net.inputs:
        n = spec.n_terms
        spacing = 2.0 / (n - 1) if n > 1 else 2.0
        spec.params[-1] = spec.params[-1] + rng.uniform(-jitter, jitter, n) * spacing
    return net


def block_gram(beta: np.ndarray, n: int) -> np.ndarray:
    """beta[:n]'beta[:n] as the consequent solve defines it, by a plain loop: the
    Grams of anfis._GRAM_ROWS-row blocks summed in row order, then the tail's."""
    rows = anfis._GRAM_ROWS
    gram = np.zeros((beta.shape[1], beta.shape[1]))
    for lo in range(0, n, rows):
        block = beta[lo : min(lo + rows, n)]
        gram = gram + block.T @ block
    return gram


def count_training_events(monkeypatch) -> tuple[list[int], list[int]]:
    """Patches training to count its forward passes and its Gram products of full
    anfis._GRAM_ROWS-row blocks. Each of the two lists returned gets, for each
    later anfis.train_networks call, the count made during that call."""
    counts, training = ([], []), []
    forward, train, gram = anfis.forward_batch, anfis.train_networks, anfis._gram

    def counted_forward(*args):
        if training:
            counts[0][-1] += 1
        return forward(*args)

    def counted_gram(rows, out=None):
        if training and len(rows) == anfis._GRAM_ROWS:
            counts[1][-1] += 1
        return gram(rows, out)

    def counted_train(nets, sets):
        for kind in counts:
            kind.append(0)
        training.append(True)
        try:
            return train(nets, sets)
        finally:
            training.clear()

    monkeypatch.setattr(anfis, "forward_batch", counted_forward)
    monkeypatch.setattr(anfis, "_gram", counted_gram)
    monkeypatch.setattr(anfis, "train_networks", counted_train)
    return counts
