"""Helpers the tests build on the package's study path and training solve; the
package itself does not use them."""

import numpy as np

from drsim import anfis
from drsim.anfis import AnfisBundle, AnfisNetwork, TrainingSet, build_network, forward_batch
from drsim.errors import ValidationError
from drsim.harness import ComparisonStudy, TrainSpec, _axis_inputs, _training_sets
from drsim.kinematics import Trajectory, predict_positions


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
    data = _training_sets(table, n_samples + horizon_ticks + 1, [horizon_ticks], tick)[0]
    net = build_network(*_axis_inputs(TrainSpec(), data))
    return net, TrainingSet(data.inputs, data.targets[:, 0])


def block_gram(beta: np.ndarray, n: int) -> np.ndarray:
    """beta[:n]'beta[:n] as the consequent solve defines it, by a plain loop: the
    Grams of anfis._GRAM_ROWS-row blocks summed in row order, then the tail's."""
    rows = anfis._GRAM_ROWS
    gram = np.zeros((beta.shape[1], beta.shape[1]))
    for lo in range(0, n, rows):
        block = beta[lo : min(lo + rows, n)]
        gram = gram + block.T @ block
    return gram


def reference_bundles(study: ComparisonStudy, horizons: tuple[int, ...]) -> list[AnfisBundle]:
    """The bundles train_bundle gives study at horizons, by plain loops. The
    study's horizons and horizons train together, on rows 1 .. split - h_max - 1
    with h_max the longest of them. On each axis, the network built from those
    rows takes the block Gram (block_gram) of its firing over them, the ridge of
    anfis.RIDGE times its mean diagonal, and one solve whose right-hand side has
    a column per horizon: the residual of second-order projection h ticks on."""
    table, ordered = study.table, sorted(set(study.horizons) | set(horizons))
    split = int(len(table.truth.time) * study.train.split)
    rows = np.arange(1, split - ordered[-1])
    residuals = []
    for h in ordered:
        dt = np.array([h * study.tick])
        pred = predict_positions(table.observed, "second", rows, dt)
        residuals.append(table.truth.position[rows + h] - pred)
    axes = []
    for k in range(3):
        targets = np.stack([residual[:, k] for residual in residuals], axis=1)
        inputs, counts = _axis_inputs(study.train, TrainingSet(table.inputs[k, rows], targets))
        net = build_network(inputs, counts, study.train.shape)
        beta = forward_batch(net, table.inputs[k, rows])[1]
        gram = block_gram(beta, len(beta))
        ridge = anfis.RIDGE * np.trace(gram) / net.n_rules
        solved = np.linalg.solve(gram + ridge * np.eye(net.n_rules), beta.T @ targets)
        axes.append([AnfisNetwork(net.inputs, z) for z in solved.T])
    bundle = {
        h: AnfisBundle([nets[j] for nets in axes], h * study.tick, study.tick)
        for j, h in enumerate(ordered)
    }
    return [bundle[h] for h in horizons]


def count_training_events(monkeypatch) -> tuple[list[int], list[int]]:
    """Patches training to count its forward passes and its np.linalg.solve
    calls. Each of the two lists returned gets, for each later
    anfis.train_networks call, the count made during that call."""
    counts, training = ([], []), []
    forward, train, solve = anfis.forward_batch, anfis.train_networks, np.linalg.solve

    def counted_forward(*args):
        if training:
            counts[0][-1] += 1
        return forward(*args)

    def counted_solve(*args):
        if training:
            counts[1][-1] += 1
        return solve(*args)

    def counted_train(*args):
        for kind in counts:
            kind.append(0)
        training.append(True)
        try:
            return train(*args)
        finally:
            training.clear()

    monkeypatch.setattr(anfis, "forward_batch", counted_forward)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(anfis, "train_networks", counted_train)
    return counts


def count_scoring_passes(monkeypatch) -> list[list[int]]:
    """Patches scoring to count its forward passes. The list returned gets, for
    each later anfis.bundle_residuals call, the passes it made on each axis."""
    counts, scoring = [], []
    forward, score = anfis.forward_batch, anfis.bundle_residuals

    def counted_forward(net, x):
        if scoring:
            axis = [any(net is b.networks[k] for b in scoring[0]) for k in range(3)]
            counts[-1][axis.index(True)] += 1
        return forward(net, x)

    def counted_score(bundles, inputs):
        counts.append([0, 0, 0])
        scoring.append(bundles)
        try:
            return score(bundles, inputs)
        finally:
            scoring.clear()

    monkeypatch.setattr(anfis, "forward_batch", counted_forward)
    monkeypatch.setattr(anfis, "bundle_residuals", counted_score)
    return counts
