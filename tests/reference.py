"""Helpers the tests build on the package's study path and training step; the
package itself does not use them."""

import numpy as np

from drsim import anfis
from drsim.anfis import AnfisNetwork, TrainingSet, _Pass, _premise_gradients
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


def descent_gradients(net: AnfisNetwork, data: TrainingSet, shared: _Pass | None = None):
    """(dmf, out): the gradients a premise descent step takes at net's parameters
    over data, and the output they are taken at, from shared, a training pass
    that serves net and data (by default data's own)."""
    shared = shared or _Pass(net, data)
    trace = shared.trace_for(len(data))
    trace.output = trace.beta @ net.z
    err = trace.output - data.targets
    return _premise_gradients(net, trace, err, shared.dmu_for(net, len(data))), trace.output


def block_gram(beta: np.ndarray, n: int) -> np.ndarray:
    """beta[:n]'beta[:n] as the consequent solve defines it, by a plain loop: the
    Grams of anfis._GRAM_ROWS-row blocks summed in row order, then the tail's."""
    rows = anfis._GRAM_ROWS
    gram = np.zeros((beta.shape[1], beta.shape[1]))
    for lo in range(0, n, rows):
        block = beta[lo : min(lo + rows, n)]
        gram = gram + block.T @ block
    return gram


def count_epoch_events(monkeypatch) -> tuple[list[list[int]], list[list[int]]]:
    """Patches training to count its forward passes and its Gram products of full
    anfis._GRAM_ROWS-row blocks. Each of the two lists returned gets, for each
    later anfis.train_networks call, the count made at each of its epochs, read
    as the steps run: an epoch ends once every network has taken its step."""
    counts, events = ([], []), []
    forward, train, gram = anfis.forward_batch, anfis.train_networks, anfis._gram

    def counted_forward(*args):
        events.append("pass")
        return forward(*args)

    def counted_gram(rows, out=None):
        if len(rows) == anfis._GRAM_ROWS:
            events.append("block")
        return gram(rows, out)

    def counted_train(nets, sets, epochs, eta):
        events.clear()
        losses = train(nets, sets, epochs, eta)
        per_epoch, steps = {"pass": [0], "block": [0]}, 0
        for event in events:
            if event != "step":
                per_epoch[event][-1] += 1
                continue
            steps += 1
            if steps % len(nets) == 0:
                for kind in per_epoch.values():
                    kind.append(0)
        for out, kind in zip(counts, per_epoch.values()):
            out.append(kind[:-1])
        return losses

    step = anfis._hybrid_step

    def counted_step(*args):
        loss = step(*args)
        events.append("step")  # after the step, so its Gram products count in its epoch
        return loss

    monkeypatch.setattr(anfis, "_hybrid_step", counted_step)
    monkeypatch.setattr(anfis, "forward_batch", counted_forward)
    monkeypatch.setattr(anfis, "_gram", counted_gram)
    monkeypatch.setattr(anfis, "train_networks", counted_train)
    return counts
