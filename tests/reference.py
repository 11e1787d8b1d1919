"""Helpers the tests build on the package's study path and training step; the
package itself does not use them."""

import numpy as np

from drsim import anfis
from drsim.anfis import AnfisNetwork, TrainingSet, _consequent_gradient, _Pass, _premise_gradients
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


def descent_gradients(net: AnfisNetwork, data: TrainingSet, shared: _Pass | None = None):
    """(dz, dmf, out): the gradients a descent step takes at net's parameters over
    data, and the output they are taken at, from shared, a training pass that
    serves net and data (by default data's own)."""
    shared = shared or _Pass(net, data)
    trace = shared.trace_for(len(data))
    trace.output = trace.beta @ net.z
    err = trace.output - data.targets
    dz = _consequent_gradient(trace, err)
    return dz, _premise_gradients(net, trace, err, shared.dmu_for(net, len(data))), trace.output


def count_epoch_passes(monkeypatch) -> list[list[int]]:
    """Patches training to count its forward passes. The list returned gets, for
    each later anfis.train_networks call, the passes made at each of its epochs
    (gd: at each of its epochs + 1 steps), read as the steps run: an epoch ends
    once every network has taken its step."""
    counts, events = [], []
    forward, train = anfis.forward_batch, anfis.train_networks

    def counted_forward(*args):
        events.append("pass")
        return forward(*args)

    def counted_train(nets, sets, epochs, regime):
        events.clear()
        losses = train(nets, sets, epochs, regime)
        per_epoch, steps = [0], 0
        for event in events:
            if event == "pass":
                per_epoch[-1] += 1
            else:
                steps += 1
                if steps % len(nets) == 0:
                    per_epoch.append(0)
        counts.append(per_epoch[:-1])
        return losses

    def counted_step(step):
        def counted(*args):
            events.append("step")
            return step(*args)

        return counted

    for name, (step, extra) in list(anfis.REGIMES.items()):
        monkeypatch.setitem(anfis.REGIMES, name, (counted_step(step), extra))
    monkeypatch.setattr(anfis, "forward_batch", counted_forward)
    monkeypatch.setattr(anfis, "train_networks", counted_train)
    return counts
