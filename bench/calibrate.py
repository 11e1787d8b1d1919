"""Host-speed calibration with fixed kernels timed beside the workload.

On a shared two-core VM the speed of a core changes by up to 2x within
seconds, as other tenants come and go, so raw host times of identical runs
spread far wider than any useful regression bound. The benchmark therefore
times a fixed kernel, which no change to drsim can alter, right before and
after each operation, and reports each host time multiplied by

    factor = (reference kernel time) / (kernel time measured around it),

that is, in seconds at the reference host speed. The raw times are printed
next to the scaled ones. The reference times are the kernels' times on an
idle core of the 2-CPU Xeon VM the benchmark was written on.

Two kernels model the two kinds of work in drsim: ``tick`` builds validated
frozen state records from 3-vectors and compares a prediction with them,
like one simulation tick; ``dense`` is a least-squares solve and large
elementwise arrays, like ANFIS training.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Bound here, before a traced run patches numpy.linalg.lstsq.
from numpy.linalg import lstsq as _lstsq


@dataclass(frozen=True)
class _State:
    position: np.ndarray
    velocity: np.ndarray
    time: float

    def __post_init__(self):
        for name in ("position", "velocity"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (3,) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be a finite 3-vector")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "time", float(self.time))


def _tick(n: int = 250) -> float:
    sent = _State(np.zeros(3), np.ones(3), 0.0)
    acc = 0.0
    for i in range(n):
        t = i * 0.1
        truth = _State(
            np.array([t, 2.0 * math.sin(t), 0.0]), np.array([1.0, 2.0 * math.cos(t), 0.0]), t
        )
        dt = t - sent.time
        mirror = _State(sent.position + sent.velocity * dt, sent.velocity, t)
        dev = float(np.linalg.norm(truth.position - mirror.position))
        acc += dev
        if dev >= 0.5:
            sent = truth
    return acc


def _dense(a: np.ndarray, b: np.ndarray) -> float:
    _lstsq(a, b, rcond=None)
    x = a * 1.5
    x *= a
    return float(x.sum())


REFERENCE_S = {"tick": 6.0e-3, "dense": 15.5e-3}


class Calibrator:
    """Times the named kernels; ``burst`` returns the current speed factor."""

    def __init__(self, kernels: tuple[str, ...]):
        self.kernels = [(self._kernel(k), REFERENCE_S[k]) for k in kernels]
        for fn, _ in self.kernels:  # first calls pay one-time library set-up
            fn()

    @staticmethod
    def _kernel(name: str):
        if name == "tick":
            return _tick
        rng = np.random.default_rng(0)
        a, b = rng.random((1200, 200)), rng.random(1200)
        return lambda: _dense(a, b)

    def burst(self, budget_s: float) -> float:
        """Run the kernels for ``budget_s`` seconds, at least once each.

        Returns sum(reference) / sum(median measured) over the kernels.
        """
        times: list[list[float]] = [[] for _ in self.kernels]
        t_begin = time.perf_counter()
        while not times[0] or time.perf_counter() - t_begin < budget_s:
            for (fn, _), ts in zip(self.kernels, times):
                t0 = time.perf_counter()
                fn()
                ts.append(time.perf_counter() - t0)
        ref = sum(r for _, r in self.kernels)
        return ref / sum(statistics.median(ts) for ts in times)
