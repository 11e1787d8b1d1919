"""Five-layer zero-order Sugeno neuro-fuzzy network.

Layer 1 fuzzifies each normalized input against its linguistic terms, layer 2
takes the product T-norm per rule, layer 3 normalizes firing strengths, layer
4 weights the constant consequents and layer 5 sums them. Training is the
least-squares half of Jang's hybrid rule: train_networks makes one forward
pass and one ridge-regularized solve for the consequents of every target
column, at the premises the network was built with. The premise descent half
is left out: on the stock study it moved no premise by more than about 1e-6
and held-out error by at most 0.031 %, while making a study about three times
slower. Scoring is bundle_residuals: per axis and row block, one forward pass
whose firing one product with the stacked consequents of every bundle sharing
its premises turns into all their outputs, over every row it is given. The
premises are computed, not learned or saved: an input's terms are equally
spaced over its range, so its shape and term count fix them (InputSpec).

All math is batched over samples: x is (N, n_inputs), outputs are (N,).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .config import Finite, FiniteNonNegative, FinitePositive, PositiveInt, convert, read_section
from .config import type_fields
from .errors import DegenerateFiringError, ValidationError
from .kinematics import Correction, EntityState, StateArrays, predict_positions
from .kinematics import extrapolate  # noqa: F401 -- bench/tracer.py wraps it here

_EXP_CLIP = 60.0
_BLOCK_ELEMENTS = 1 << 15  # per row block of an (N, R) stage, so that it stays in cache
_RESIDUAL_ROWS = 1024  # rows per forward pass of bundle_residuals, so memory stays bounded
_GRAM_ROWS = 1024  # rows per block of the consequent Gram (_gram)
# Ridge weight of the consequent solve per unit of mean Gram diagonal, fixed by rule.
RIDGE = math.sqrt(np.finfo(np.float64).eps)


def _grid(n_terms: int) -> tuple[np.ndarray, float]:
    """The centers of n_terms terms equally spaced over the normalized range
    [-1, 1], and their spacing; a single term sits at 0 with spacing 2, the
    width of the range."""
    if n_terms == 1:
        return np.zeros(1), 2.0
    return np.linspace(-1.0, 1.0, n_terms), 2.0 / (n_terms - 1)


def _sigmoid_degrees(x, centers, spacing):
    """mu(x) = 1 / (1 + exp(-a (x - c))) of slope a = 4 / spacing."""
    arg = np.clip(4.0 / spacing * (x - centers), -_EXP_CLIP, _EXP_CLIP)
    return 1.0 / (1.0 + np.exp(-arg))


def _bell_degrees(x, centers, spacing):
    """Generalized bell mu(x) = 1 / (1 + |(x - c) / a|^(2b)) of width a =
    spacing / 2 and exponent b = 2: u = ((x - c) / a)^2, squared."""
    with np.errstate(over="ignore"):
        u = ((x - centers) / (spacing / 2.0)) ** 2
        return 1.0 / (1.0 + u * u)


# Each membership function family: degrees(x, centers, spacing), broadcast
# against x, so that one call evaluates all terms of an input.
SHAPES = {"sigmoid": _sigmoid_degrees, "bell": _bell_degrees}
Shape = Literal[tuple(SHAPES)]


@dataclass(frozen=True)
class InputSpec:
    """One input: its range, which normalize maps onto [-1, 1], and n_terms terms
    of one shape, whose centers _grid spaces equally over that range."""

    name: str
    lo: Finite
    hi: Finite
    shape: Shape
    n_terms: PositiveInt

    def __post_init__(self):
        where = f"input {self.name!r}"  # each field typed as a loaded record's (from_dict)
        type_fields(self, where)
        if not self.hi > self.lo:
            raise ValidationError(f"bad range [{self.lo}, {self.hi}] for {where}")

    def normalize(self, x):
        return 2.0 * (np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo) - 1.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "InputSpec":
        """Reads exactly the fields of InputSpec; errors name the input."""
        where = f"input {d.get('name') if isinstance(d, dict) else None!r}"
        return cls(**read_section(cls, d, where))


class AnfisNetwork:
    """Mutable network: inputs with terms and one constant consequent per rule. The
    rules are the grid of the inputs' terms in row-major order (the last input
    varying fastest): rules[k] holds the term of each input that rule k takes."""

    def __init__(self, inputs: list[InputSpec], consequents):
        self.inputs = list(inputs)
        counts = [spec.n_terms for spec in self.inputs]
        self.z = np.array(convert(tuple[float, ...], consequents, "consequents", "network record"))
        n_rules = math.prod(counts)  # checked before the rule grid, which counts may make huge
        if self.z.shape != (n_rules,):
            raise ValidationError(
                f"need one consequent per rule, {n_rules} for n_terms {counts}, got {self.z.shape}"
            )
        if not np.all(np.isfinite(self.z)):
            raise ValidationError("consequents must be finite")
        self.rules = np.indices(counts).reshape(len(counts), n_rules).T
        # selectors[i][t, r] is 1.0 where rule r uses term t of input i: degrees @
        # selectors[i] gathers each rule's degree exactly.
        self.selectors = [
            (np.arange(spec.n_terms)[:, None] == self.rules[:, i]).astype(float)
            for i, spec in enumerate(self.inputs)
        ]

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def n_rules(self) -> int:
        return self.rules.shape[0]

    def _as_batch(self, x) -> np.ndarray:
        arr = np.atleast_2d(np.asarray(x, dtype=float))
        if arr.shape[1] != self.n_inputs:
            raise ValidationError(f"expected {self.n_inputs} inputs, got {arr.shape[1]}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("inputs must be finite")
        return arr

    def to_dict(self) -> dict:
        return {
            "inputs": [s.to_dict() for s in self.inputs],
            "consequents": self.z.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AnfisNetwork":
        d = read_section({"inputs": list, "consequents": tuple[float, ...]}, d, "network record")
        return cls([InputSpec.from_dict(s) for s in d["inputs"]], d["consequents"])


def build_network(
    inputs: list[tuple[str, float, float]],
    n_terms: int | list[int] = 7,
    shape: str = "bell",
) -> AnfisNetwork:
    """One InputSpec of shape per (name, lo, hi) of inputs, and consequents at
    zero, one per rule of the grid. n_terms is one term count for every input,
    or a list of one count per input."""
    counts = [n_terms] * len(inputs) if isinstance(n_terms, int) else list(n_terms)
    if len(counts) != len(inputs):
        raise ValidationError(f"need one term count per input, got {counts} for {len(inputs)}")
    specs = [InputSpec(name, lo, hi, shape, n) for (name, lo, hi), n in zip(inputs, counts)]
    return AnfisNetwork(specs, np.zeros(math.prod(counts)))


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def layer1(net: AnfisNetwork, x) -> list[np.ndarray]:
    """Membership degree of each input against each of its terms: one call per
    input, on its (N, 1) column against its term centers."""
    batch = net._as_batch(x)
    return [
        SHAPES[spec.shape](spec.normalize(batch[:, i])[:, None], *_grid(spec.n_terms))
        for i, spec in enumerate(net.inputs)
    ]


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Row slices of about _BLOCK_ELEMENTS elements each."""
    step = max(1, _BLOCK_ELEMENTS // n_cols)
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def layer2_firing(net: AnfisNetwork, degrees: list[np.ndarray]) -> np.ndarray:
    """Product T-norm of each rule's antecedent degrees, as a C-ordered (N, R)
    array: layer 3's row sums depend on that order for their exact value."""
    n = len(degrees[0])
    alpha = np.empty((n, net.n_rules))
    for rows in _row_blocks(n, net.n_rules):
        block = alpha[rows]
        np.matmul(degrees[0][rows], net.selectors[0], out=block)
        for i in range(1, net.n_inputs):
            block *= degrees[i][rows] @ net.selectors[i]
    return alpha


def layer3_normalize(alpha: np.ndarray) -> np.ndarray:
    """Divides alpha's rows by their sums in place, returning that buffer; zero-sum rows raise."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    total = alpha.sum(axis=1)
    bad = ~(total > 0.0) | ~np.isfinite(total)
    if np.any(bad):
        raise DegenerateFiringError(
            f"{int(bad.sum())} sample(s) fired no rule (sum alpha = 0); "
            "inputs are too far outside every term",
            np.flatnonzero(bad),
        )
    alpha /= total[:, None]
    return alpha


def forward_batch(net: AnfisNetwork, x) -> tuple[np.ndarray, np.ndarray]:
    """The output (N,) and the normalized firing beta (N, R) of one pass; layer
    2's firing is normalized in place, so no alpha is kept."""
    beta = layer3_normalize(layer2_firing(net, layer1(net, x)))
    return beta @ net.z, beta


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingSet:
    inputs: np.ndarray  # (N, n_inputs)
    targets: np.ndarray  # (N,), or (N, H): one column per network the inputs train

    def __post_init__(self):
        object.__setattr__(self, "inputs", np.asarray(self.inputs, dtype=float))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=float))
        rows_agree = self.targets.shape[:1] == self.inputs.shape[:1]
        if self.inputs.ndim != 2 or self.targets.ndim not in (1, 2) or not rows_agree:
            raise ValidationError(
                f"samples must be (N, n_inputs) with (N,) or (N, H) targets, got "
                f"{self.inputs.shape} / {self.targets.shape}"
            )
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.targets))):
            raise ValidationError("training samples must be finite")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _one_target(data: TrainingSet) -> np.ndarray:
    """data's targets, if one network's: (N,). Columns of targets train one
    network each (train_networks)."""
    if data.targets.ndim != 1:
        raise ValidationError(f"one network needs (N,) targets, got {data.targets.shape}")
    return data.targets


def loss(net: AnfisNetwork, data: TrainingSet) -> float:
    """Sum over samples of half squared error."""
    out, _ = forward_batch(net, data.inputs)
    return float(0.5 * np.sum((_one_target(data) - out) ** 2))


def _gram(beta: np.ndarray) -> np.ndarray:
    """B'B for the design B (N, R), here the firing: the Grams of its
    _GRAM_ROWS-row blocks, each one BLAS call, summed in row order, the partial
    last block's included."""
    gram = np.matmul(beta[:_GRAM_ROWS].T, beta[:_GRAM_ROWS])
    block = np.empty_like(gram)
    for lo in range(_GRAM_ROWS, len(beta), _GRAM_ROWS):
        rows = beta[lo : lo + _GRAM_ROWS]
        gram += np.matmul(rows.T, rows, out=block)
    return gram


def _solve_consequents(beta: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The consequents Z (R, H) solving (B'B + lam I) Z = B'Y, lam = RIDGE *
    trace(B'B) / R, for the design B (N, R), here the firing, and the targets
    Y (N, H) of its rows: column j of Z is the consequents for Y's column j.

    All columns share one Gram, one lam and one factorization. The rows of the
    firing sum to one, so the trace is positive and the system positive definite
    even where rules never fire apart (ridge regression, Hoerl & Kennard 1970).
    A single column solves with the bits of the 1-D form: B'Y is then the same
    matrix-vector product, and the solve the same one-column factorization."""
    n_rules = beta.shape[1]
    gram = _gram(beta)
    gram.flat[:: n_rules + 1] += RIDGE * np.trace(gram) / n_rules
    return np.linalg.solve(gram, beta.T @ targets)


def train_networks(net: AnfisNetwork, data: TrainingSet) -> list[AnfisNetwork]:
    """One trained network per target column of data (one for (N,) targets):
    net's premises with the consequents of one ridge solve. net stays as it is.

    The columns share one forward pass, one Gram and one factorization
    (_solve_consequents), whose column j becomes network j's consequents: the
    pass reads neither the consequents nor the targets. The networks share
    net's premises too, as objects: only the consequents are each one's own.
    """
    if len(data) < net.n_rules:
        raise ValidationError(f"training needs at least {net.n_rules} samples, got {len(data)}")
    beta = forward_batch(net, data.inputs)[1]
    solved = _solve_consequents(beta, data.targets.reshape(len(data), -1))
    trained = [copy.copy(net) for _ in range(solved.shape[1])]
    for out, z in zip(trained, solved.T):
        out.z = np.ascontiguousarray(z)
    return trained


def train_hybrid(net: AnfisNetwork, data: TrainingSet) -> float:
    """train_networks for one network and its (N,) targets, in place: sets net's
    consequents and returns its loss on data.

    The package trains through train_networks; this one-network form stays
    because the benchmark's tracer (bench/tracer.py) patches it by name.
    """
    _one_target(data)  # rejects (N, H) targets before net changes
    net.z = train_networks(net, data)[0].z
    return loss(net, data)


# ---------------------------------------------------------------------------
# Prediction bundle: one network per position axis
# ---------------------------------------------------------------------------


AXIS_NAMES = ("x", "y", "z")


def features(rows: StateArrays, tick: float, dev0: np.ndarray | float = 0.0) -> np.ndarray:
    """A bundle's inputs (3, N, 3) at rows, consecutive states on a grid of tick
    seconds: per axis, each row's (deviation, axis velocity, orientation). The
    deviation is a row's position less its predecessor's second-order projection
    one tick on; row 0's is dev0, zero where rows start the grid."""
    out = np.empty((3, len(rows.time), 3))
    out[:, 0, 0] = dev0
    ahead = predict_positions(rows, "second", slice(None, -1), np.array([tick]))
    out[:, 1:, 0] = (rows.position[1:] - ahead).T
    out[:, :, 1] = rows.velocity.T
    out[:, :, 2] = rows.orientation
    return out


class AnfisBundle:
    """Three trained networks that correct second-order extrapolation.

    Each axis network maps the normalized (one-step position deviation,
    axis velocity, orientation) triple to the extrapolation residual at the
    reference horizon ``h_ref``, so all-zero consequents reproduce plain
    second-order extrapolation exactly. A run reads the bundle once, at load:
    :meth:`correction` gives the residual at every truth row and h_ref, whose
    scale law takes it to other horizons. The axis networks may differ in
    size: training gives an input one term on an axis where it holds one value.
    """

    def __init__(self, networks: list[AnfisNetwork], h_ref: float, feature_tick: float):
        if len(networks) != 3:
            raise ValidationError(f"bundle needs one network per axis, got {len(networks)}")
        for net in networks:
            if net.n_inputs != 3:
                raise ValidationError("axis networks must take the 3-feature input triple")
        self.networks = list(networks)
        for key, value in (("h_ref", h_ref), ("feature_tick", feature_tick)):  # as from_dict's
            setattr(self, key, convert(FinitePositive, value, key, "anfis bundle"))

    def correction(self, truth: StateArrays, dev0: np.ndarray | float = 0.0) -> Correction:
        """The correction at every row of truth, with dev0 as row 0's deviation (features)."""
        inputs = features(truth, self.feature_tick, dev0)
        return Correction(bundle_residuals([self], inputs)[0], self.h_ref)

    def predict(self, history: list[EntityState], horizon: float) -> np.ndarray:
        """Position horizon seconds past the newest history sample, by predict_positions.
        The newest two samples must be one feature tick apart, up to tick-grid rounding."""
        if not history:
            raise ValidationError("history must contain at least one state")
        horizon = convert(FiniteNonNegative, horizon, "horizon", "AnfisBundle.predict")
        t, tick = history[-1].time, self.feature_tick
        gap = t - history[-2].time if len(history) > 1 else tick
        if not abs(gap - tick) <= 1e-9 * max(tick, abs(t)):
            raise ValidationError(f"history states {gap} s apart, not one {tick} s tick")
        rows = StateArrays.of(history[-2:])
        newest = rows[-1:]
        correction = self.correction(newest, features(rows, self.feature_tick)[:, -1, 0])
        return predict_positions(newest, "anfis", [0], np.array([horizon]), correction)[0]

    def to_dict(self) -> dict:
        return {
            "kind": "anfis-bundle",
            "h_ref": self.h_ref,
            "feature_tick": self.feature_tick,
            "networks": [net.to_dict() for net in self.networks],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AnfisBundle":
        if not (isinstance(d, dict) and d.get("kind") == "anfis-bundle"):
            raise ValidationError("not an anfis bundle document")
        keys = dict(kind=str, h_ref=FinitePositive, feature_tick=FinitePositive, networks=list)
        d = read_section(keys, d, "anfis bundle")
        nets = [AnfisNetwork.from_dict(nd) for nd in d["networks"]]
        return cls(nets, d["h_ref"], d["feature_tick"])

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "AnfisBundle":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def bundle_residuals(bundles: list[AnfisBundle], inputs: np.ndarray) -> list[np.ndarray]:
    """Learned corrections (N, 3) of each bundle at its reference horizon, for
    the :func:`features` rows inputs (3, N, 3).

    The bundles must share each axis network's premises, its inputs, as a
    study's bundles do: rows go through the first bundle's networks in blocks
    of _RESIDUAL_ROWS, one forward pass per axis and block, and one np.vecdot
    of that firing with every bundle's consequents, stacked (B, R), scores all
    bundles at once. A row's firing does not depend on the rows beside it, and
    each (row, bundle) output is its own dot of firing strengths and
    consequents, so it equals a one-row call of its bundle bit for bit (a
    matrix product over many rows rounds differently). Only one firing is
    alive at a time. A DegenerateFiringError gives its rows as indices of
    inputs' rows.
    """
    first = bundles[0].networks
    for bundle in bundles[1:]:
        for axis, shared, net in zip(AXIS_NAMES, first, bundle.networks):
            if net.inputs != shared.inputs:
                raise ValidationError(f"bundles scored together differ in their {axis} premises")
    # zs[k] (B, R): every bundle's axis-k consequents, one row per bundle
    zs = [np.stack([bundle.networks[k].z for bundle in bundles]) for k in range(3)]
    n_rows = inputs.shape[1]
    out = np.empty((len(bundles), n_rows, 3))
    for lo in range(0, n_rows, _RESIDUAL_ROWS):
        rows = slice(lo, lo + _RESIDUAL_ROWS)
        for k, net in enumerate(first):
            try:
                beta = forward_batch(net, inputs[k, rows])[1]
            except DegenerateFiringError as exc:
                exc.rows = exc.rows + lo
                raise
            out[:, rows, k] = np.vecdot(beta[:, None, :], zs[k]).T
            del beta  # freed before the next pass is made
    return list(out)
