"""Five-layer zero-order Sugeno neuro-fuzzy network.

Layer 1 fuzzifies each normalized input against its linguistic terms, layer 2
takes the product T-norm per rule, layer 3 normalizes firing strengths, layer
4 weights the constant consequents and layer 5 sums them. Training is the
least-squares half of Jang's hybrid rule: one ridge-regularized solve for the
consequents at the premises the network was built with. The premise descent
half is left out: on the stock study it moved no premise by more than about
1e-6 and held-out error by at most 0.031 %, while making a study about three
times slower.

All math is batched over samples: x is (N, n_inputs), outputs are (N,).
"""

from __future__ import annotations

import copy
import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFiringError, ValidationError
from .kinematics import EntityState, Order, StateArrays, advance, extrapolate

_EXP_CLIP = 60.0
_BLOCK_ELEMENTS = 1 << 15  # per row block of an (N, R) stage, so that it stays in cache
_RESIDUAL_ROWS = 1024  # rows per forward pass of bundle_residuals, so memory stays bounded
_GRAM_ROWS = 1024  # rows per block of the consequent Gram (_Pass.gram)
# Ridge weight of the consequent solve per unit of mean Gram diagonal, fixed by rule.
RIDGE = math.sqrt(np.finfo(np.float64).eps)


def _pow(u, b):
    """u ** b, squaring where b == 2 as numpy's power does for a scalar 2."""
    return np.where(b == 2.0, u * u, u**b)


def _sigmoid_degrees(x, a, c):
    """mu(x) = 1 / (1 + exp(-a (x - c)))."""
    arg = np.clip(a * (x - c), -_EXP_CLIP, _EXP_CLIP)
    return 1.0 / (1.0 + np.exp(-arg))


def _bell_degrees(x, a, b, c):
    """Generalized bell mu(x) = 1 / (1 + |(x - c) / a|^(2b))."""
    with np.errstate(over="ignore", divide="ignore"):
        u = ((x - c) / a) ** 2
        return 1.0 / (1.0 + _pow(u, b))


def _record(d, keys: tuple[str, ...], where: str) -> dict:
    """d, a saved record, if it is a mapping with exactly keys; errors name where."""
    if not isinstance(d, dict):
        raise ValidationError(f"{where} must be a mapping, got {type(d).__name__}")
    odd = sorted(d.keys() ^ set(keys), key=lambda key: (key not in keys, str(key)))
    if odd:
        state = "missing" if odd[0] in keys else "unknown"
        raise ValidationError(f"{where} needs keys {', '.join(keys)}; {state} key {odd[0]!r}")
    return d


def _list(d: dict, key: str, where: str) -> list:
    """d[key], a saved record's list value; errors name where and key."""
    if not isinstance(d[key], list):
        raise ValidationError(f"{where}: {key!r} must be a list, got {type(d[key]).__name__}")
    return d[key]


def _numbers(d: dict, key: str, where: str, listed: bool = False):
    """d[key], a saved record's number, or its list of numbers if listed, as JSON
    holds them: a flag, text or (unless listed) list fails, naming where and key."""
    values = d[key] if listed and isinstance(d[key], list) else [d[key]]
    bad = [v for v in values if isinstance(v, bool) or not isinstance(v, (int, float))]
    if bad:
        what = "numbers" if listed else "a number"
        raise ValidationError(f"{where}: {key!r} must be {what}, got {bad[0]!r}")
    return d[key]


@dataclass(frozen=True)
class Shape:
    """A membership function family. degrees(x, *params) takes one parameter
    array per name, broadcast against x, so one call evaluates many terms."""

    param_names: tuple[str, ...]
    degrees: Callable


SHAPES = {
    "sigmoid": Shape(("a", "c"), _sigmoid_degrees),
    "bell": Shape(("a", "b", "c"), _bell_degrees),
}


@dataclass(eq=False)
class InputSpec:
    """One input's range and terms, all of one shape: params has one row per
    parameter name of the shape and one column per term."""

    name: str
    lo: float
    hi: float
    shape: str
    params: np.ndarray

    def __post_init__(self):
        try:
            self.lo, self.hi = float(self.lo), float(self.hi)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"range of input {self.name!r} must be numbers") from None
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.hi > self.lo):
            raise ValidationError(f"bad range [{self.lo}, {self.hi}] for input {self.name!r}")
        if self.shape not in SHAPES:
            raise ValidationError(f"input {self.name!r} has unknown shape {self.shape!r}")
        try:
            p = self.params = np.array(self.params, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"input {self.name!r} needs equal rows of numbers") from None
        names = SHAPES[self.shape].param_names
        if p.ndim != 2 or p.shape[0] != len(names) or p.shape[1] < 1:
            raise ValidationError(f"input {self.name!r} needs {names} rows and at least one term")
        if not np.all(np.isfinite(p)):
            raise ValidationError(f"membership parameters of input {self.name!r} must be finite")
        if self.shape == "bell" and not np.all(p[:2] > 0.0):
            raise ValidationError(f"bell width and exponent of input {self.name!r} must be > 0")
        if self.shape == "sigmoid" and not np.all(p[0] != 0.0):
            raise ValidationError(f"sigmoid slope of input {self.name!r} must be nonzero")

    @property
    def n_terms(self) -> int:
        return self.params.shape[1]

    def normalize(self, x):
        return 2.0 * (np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo) - 1.0

    def to_dict(self) -> dict:
        names = SHAPES[self.shape].param_names
        head = {"name": self.name, "lo": self.lo, "hi": self.hi, "shape": self.shape}
        return {**head, **dict(zip(names, self.params.tolist()))}

    @classmethod
    def from_dict(cls, d: dict) -> "InputSpec":
        """Reads "shape" and one list per parameter name of that shape, one value per term."""
        name, shape = (d.get("name"), d.get("shape")) if isinstance(d, dict) else (None, None)
        where = f"input {name!r}"
        if shape is not None and not (isinstance(shape, str) and shape in SHAPES):
            raise ValidationError(f"{where} has unknown shape {shape!r}")
        names = SHAPES[shape].param_names if shape is not None else ()
        _record(d, ("name", "lo", "hi", "shape", *names), where)
        params = [_numbers(d, key, where, listed=True) for key in names]
        return cls(name, _numbers(d, "lo", where), _numbers(d, "hi", where), shape, params)


class AnfisNetwork:
    """Mutable network: inputs with terms and one constant consequent per rule. The
    rules are the grid of the inputs' terms in row-major order (the last input
    varying fastest): rules[k] holds the term of each input that rule k takes."""

    def __init__(self, inputs: list[InputSpec], consequents):
        self.inputs = list(inputs)
        counts = [spec.n_terms for spec in self.inputs]
        self.rules = np.indices(counts).reshape(len(counts), math.prod(counts)).T
        # selectors[i][t, r] is 1.0 where rule r uses term t of input i: degrees @
        # selectors[i] gathers each rule's degree exactly.
        self.selectors = [
            (np.arange(spec.n_terms)[:, None] == self.rules[:, i]).astype(float)
            for i, spec in enumerate(self.inputs)
        ]
        try:
            self.z = np.array(consequents, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError("'consequents' must be numbers") from None
        if self.z.shape != (self.rules.shape[0],):
            raise ValidationError(f"need one consequent per rule, got {self.z.shape}")
        if not np.all(np.isfinite(self.z)):
            raise ValidationError("consequents must be finite")

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
        d = _record(d, ("inputs", "consequents"), "network record")
        inputs = [InputSpec.from_dict(s) for s in _list(d, "inputs", "network record")]
        return cls(inputs, _numbers(d, "consequents", "network record", listed=True))


def build_network(
    inputs: list[tuple[str, float, float]],
    n_terms: int | list[int] = 7,
    shape: str = "bell",
) -> AnfisNetwork:
    """Standard initialization: term centers equally spaced over each range.

    n_terms is one term count for every input, or a list of one count per
    input. Bell widths are half the center spacing with exponent 2;
    consequents start at zero, one per rule of the grid.
    """
    counts = [n_terms] * len(inputs) if isinstance(n_terms, int) else list(n_terms)
    if len(counts) != len(inputs):
        raise ValidationError(f"need one term count per input, got {counts} for {len(inputs)}")
    if min(counts) < 1:
        raise ValidationError("n_terms must be >= 1")
    specs = []
    for (name, lo, hi), n in zip(inputs, counts):
        spacing = 2.0 / (n - 1) if n > 1 else 2.0
        centers = np.linspace(-1.0, 1.0, n) if n > 1 else np.zeros(1)
        if shape == "bell":
            params = [np.full(n, spacing / 2.0), np.full(n, 2.0), centers]
        elif shape == "sigmoid":
            params = [np.full(n, 4.0 / spacing), centers]
        else:
            raise ValidationError(f"unknown membership shape {shape!r}")
        specs.append(InputSpec(name, float(lo), float(hi), shape, params))

    return AnfisNetwork(specs, np.zeros(math.prod(counts)))


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


@dataclass
class ForwardTrace:
    """One forward pass. beta is layer 2's firing, normalized in place: no alpha is kept."""

    beta: np.ndarray  # (N, R)
    output: np.ndarray  # (N,)


def layer1(net: AnfisNetwork, x) -> list[np.ndarray]:
    """Membership degree of each input against each of its terms: one call per
    input, on its (N, 1) column against its parameter rows."""
    batch = net._as_batch(x)
    return [
        SHAPES[spec.shape].degrees(spec.normalize(batch[:, i])[:, None], *spec.params)
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


def forward_batch(net: AnfisNetwork, x) -> tuple[np.ndarray, ForwardTrace]:
    beta = layer3_normalize(layer2_firing(net, layer1(net, x)))
    output = beta @ net.z
    return output, ForwardTrace(beta, output)


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


def _half_sse(targets: np.ndarray, out: np.ndarray) -> float:
    return float(0.5 * np.sum((targets - out) ** 2))


def loss(net: AnfisNetwork, data: TrainingSet) -> float:
    """Sum over samples of half squared error."""
    out, _ = forward_batch(net, data.inputs)
    return _half_sse(_one_target(data), out)


def _premises(net: AnfisNetwork) -> list:
    """All that a forward pass's firing reads of net."""
    return [(s.shape, s.lo, s.hi, s.params.tobytes()) for s in net.inputs]


class _Pass:
    """A training forward pass of one network over one training set's rows.

    It reads neither the consequents nor the targets, so it serves every target
    column of the set: one pass, one Gram and one solve train as many networks
    as the set has columns.
    """

    def __init__(self, net: AnfisNetwork, data: TrainingSet):
        if len(data) < net.n_rules:
            raise ValidationError(f"training needs at least {net.n_rules} samples, got {len(data)}")
        self.trace = forward_batch(net, data.inputs)[1]

    def gram(self) -> np.ndarray:
        """B'B over the firing B, as a new array: the Grams of its _GRAM_ROWS-row
        blocks, each one BLAS call, summed in row order, the partial last block's
        included."""
        beta = self.trace.beta
        gram = np.matmul(beta[:_GRAM_ROWS].T, beta[:_GRAM_ROWS])
        block = np.empty_like(gram)
        for lo in range(_GRAM_ROWS, len(beta), _GRAM_ROWS):
            rows = beta[lo : lo + _GRAM_ROWS]
            gram += np.matmul(rows.T, rows, out=block)
        return gram


def _solve_consequents(shared: _Pass, targets: np.ndarray) -> np.ndarray:
    """The consequents Z (n_rules, H) solving (B'B + lam I) Z = B'Y, lam = RIDGE *
    trace(B'B) / n_rules, for the firing B of shared and the targets Y (N, H) of
    its rows: column j of Z is the consequents for Y's column j.

    All columns share one Gram, one lam and one factorization. The rows of B sum
    to one, so the trace is positive and the system positive definite even where
    rules never fire apart (ridge regression, Hoerl & Kennard 1970). A single
    column solves with the bits of the 1-D form: B'Y is then the same
    matrix-vector product, and the solve the same one-column factorization."""
    beta = shared.trace.beta
    n_rules = beta.shape[1]
    gram = shared.gram()
    gram.flat[:: n_rules + 1] += RIDGE * np.trace(gram) / n_rules
    return np.linalg.solve(gram, beta.T @ targets)


def train_networks(net: AnfisNetwork, data: TrainingSet) -> list[AnfisNetwork]:
    """One trained network per target column of data (one for (N,) targets):
    net's premises with the consequents of one ridge solve. net stays as it is.

    The columns share one forward pass, one Gram and one factorization
    (_solve_consequents), whose column j becomes network j's consequents. The
    networks share net's premises too, as objects: only the consequents are
    each one's own.
    """
    shared = _Pass(net, data)
    solved = _solve_consequents(shared, data.targets.reshape(len(data), -1))
    trained = [copy.copy(net) for _ in range(solved.shape[1])]
    for out, z in zip(trained, solved.T):
        out.z = np.ascontiguousarray(z)
    return trained


def train_hybrid(net: AnfisNetwork, data: TrainingSet) -> float:
    """train_networks for one network and its (N,) targets, in place: solves
    net's consequents and returns its loss on data, from the pass of the solve.

    The package trains through train_networks; this one-network form stays
    because the benchmark's tracer (bench/tracer.py) patches it by name.
    """
    targets, shared = _one_target(data), _Pass(net, data)
    net.z = _solve_consequents(shared, targets[:, None])[:, 0]
    return _half_sse(targets, shared.trace.beta @ net.z)


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
    p, v, a = rows.position[:-1], rows.velocity[:-1], rows.acceleration[:-1]
    out[:, 1:, 0] = (rows.position[1:] - advance(p, v, 0.5 * a, np.array([tick]))).T
    out[:, :, 1] = rows.velocity.T
    out[:, :, 2] = rows.orientation
    return out


class AnfisBundle:
    """Three trained networks that correct second-order extrapolation.

    Each axis network maps the normalized (one-step position deviation,
    axis velocity, orientation) triple to the extrapolation residual at the
    reference horizon ``h_ref``. Queries at other horizons scale the learned
    correction by (horizon / h_ref)^3, the leading-order growth of the
    second-order remainder. All-zero consequents therefore reproduce plain
    second-order extrapolation exactly. The axis networks may differ in size:
    training gives an input one term on an axis where it holds one value.
    """

    def __init__(self, networks: list[AnfisNetwork], h_ref: float, feature_tick: float):
        if len(networks) != 3:
            raise ValidationError(f"bundle needs one network per axis, got {len(networks)}")
        for net in networks:
            if net.n_inputs != 3:
                raise ValidationError("axis networks must take the 3-feature input triple")
        self.networks = list(networks)
        self.h_ref, self.feature_tick = float(h_ref), float(feature_tick)
        for what, value in (("reference horizon", self.h_ref), ("feature tick", self.feature_tick)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(f"{what} must be positive, got {value}")

    def residuals(self, inputs: np.ndarray) -> np.ndarray:
        """Learned corrections (N, 3) at the reference horizon for :func:`features` rows (3, N, 3).

        This is bundle_residuals for this bundle alone, over every row: each row
        equals a one-row call bit for bit, and a DegenerateFiringError gives its
        rows as indices of inputs' rows.
        """
        return bundle_residuals([self], inputs, [inputs.shape[1]])[0]

    def scales(self, horizons: np.ndarray) -> np.ndarray:
        """The correction scale (horizon / h_ref)^3 for each horizon.

        np.float_power calls the C library's pow per element, as Python's
        (h / h_ref) ** 3 does, so each scale has the bits the per-tick
        reference gives; np.power cubes by multiplying, which rounds some
        cubes differently.
        """
        return np.float_power(horizons / self.h_ref, 3.0)

    def predict(self, history: list[EntityState], horizon: float) -> np.ndarray:
        """Predicted position horizon seconds past the newest history sample."""
        if not history:
            raise ValidationError("history must contain at least one state")
        if horizon < 0.0:
            raise ValidationError(f"horizon must be >= 0, got {horizon}")
        last = history[-1]
        inputs = features(StateArrays.of(history[-2:]), self.feature_tick)[:, -1:]
        base = extrapolate(last, last.time + horizon, Order.SECOND)
        return base.position + self.residuals(inputs)[0] * self.scales(np.array([horizon]))

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
        where = "anfis bundle"
        d = _record(d, ("kind", "h_ref", "feature_tick", "networks"), where)
        nets = [AnfisNetwork.from_dict(nd) for nd in _list(d, "networks", where)]
        return cls(nets, _numbers(d, "h_ref", where), _numbers(d, "feature_tick", where))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "AnfisBundle":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def bundle_residuals(
    bundles: list[AnfisBundle], inputs: np.ndarray, counts: list[int]
) -> list[np.ndarray]:
    """Learned corrections (counts[j], 3) of each bundle j at its reference
    horizon, for the first counts[j] of the :func:`features` rows inputs (3, N, 3).

    Rows go through the networks in blocks of _RESIDUAL_ROWS. In each block, an
    axis makes one forward pass per distinct premise set among the bundles'
    networks there (decided by comparing _premises), over the rows the longest
    of those bundles reads in the block; each bundle then takes its own rows of
    that firing. A row's firing does not depend on the rows
    beside it, and each row's output is its own dot of firing strengths and
    consequents, so it equals a one-row call of its bundle bit for bit (a
    matrix-vector product over many rows rounds differently). Only one firing is
    alive at a time. A DegenerateFiringError gives its rows as indices of
    inputs' rows.
    """
    outs = [np.empty((n, 3)) for n in counts]
    axes = []  # per axis, the (output, network) pairs of each distinct premise set
    for k in range(3):
        groups: dict[tuple, list] = {}
        for out, bundle in zip(outs, bundles):
            net = bundle.networks[k]
            groups.setdefault(tuple(_premises(net)), []).append((out, net))
        axes.append(list(groups.values()))
    for lo in range(0, max(counts), _RESIDUAL_ROWS):
        for k, groups in enumerate(axes):
            for members in groups:
                hi = min(max(len(out) for out, _ in members), lo + _RESIDUAL_ROWS)
                if hi <= lo:
                    continue
                try:
                    beta = forward_batch(members[0][1], inputs[k, lo:hi])[1].beta
                except DegenerateFiringError as exc:
                    exc.rows = exc.rows + lo
                    raise
                for out, net in members:
                    m = min(len(out), hi) - lo  # the rows this bundle reads in the block
                    if m > 0:
                        out[lo : lo + m, k] = (beta[:m, None, :] @ net.z[:, None])[:, 0, 0]
                del beta  # freed before the next pass is made
    return outs
