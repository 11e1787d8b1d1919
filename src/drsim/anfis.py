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
    targets: np.ndarray  # (N,)

    def __post_init__(self):
        object.__setattr__(self, "inputs", np.asarray(self.inputs, dtype=float))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=float))
        if self.inputs.ndim != 2 or self.targets.shape != (self.inputs.shape[0],):
            raise ValidationError(
                f"samples must be (N, n_inputs) with (N,) targets, got "
                f"{self.inputs.shape} / {self.targets.shape}"
            )
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.targets))):
            raise ValidationError("training samples must be finite")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _half_sse(data: TrainingSet, out: np.ndarray) -> float:
    return float(0.5 * np.sum((data.targets - out) ** 2))


def loss(net: AnfisNetwork, data: TrainingSet) -> float:
    """Sum over samples of half squared error."""
    out, _ = forward_batch(net, data.inputs)
    return _half_sse(data, out)


def _premises(net: AnfisNetwork) -> list:
    """All that a forward pass's firing reads of net."""
    return [(s.shape, s.lo, s.hi, s.params.tobytes()) for s in net.inputs]


class _Pass:
    """A training forward pass of one network over one training set.

    It reads neither the consequents nor the targets. So the pass serves every
    network whose premises equal those it was made at and whose set's inputs are
    a prefix of its rows. A row prefix of a C-ordered array is contiguous, so
    each product over it is the same BLAS call on the same bits as over a pass
    of the prefix's own. The consequent Gram of a prefix is a sum of fixed row
    blocks' Grams (gram); the pass keeps, for as long as it lives, the sum of
    the full blocks it last summed, so the prefixes it serves share those
    blocks' products.
    """

    def __init__(self, net: AnfisNetwork, data: TrainingSet):
        self.premises = _premises(net)
        self.inputs = data.inputs
        self.trace = forward_batch(net, data.inputs)[1]
        self._blocks = (0, 0.0)  # full blocks summed, and the sum of their Grams

    def serves(self, net: AnfisNetwork, data: TrainingSet) -> bool:
        n = len(data)
        return (
            n <= len(self.inputs)
            and _premises(net) == self.premises
            and np.array_equal(data.inputs, self.inputs[:n])
        )

    def gram(self, n: int) -> np.ndarray:
        """B'B over the first n rows of the firing B, as a new array: the Grams of
        its _GRAM_ROWS-row blocks summed in row order, plus its partial tail's. The
        cached sum of full blocks is extended, or summed anew if it holds more."""
        full, beta = n // _GRAM_ROWS, self.trace.beta
        done, total = self._blocks if self._blocks[0] <= full else (0, 0.0)
        gram = np.empty((beta.shape[1], beta.shape[1]))  # later blocks' products, then the tail's
        for lo in range(done * _GRAM_ROWS, full * _GRAM_ROWS, _GRAM_ROWS):
            block = _gram(beta[lo : lo + _GRAM_ROWS], gram if lo else None)
            total = np.add(total, block, out=total) if lo else block
        self._blocks = (full, total)
        _gram(beta[full * _GRAM_ROWS : n], gram)
        gram += total
        return gram


def _gram(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The Gram rows'rows of a block of rows, in one BLAS call, into out if given."""
    return np.matmul(rows.T, rows, out=out)


def _solve_consequents(net: AnfisNetwork, data: TrainingSet, shared: _Pass) -> np.ndarray:
    """Solve (B'B + lam I) z = B'y for the consequents, lam = RIDGE * trace(B'B) / n_rules,
    B the firing of shared, a _Pass that serves net and data, over data's rows.
    Returns the output at z over those rows.

    B'B is shared.gram's block sum, so networks the pass serves share the
    products of their common full blocks. The rows of B sum to one, so the
    trace is positive and the system positive definite even where rules never
    fire apart (ridge regression, Hoerl & Kennard 1970)."""
    beta = shared.trace.beta[: len(data)]
    gram = shared.gram(len(data))
    gram.flat[:: net.n_rules + 1] += RIDGE * np.trace(gram) / net.n_rules
    net.z = np.linalg.solve(gram, beta.T @ data.targets)
    return beta @ net.z


def train_networks(nets: list[AnfisNetwork], sets: list[TrainingSet]) -> list[float]:
    """Solves each network's consequents on its set; returns each one's loss there.

    Each network in turn takes one ridge solve at its premises, which stay as
    built. The solve reads a forward pass, which reads neither the consequents
    nor the targets, so the current pass serves each network it can
    (_Pass.serves, decided by comparison); a network it cannot serve frees it
    and makes the next. Only one pass is alive at a time.
    """
    for net, data in zip(nets, sets):
        if len(data) < net.n_rules:
            raise ValidationError(f"training needs at least {net.n_rules} samples, got {len(data)}")
    losses = []
    shared = None
    for net, data in zip(nets, sets):
        if shared is None or not shared.serves(net, data):
            shared = None  # frees the previous pass before the next is made
            shared = _Pass(net, data)
        losses.append(_half_sse(data, _solve_consequents(net, data, shared)))
    return losses


def train_hybrid(net: AnfisNetwork, data: TrainingSet) -> float:
    """train_networks for one network: its loss with the consequents solved.

    The package trains through train_networks; this one-network form stays
    because the benchmark's tracer (bench/tracer.py) patches it by name.
    """
    return train_networks([net], [data])[0]


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
    networks there (decided by comparison, as _Pass.serves decides), over the
    rows the longest of those bundles reads in the block; each bundle then takes
    its own rows of that firing. A row's firing does not depend on the rows
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
