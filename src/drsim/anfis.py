"""Five-layer zero-order Sugeno neuro-fuzzy network.

Layer 1 fuzzifies each normalized input against its linguistic terms, layer 2
takes the product T-norm per rule, layer 3 normalizes firing strengths, layer
4 weights the constant consequents and layer 5 sums them. Training is Jang's
hybrid rule: each epoch solves the consequents by ridge-regularized least
squares, then takes one batch gradient-descent step on the premise parameters.

All math is batched over samples: x is (N, n_inputs), outputs are (N,).
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFiringError, TrainingError, ValidationError
from .kinematics import EntityState, Order, StateArrays, advance, extrapolate

_EXP_CLIP = 60.0
_BLOCK_ELEMENTS = 1 << 15  # per row block of an (N, R) stage, so that it stays in cache
_RESIDUAL_ROWS = 1024  # rows per forward pass of AnfisBundle.residuals, so memory stays bounded
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


def _sigmoid_grads(x, a, c):
    mu = _sigmoid_degrees(x, a, c)
    g = mu * (1.0 - mu)
    return g * (x - c), -a * g


def _sigmoid_constrain(params):
    params[0, params[0] == 0.0] = 1e-9


def _bell_degrees(x, a, b, c):
    """Generalized bell mu(x) = 1 / (1 + |(x - c) / a|^(2b))."""
    with np.errstate(over="ignore", divide="ignore"):
        u = ((x - c) / a) ** 2
        return 1.0 / (1.0 + _pow(u, b))


def _bell_grads(x, a, b, c):
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = x - c
        u = (d / a) ** 2
        ub = _pow(u, b)
        mu = 1.0 / (1.0 + ub)
        mu2ub = mu * mu * ub
        da = 2.0 * b * mu2ub / a
        db = np.where(u > 0.0, -mu2ub * np.log(np.where(u > 0.0, u, 1.0)), 0.0)
        # u^(b-1) (x-c) / a^2 simplifies to u^b / (x-c); odd limit 0 at the center
        dc = np.where(d != 0.0, 2.0 * b * mu2ub / np.where(d != 0.0, d, 1.0), 0.0)
    return da, db, dc


def _bell_constrain(params):
    # the function is even in a, and b must stay positive to keep the peak
    np.maximum(np.abs(params[0]), 1e-9, out=params[0])
    np.maximum(params[1], 1e-9, out=params[1])


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
    """A membership function family. degrees(x, *params) and grads(x, *params)
    take one parameter array per name, broadcast against x, so one call
    evaluates many terms; grads gives d(mu)/d(param) in param_names order.
    constrain(params) moves a (P, T) parameter array back into the family."""

    param_names: tuple[str, ...]
    degrees: Callable
    grads: Callable
    constrain: Callable


SHAPES = {
    "sigmoid": Shape(("a", "c"), _sigmoid_degrees, _sigmoid_grads, _sigmoid_constrain),
    "bell": Shape(("a", "b", "c"), _bell_degrees, _bell_grads, _bell_constrain),
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

    degrees: list[np.ndarray]  # per input: (N, n_terms_i)
    beta: np.ndarray  # (N, R)
    output: np.ndarray | None  # (N,); None in a training pass until its consequent solve sets it


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
    degrees = layer1(net, x)
    beta = layer3_normalize(layer2_firing(net, degrees))
    output = beta @ net.z
    return output, ForwardTrace(degrees, beta, output)


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


def _membership_grads(net: AnfisNetwork, x: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """d(mu)/d(param) of each input's terms at each row of the batch x: per input,
    one (T, N) array per parameter name of its shape."""
    return [
        SHAPES[spec.shape].grads(spec.normalize(x[:, i]), *spec.params[:, :, None])
        for i, spec in enumerate(net.inputs)
    ]


def _premise_gradients(net: AnfisNetwork, trace: ForwardTrace, err: np.ndarray, dmu) -> list:
    """Batch gradients of the set loss w.r.t. the premise params: per input a (P, T)
    array laid out as its params.

    trace is a forward pass of the set at the network's premises, with its output
    at the network's consequents, err that output minus the targets, and dmu the
    pass's membership derivatives (_membership_grads). dE/dD_i[n,t] D_i[n,t] =
    err_n sum_{r uses t} (z_r - out_n) beta[n,r]: one product and one GEMM per row
    block with every input's selectors transposed side by side (an F-ordered
    (R, sum T) array, a layout that fixes how BLAS rounds the sums over a term's
    rules); then the degrees divided back out (0/0 at a zero degree, whose
    membership gradient is NaN anyway).
    Raises TrainingError on a non-finite gradient.
    """
    out = trace.output
    term_sums = np.concatenate([sel.T for sel in net.selectors], axis=1)
    dE_ddeg = np.empty((len(out), term_sums.shape[1]))
    for rows in _row_blocks(len(out), net.n_rules):
        p = (net.z - out[rows, None]) * trace.beta[rows]
        np.matmul(p, term_sums, out=dE_ddeg[rows])
    dE_ddeg *= err[:, None]
    with np.errstate(invalid="ignore"):
        dE_ddeg /= np.concatenate(trace.degrees, axis=1)
    by_input = np.split(dE_ddeg.T, np.cumsum([s.n_terms for s in net.inputs])[:-1])

    dmf = []
    for spec, by_term, by_param in zip(net.inputs, by_input, dmu):
        # a C-ordered (T, 1, N) copy: a term's dot rounds by its operand's layout
        dE_dk = np.ascontiguousarray(by_term)[:, None, :]
        g = np.array([(dE_dk @ d[:, :, None])[:, 0, 0] for d in by_param])  # one dot per term
        for name, row in zip(SHAPES[spec.shape].param_names, g):
            if not np.all(np.isfinite(row)):
                raise TrainingError(f"non-finite gradient for premise parameter {name!r}")
        dmf.append(g)
    return dmf


def _premises(net: AnfisNetwork) -> list:
    """All that a forward pass's firing and the membership derivatives read of net."""
    return [(s.shape, s.lo, s.hi, s.params.tobytes()) for s in net.inputs]


class _Pass:
    """A training forward pass of one network over one training set, and its
    membership derivatives, computed when a premise step first asks for them.

    Neither reads the consequents or the targets. So the pass serves, at any
    epoch, every network whose premises equal those it was made at and whose
    set's inputs are a prefix of its rows. A row prefix of a C-ordered array is
    contiguous, so each product over it is the same BLAS call on the same bits
    as over a pass of the prefix's own. The consequent Gram of a prefix is a
    sum of fixed row blocks' Grams (gram); the pass keeps, for as long as it
    lives, the sum of the full blocks it last summed, so the prefixes it serves
    share those blocks' products.
    """

    def __init__(self, net: AnfisNetwork, data: TrainingSet):
        self.premises = _premises(net)
        self.inputs = data.inputs
        self.trace = forward_batch(net, data.inputs)[1]
        self._dmu = None
        self._blocks = (0, 0.0)  # full blocks summed, and the sum of their Grams

    def serves(self, net: AnfisNetwork, data: TrainingSet) -> bool:
        n = len(data)
        return (
            n <= len(self.inputs)
            and _premises(net) == self.premises
            and np.array_equal(data.inputs, self.inputs[:n])
        )

    def trace_for(self, n: int) -> ForwardTrace:
        """The pass over the first n rows; the consequent solve computes its output."""
        return ForwardTrace([d[:n] for d in self.trace.degrees], self.trace.beta[:n], None)

    def dmu_for(self, net: AnfisNetwork, n: int) -> list[tuple[np.ndarray, ...]]:
        """The membership derivatives at the first n rows; net is one the pass serves."""
        if self._dmu is None:
            self._dmu = _membership_grads(net, self.inputs)
        return [tuple(d[:, :n] for d in by_param) for by_param in self._dmu]

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


def _solve_consequents(net: AnfisNetwork, data: TrainingSet, shared: _Pass) -> ForwardTrace:
    """Solve (B'B + lam I) z = B'y for the consequents, lam = RIDGE * trace(B'B) / n_rules,
    B the firing of shared, a _Pass that serves net and data, over data's rows.
    Returns the trace of those rows, with its output at z.

    B'B is shared.gram's block sum, so networks the pass serves share the
    products of their common full blocks. The rows of B sum to one, so the
    trace is positive and the system positive definite even where rules never
    fire apart (ridge regression, Hoerl & Kennard 1970)."""
    trace = shared.trace_for(len(data))
    gram = shared.gram(len(data))
    gram.flat[:: net.n_rules + 1] += RIDGE * np.trace(gram) / net.n_rules
    net.z = np.linalg.solve(gram, trace.beta.T @ data.targets)
    trace.output = trace.beta @ net.z
    return trace


def _hybrid_step(net, data, shared, eta, last) -> float:
    """One hybrid epoch from shared, a _Pass that serves net and data: the ridge
    consequent solve, then, unless last, a premise descent step of rate eta, each
    input's (P, T) parameters moved back into its shape's family after. Returns
    the post-solve loss: the loss at these premises with the consequents solved."""
    trace = _solve_consequents(net, data, shared)
    if eta > 0.0 and not last:
        err = trace.output - data.targets
        dmf = _premise_gradients(net, trace, err, shared.dmu_for(net, len(data)))
        for spec, g in zip(net.inputs, dmf):
            spec.params -= eta * g
            SHAPES[spec.shape].constrain(spec.params)
    return _half_sse(data, trace.output)


def train_networks(
    nets: list[AnfisNetwork], sets: list[TrainingSet], epochs: int, eta: float
) -> list[list[float]]:
    """Trains each network on its set at premise rate eta; returns each one's epoch losses.

    At every epoch each network in turn takes a forward pass and one hybrid step
    from it: the consequent solve, its loss and the premise step. A pass reads
    neither the consequents nor the targets, so the current pass serves each
    network it can (_Pass.serves, decided by comparison), at any epoch; a
    network it cannot serve frees it and makes the next. Only one pass is alive
    at a time.
    """
    if epochs < 1:
        raise ValidationError("epochs must be >= 1")
    if not (math.isfinite(eta) and eta >= 0.0):
        raise ValidationError(f"learning rate must be >= 0, got {eta}")
    for net, data in zip(nets, sets):
        if len(data) < net.n_rules:
            raise ValidationError(
                f"hybrid training needs at least {net.n_rules} samples, got {len(data)}"
            )
    losses = [[] for _ in nets]
    shared = None
    for k in range(epochs):
        for net, data, record in zip(nets, sets, losses):
            if shared is None or not shared.serves(net, data):
                shared = None  # frees the previous pass before the next is made
                shared = _Pass(net, data)
            record.append(_hybrid_step(net, data, shared, eta, k == epochs - 1))
    return losses


def train_hybrid(net: AnfisNetwork, data: TrainingSet, epochs: int, eta: float) -> list[float]:
    """Per epoch: ridge least-squares consequents, then one premise descent step of rate eta.

    The recorded epoch loss is the post-solve loss, i.e. the loss at that
    epoch's premise parameters with the consequents solved for them. The
    final epoch skips the premise step, so the returned network realizes the
    last recorded loss exactly. The solve's forward pass serves the loss and
    the gradient, since the premises do not change in between.
    """
    return train_networks([net], [data], epochs, eta)[0]


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

        Each row's output is its own dot of firing strengths and consequents, so
        it equals a one-row call bit for bit (a matrix-vector product over many
        rows rounds differently). Rows go through the networks in blocks; a
        DegenerateFiringError gives its rows as indices of inputs' rows.
        """
        n = inputs.shape[1]
        out = np.empty((n, 3))
        for lo in range(0, n, _RESIDUAL_ROWS):
            rows = slice(lo, lo + _RESIDUAL_ROWS)
            for k, net in enumerate(self.networks):
                try:
                    beta = forward_batch(net, inputs[k, rows])[1].beta
                except DegenerateFiringError as exc:
                    exc.rows = exc.rows + lo
                    raise
                out[rows, k] = (beta[:, None, :] @ net.z[:, None])[:, 0, 0]
        return out

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
