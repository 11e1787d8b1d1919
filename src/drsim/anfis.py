"""Five-layer zero-order Sugeno neuro-fuzzy network.

Layer 1 fuzzifies each normalized input against its linguistic terms, layer 2
takes the product T-norm per rule, layer 3 normalizes firing strengths, layer
4 weights the constant consequents and layer 5 sums them. Premise parameters
train by batch gradient descent; consequents train either by the same descent
or by a ridge-regularized least-squares pass (hybrid regime).

All math is batched over samples: x is (N, n_inputs), outputs are (N,).
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFiringError, TrainingError, ValidationError
from .kinematics import EntityState, Order, extrapolate

SEVEN_LABELS = ("NB", "NM", "NS", "ZE", "PS", "PM", "PB")

_EXP_CLIP = 60.0
_BLOCK_ELEMENTS = 1 << 15  # per row block of an (N, R) stage, so that it stays in cache
_RESIDUAL_ROWS = 1024  # rows per forward pass of AnfisBundle.residuals, so memory stays bounded
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
    labels: list[str]

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.hi > self.lo):
            raise ValidationError(f"bad range [{self.lo}, {self.hi}] for input {self.name!r}")
        if self.shape not in SHAPES:
            raise ValidationError(f"input {self.name!r} has unknown shape {self.shape!r}")
        try:
            p = self.params = np.array(self.params, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError(f"parameters of input {self.name!r} must be numbers") from None
        names = SHAPES[self.shape].param_names
        if p.ndim != 2 or p.shape[0] != len(names) or p.shape[1] < 1:
            raise ValidationError(f"input {self.name!r} needs {names} rows and at least one term")
        if not np.all(np.isfinite(p)):
            raise ValidationError(f"membership parameters of input {self.name!r} must be finite")
        if self.shape == "bell" and not np.all(p[:2] > 0.0):
            raise ValidationError(f"bell width and exponent of input {self.name!r} must be > 0")
        if self.shape == "sigmoid" and not np.all(p[0] != 0.0):
            raise ValidationError(f"sigmoid slope of input {self.name!r} must be nonzero")
        if len(self.labels) != self.n_terms or len(set(self.labels)) != len(self.labels):
            raise ValidationError(f"labels for input {self.name!r} must be unique per term")

    @property
    def n_terms(self) -> int:
        return self.params.shape[1]

    def normalize(self, x):
        return 2.0 * (np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo) - 1.0

    def to_dict(self) -> dict:
        names = SHAPES[self.shape].param_names
        return {
            "name": self.name,
            "lo": self.lo,
            "hi": self.hi,
            "labels": list(self.labels),
            "terms": [
                {"shape": self.shape, **dict(zip(names, col))} for col in self.params.T.tolist()
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InputSpec":
        """Reads one record per term: "shape" and exactly that shape's parameters."""
        name = d.get("name")
        if d.keys() != {"name", "lo", "hi", "labels", "terms"}:
            raise ValidationError(f"input {name!r} needs keys name, lo, hi, labels, terms")
        shapes = sorted({t.get("shape") for t in d["terms"]}, key=str)
        if len(shapes) != 1:
            raise ValidationError(f"input {name!r} needs terms of one shape, got {shapes}")
        names = SHAPES[shapes[0]].param_names if shapes[0] in SHAPES else ()
        bad = [sorted(t) for t in d["terms"] if names and t.keys() != {"shape", *names}]
        if bad:
            raise ValidationError(f"a term of input {name!r} needs shape and {names}, got {bad[0]}")
        params = [[t[n] for t in d["terms"]] for n in names]
        return cls(name, d["lo"], d["hi"], shapes[0], params, list(d["labels"]))


class AnfisNetwork:
    """Mutable network: inputs with terms, a rule list and constant consequents."""

    def __init__(self, inputs: list[InputSpec], rules, consequents, eta: float = 0.05):
        self.inputs = list(inputs)
        self.rules = np.asarray(rules, dtype=int)
        if self.rules.ndim != 2 or self.rules.shape[1] != len(self.inputs):
            raise ValidationError(
                f"rules must be (n_rules, {len(self.inputs)}), got {self.rules.shape}"
            )
        for i, spec in enumerate(self.inputs):
            col = self.rules[:, i]
            if col.min(initial=0) < 0 or col.max(initial=0) >= spec.n_terms:
                raise ValidationError(f"rule antecedent index out of range for input {spec.name!r}")
        # selectors[i][t, r] is 1.0 where rule r uses term t of input i: degrees @
        # selectors[i] gathers each rule's degree exactly. term_sums, their transposes side
        # by side in C order, fixes how BLAS rounds the sums over a term's rules.
        self.selectors = [
            (np.arange(spec.n_terms)[:, None] == self.rules[:, i]).astype(float)
            for i, spec in enumerate(self.inputs)
        ]
        self.term_sums = np.concatenate([sel.T for sel in self.selectors], axis=1)
        self.z = np.array(consequents, dtype=float)
        if self.z.shape != (self.rules.shape[0],):
            raise ValidationError(f"need one consequent per rule, got {self.z.shape}")
        if not np.all(np.isfinite(self.z)):
            raise ValidationError("consequents must be finite")
        if not (math.isfinite(eta) and eta >= 0.0):
            raise ValidationError(f"learning rate must be >= 0, got {eta}")
        self.eta = float(eta)

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
            "rules": self.rules.tolist(),
            "consequents": self.z.tolist(),
            "eta": self.eta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AnfisNetwork":
        inputs = [InputSpec.from_dict(s) for s in d["inputs"]]
        return cls(inputs, d["rules"], d["consequents"], d["eta"])


def default_labels(n_terms: int) -> list[str]:
    if n_terms == 7:
        return list(SEVEN_LABELS)
    return [f"T{i}" for i in range(n_terms)]


def build_network(
    inputs: list[tuple[str, float, float]],
    n_terms: int | list[int] = 7,
    shape: str = "bell",
    rule_base: str = "compact",
    eta: float = 0.05,
    seed: int | None = None,
    center_jitter: float = 0.0,
) -> AnfisNetwork:
    """Standard initialization: term centers equally spaced over each range.

    n_terms is one term count for every input, or a list of one count per
    input. Bell widths are half the center spacing with exponent 2;
    consequents start at zero. With a seed, each input's centers get uniform
    jitter of +-center_jitter times its spacing, one draw per term. The grid
    rule base takes the full cross product of the inputs' terms. The compact
    rule base pairs term j of every input into rule j; a one-term input gives
    its only term to every rule, and the other inputs must share one count.
    """
    counts = [n_terms] * len(inputs) if isinstance(n_terms, int) else list(n_terms)
    if len(counts) != len(inputs):
        raise ValidationError(f"need one term count per input, got {counts} for {len(inputs)}")
    if min(counts) < 1:
        raise ValidationError("n_terms must be >= 1")
    rng = np.random.default_rng(seed) if seed is not None else None
    specs = []
    for (name, lo, hi), n in zip(inputs, counts):
        spacing = 2.0 / (n - 1) if n > 1 else 2.0
        centers = np.linspace(-1.0, 1.0, n) if n > 1 else np.zeros(1)
        if rng is not None and center_jitter > 0.0:
            centers = centers + rng.uniform(-center_jitter, center_jitter, n) * spacing
        if shape == "bell":
            params = [np.full(n, spacing / 2.0), np.full(n, 2.0), centers]
        elif shape == "sigmoid":
            params = [np.full(n, 4.0 / spacing), centers]
        else:
            raise ValidationError(f"unknown membership shape {shape!r}")
        specs.append(InputSpec(name, float(lo), float(hi), shape, params, default_labels(n)))

    if rule_base == "compact":
        if len(set(counts) - {1}) > 1:
            raise ValidationError(f"a compact rule base needs one count besides 1, got {counts}")
        rules = [tuple(min(j, n - 1) for n in counts) for j in range(max(counts))]
    elif rule_base == "grid":
        rules = list(itertools.product(*(range(n) for n in counts)))
    else:
        raise ValidationError(f"unknown rule base {rule_base!r}")
    return AnfisNetwork(specs, rules, np.zeros(len(rules)), eta=eta)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


@dataclass
class ForwardTrace:
    """One forward pass. beta is layer 2's firing, normalized in place: no alpha is kept."""

    degrees: list[np.ndarray]  # per input: (N, n_terms_i)
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
            "inputs are too far outside every term"
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


def _gradients(net: AnfisNetwork, data: TrainingSet, trace: ForwardTrace | None = None):
    """Batch gradients of the set loss w.r.t. consequents and premise params:
    dz (R,), then per input a (P, T) array laid out as its params.

    trace is the forward pass of data at the network's current parameters,
    computed here when not given. dE/dD_i[n,t] D_i[n,t] = err_n sum_{r uses t}
    (z_r - out_n) beta[n,r]: one product and one GEMM with term_sums per row block,
    then the degrees divided back out (0/0 at a zero degree, whose membership
    gradient is NaN anyway). Raises TrainingError on a non-finite gradient.
    """
    x = net._as_batch(data.inputs)
    if trace is None:
        _, trace = forward_batch(net, x)
    out = trace.output
    err = out - data.targets  # dE/d(output) per sample
    dz = trace.beta.T @ err
    if not np.all(np.isfinite(dz)):
        raise TrainingError("non-finite consequent gradient; lower eta or rescale inputs")

    dE_ddeg = np.empty((len(x), net.term_sums.shape[1]))
    for rows in _row_blocks(len(x), net.n_rules):
        p = (net.z - out[rows, None]) * trace.beta[rows]
        np.matmul(p, net.term_sums, out=dE_ddeg[rows])
    dE_ddeg *= err[:, None]
    with np.errstate(invalid="ignore"):
        dE_ddeg /= np.concatenate(trace.degrees, axis=1)
    by_input = np.split(dE_ddeg.T, np.cumsum([s.n_terms for s in net.inputs])[:-1])

    dmf = []
    for i, (spec, by_term) in enumerate(zip(net.inputs, by_input)):
        shape = SHAPES[spec.shape]
        # a C-ordered (T, 1, N) copy: a term's dot rounds by its operand's layout
        dE_dk = np.ascontiguousarray(by_term)[:, None, :]
        dmu = shape.grads(spec.normalize(x[:, i]), *spec.params[:, :, None])
        g = np.array([(dE_dk @ d[:, :, None])[:, 0, 0] for d in dmu])  # one dot per term
        for name, row in zip(shape.param_names, g):
            if not np.all(np.isfinite(row)):
                raise TrainingError(f"non-finite gradient for premise parameter {name!r}")
        dmf.append(g)
    return dz, dmf, out


def _apply_premise_step(net: AnfisNetwork, dmf, eta: float) -> None:
    """One descent step on each input's (P, T) parameters, then its shape's constraint."""
    for spec, g in zip(net.inputs, dmf):
        spec.params -= eta * g
        SHAPES[spec.shape].constrain(spec.params)


def train_gd(net: AnfisNetwork, data: TrainingSet, epochs: int) -> list[float]:
    """Batch gradient descent on every parameter; returns loss after each epoch.

    Each epoch's one forward pass, after its step, also serves the next gradient.
    """
    if epochs < 1:
        raise ValidationError("epochs must be >= 1")
    losses = []
    _, trace = forward_batch(net, data.inputs)
    for _ in range(epochs):
        dz, dmf, _ = _gradients(net, data, trace)
        del trace  # frees its (N, R) array before the next forward pass
        net.z = net.z - net.eta * dz
        _apply_premise_step(net, dmf, net.eta)
        out, trace = forward_batch(net, data.inputs)
        losses.append(_half_sse(data, out))
    return losses


def _solve_consequents(net: AnfisNetwork, data: TrainingSet) -> ForwardTrace:
    """Solve (B'B + lam I) z = B'y for the consequents, lam = RIDGE * trace(B'B) / n_rules.

    The rows of B sum to one, so the trace is positive and the system positive
    definite even where rules never fire apart (ridge regression, Hoerl &
    Kennard 1970). Returns the forward pass, its output at the solved z."""
    _, trace = forward_batch(net, data.inputs)
    gram = trace.beta.T @ trace.beta
    gram.flat[:: net.n_rules + 1] += RIDGE * np.trace(gram) / net.n_rules
    net.z = np.linalg.solve(gram, trace.beta.T @ data.targets)
    trace.output = trace.beta @ net.z
    return trace


def train_hybrid(net: AnfisNetwork, data: TrainingSet, epochs: int) -> list[float]:
    """Per epoch: ridge least-squares consequents, then one premise descent step.

    The recorded epoch loss is the post-solve loss, i.e. the loss at that
    epoch's premise parameters with the consequents solved for them. The
    final epoch skips the premise step, so the returned network realizes the
    last recorded loss exactly. The solve's forward pass serves the loss and
    the gradient, since the premises do not change in between.
    """
    if epochs < 1:
        raise ValidationError("epochs must be >= 1")
    if len(data) < net.n_rules:
        raise ValidationError(
            f"hybrid training needs at least {net.n_rules} samples, got {len(data)}"
        )
    losses = []
    for epoch in range(epochs):
        trace = _solve_consequents(net, data)
        losses.append(_half_sse(data, trace.output))
        if net.eta > 0.0 and epoch < epochs - 1:
            _, dmf, _ = _gradients(net, data, trace)
            _apply_premise_step(net, dmf, net.eta)
        del trace  # frees its (N, R) array before the next solve
    return losses


# ---------------------------------------------------------------------------
# Prediction bundle: one network per position axis
# ---------------------------------------------------------------------------


AXIS_NAMES = ("x", "y", "z")


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
        if not (math.isfinite(h_ref) and h_ref > 0.0):
            raise ValidationError(f"reference horizon must be positive, got {h_ref}")
        if not (math.isfinite(feature_tick) and feature_tick > 0.0):
            raise ValidationError(f"feature tick must be positive, got {feature_tick}")
        self.networks = list(networks)
        self.h_ref = float(h_ref)
        self.feature_tick = float(feature_tick)

    def residuals(self, dev, vel, orient) -> np.ndarray:
        """Learned corrections (N, 3) at the reference horizon for batched features.

        Each row's output is its own dot of firing strengths and consequents, so
        it equals a one-row call bit for bit (a matrix-vector product over many
        rows rounds differently). Rows go through the networks in blocks.
        """
        dev = np.atleast_2d(np.asarray(dev, dtype=float))
        vel = np.atleast_2d(np.asarray(vel, dtype=float))
        orient = np.atleast_1d(np.asarray(orient, dtype=float))
        out = np.empty((len(orient), 3))
        for lo in range(0, len(orient), _RESIDUAL_ROWS):
            rows = slice(lo, lo + _RESIDUAL_ROWS)
            for k, net in enumerate(self.networks):
                feats = np.column_stack([dev[rows, k], vel[rows, k], orient[rows]])
                beta = forward_batch(net, feats)[1].beta
                out[rows, k] = (beta[:, None, :] @ net.z[:, None])[:, 0, 0]
        return out

    def corrections(self, dev, vel, orient, horizon: float) -> np.ndarray:
        """Residual corrections (N, 3) for batched features at one horizon."""
        return self.residuals(dev, vel, orient) * (horizon / self.h_ref) ** 3

    def scales(self, horizons: np.ndarray) -> np.ndarray:
        """The correction scale (horizon / h_ref)^3 for each horizon.

        Computed in Python floats: numpy's power rounds some cubes differently.
        """
        h_ref = self.h_ref
        return np.array([(h / h_ref) ** 3 for h in horizons.tolist()])

    def predict(self, history: list[EntityState], horizon: float) -> np.ndarray:
        """Predicted position horizon seconds past the newest history sample."""
        if not history:
            raise ValidationError("history must contain at least one state")
        if horizon < 0.0:
            raise ValidationError(f"horizon must be >= 0, got {horizon}")
        last = history[-1]
        if len(history) >= 2:
            prev = history[-2]
            dev = last.position - extrapolate(prev, last.time, Order.SECOND).position
        else:
            dev = np.zeros(3)
        base = extrapolate(last, last.time + horizon, Order.SECOND)
        corr = self.corrections(dev[None, :], last.velocity[None, :], [last.orientation], horizon)
        return base.position + corr[0]

    def to_dict(self) -> dict:
        return {
            "kind": "anfis-bundle",
            "axes": list(AXIS_NAMES),
            "h_ref": self.h_ref,
            "feature_tick": self.feature_tick,
            "networks": [net.to_dict() for net in self.networks],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AnfisBundle":
        if d.get("kind") != "anfis-bundle":
            raise ValidationError("not an anfis bundle document")
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
