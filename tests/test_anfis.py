import copy
import dataclasses
import itertools
import json
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drsim import anfis
from drsim.anfis import (
    AnfisBundle,
    SHAPES,
    AnfisNetwork,
    InputSpec,
    TrainingSet,
    build_network,
    forward_batch,
    layer1,
    layer2_firing,
    layer3_normalize,
    loss,
    train_hybrid,
)
from drsim.errors import DegenerateFiringError, ValidationError
from drsim.kinematics import Correction, EntityState, extrapolate
from reference import block_gram, count_training_events


def tiny_net(n_terms=3, n_inputs=1, shape="bell"):
    """A network of inputs on [-1, 1], n_terms terms each (or n_terms[i] for input
    i), of one shape, or for "mixed" sigmoid terms at the odd-numbered inputs and
    bell terms at the others."""
    inputs = [(f"in{i}", -1.0, 1.0) for i in range(n_inputs)]
    if shape != "mixed":
        return build_network(inputs, n_terms, shape)
    net = build_network(inputs, n_terms)
    specs = [dataclasses.replace(s, shape="sigmoid") if i % 2 else s
             for i, s in enumerate(net.inputs)]
    return AnfisNetwork(specs, net.z)


BELL = SHAPES["bell"]  # (x, centers, spacing): width spacing / 2, exponent 2
SIGMOID = SHAPES["sigmoid"]  # (x, centers, spacing): slope 4 / spacing


class TestMembership:
    def test_sigmoid_center_is_half(self):
        assert SIGMOID(0.0, 0.0, 4.0) == pytest.approx(0.5)

    def test_bell_peak_is_one(self):
        assert BELL(3.0, 3.0, 4.0) == pytest.approx(1.0)

    def test_bell_half_at_one_width(self):
        # width 4 / 2: 1 / (1 + |2/2|^4) = 0.5
        assert BELL(5.0, 3.0, 4.0) == pytest.approx(0.5)

    def test_output_ranges(self):
        xs = np.linspace(-50, 50, 1001)
        bell = BELL(xs, 0.0, 1.0)
        sig = SIGMOID(xs, 0.0, 4.0 / 3.0)  # slope 3
        assert np.all(bell > 0) and np.all(bell <= 1.0)
        assert np.all(sig > 0) and np.all(sig <= 1.0)
        # strictly below 1 wherever float resolution can represent the gap
        near = SIGMOID(np.linspace(-10, 10, 1001), 0.0, 4.0 / 3.0)
        assert np.all(near < 1.0)

    @pytest.mark.parametrize("shape", ["bell", "sigmoid"])
    def test_terms_are_equally_spaced_over_the_range(self, shape):
        """n terms center on n equally spaced points from lo to hi, one term on
        the middle; a bell is 1/2 and a sigmoid 1/2 + tanh(1)/2 half a spacing
        past its center."""
        for n in (1, 2, 5, 7):
            spec = InputSpec("x", -3.0, 5.0, shape, n)
            net = AnfisNetwork([spec], np.zeros(n))
            at = np.linspace(-3.0, 5.0, n) if n > 1 else np.array([1.0])
            half = (8.0 if n == 1 else 8.0 / (n - 1)) / 2.0
            peak, past = layer1(net, at[:, None])[0], layer1(net, at[:, None] + half)[0]
            if shape == "bell":
                np.testing.assert_allclose(np.diag(peak), 1.0, rtol=1e-15)
                np.testing.assert_allclose(np.diag(past), 0.5, rtol=1e-12)
            else:
                np.testing.assert_allclose(np.diag(peak), 0.5, rtol=1e-12)
                np.testing.assert_allclose(np.diag(past), 0.5 + math.tanh(1.0) / 2, rtol=1e-12)

    def test_invalid_params_rejected(self):
        """An input is its name, range, shape and term count: a count that is not
        an integer >= 1, an unknown shape or a bad range fails, naming the input.
        config.convert types each value, as it types a loaded record's."""
        for shape, n_terms, match in [
            ("bell", 0, "^bad value for 'n_terms' in input 'x': expected an integer >= 1, got 0$"),
            ("bell", 1.5, "^bad value for 'n_terms' in input 'x': expected an integer, got 1.5$"),
            ("sigmoid", 7.0, "'n_terms' in input 'x': expected an integer, got 7.0$"),
            ("sigmoid", True, "'n_terms' in input 'x': expected an integer, got True$"),
            ("bell", "7", "'n_terms' in input 'x': expected an integer, got '7'$"),
            ("triangle", 3, "^bad value for 'shape' in input 'x': expected one of sigmoid, bell, "
             "got 'triangle'$"),
            (["bell"], 3, "^bad value for 'shape' in input 'x': expected one of sigmoid, bell, "
             r"got \['bell'\]$"),
        ]:
            with pytest.raises(ValidationError, match=match):
                InputSpec("x", -1.0, 1.0, shape, n_terms)
        for lo, hi, match in (
            (1.0, 1.0, r"^bad range \[1.0, 1.0\] for input 'x'$"),
            (-math.inf, 1.0,
             r"^bad value for 'lo' in input 'x': expected a number in \(-inf, inf\), got -inf$"),
            (0.0, math.nan,
             r"^bad value for 'hi' in input 'x': expected a number in \(-inf, inf\), got nan$"),
            ("low", 1.0, "^bad value for 'lo' in input 'x': expected a number, got 'low'$"),
        ):
            with pytest.raises(ValidationError, match=match):
                InputSpec("x", lo, hi, "bell", 3)


class TestLayers:
    def test_layer1_at_bell_centers(self):
        net = tiny_net(n_terms=3, n_inputs=2)
        centers_x = np.linspace(-1.0, 1.0, 3).tolist()
        degrees = layer1(net, [centers_x[1], 0.0])  # second center is 0 = input 2's center term
        assert degrees[0][0, 1] == pytest.approx(1.0)
        assert degrees[1][0, 1] == pytest.approx(1.0)

    def test_layer1_single_sigmoid(self):
        spec = InputSpec("x", -1.0, 1.0, "sigmoid", 1)
        net = AnfisNetwork([spec], [0.0])
        degrees = layer1(net, [0.0])
        assert degrees[0][0, 0] == pytest.approx(0.5)

    def test_layer1_arity_mismatch(self):
        net = tiny_net(n_inputs=2)
        with pytest.raises(ValidationError):
            layer1(net, [0.5])

    def test_distance_grid_monotone_pattern(self):
        # over a 7-point grid spanning the threshold interval, the most-negative
        # term's degree strictly decays as the distance input sweeps upward
        th = 1.5
        net = build_network([("distance", -th, th)], n_terms=7)
        grid = np.linspace(-th, th, 7)
        degrees = layer1(net, grid.reshape(-1, 1))[0]
        nb = degrees[:, 0]
        assert np.all(np.diff(nb) < 0)
        pb = degrees[:, 6]
        assert np.all(np.diff(pb) > 0)

    def test_layer2_hand_product(self):
        spec_degrees = [np.array([[0.5]]), np.array([[0.4]]), np.array([[0.2]])]
        net = build_network([("a", -1, 1), ("b", -1, 1), ("c", -1, 1)], n_terms=1)
        alpha = layer2_firing(net, spec_degrees)
        assert alpha[0, 0] == pytest.approx(0.04)

    def test_layer2_identity_and_annihilator(self):
        net = build_network([("a", -1, 1), ("b", -1, 1)], n_terms=2)
        ones = [np.ones((1, 2)), np.ones((1, 2))]
        assert np.allclose(layer2_firing(net, ones), 1.0)
        with_zero = [np.array([[0.0, 1.0]]), np.ones((1, 2))]
        assert layer2_firing(net, with_zero)[0, 0] == 0.0

    def test_layer3_hand_normalization(self):
        beta = layer3_normalize(np.array([2.0, 3.0, 5.0]))
        assert np.allclose(beta, [[0.2, 0.3, 0.5]])

    def test_layer3_single_rule(self):
        assert np.allclose(layer3_normalize(np.array([0.7])), [[1.0]])

    def test_layer3_all_zero_raises(self):
        with pytest.raises(DegenerateFiringError):
            layer3_normalize(np.array([0.0, 0.0]))

    def test_layer3_counts_every_degenerate_row(self):
        # rows far enough apart to fall in different row blocks of an (N, 4) stage
        alpha = np.full((3 * anfis._BLOCK_ELEMENTS, 4), 0.25)
        alpha[[0, anfis._BLOCK_ELEMENTS // 2, len(alpha) - 1]] = 0.0
        alpha[anfis._BLOCK_ELEMENTS, 1] = np.inf
        with pytest.raises(DegenerateFiringError, match=r"^4 sample\(s\) fired no rule") as exc:
            layer3_normalize(alpha)
        expected = [0, anfis._BLOCK_ELEMENTS // 2, anfis._BLOCK_ELEMENTS, len(alpha) - 1]
        assert exc.value.rows.tolist() == expected

    def test_degenerate_firing_error_pickles_with_its_rows(self):
        with pytest.raises(DegenerateFiringError) as exc:
            layer3_normalize(np.array([[1.0, 1.0], [0.0, 0.0]]))
        copied = pickle.loads(pickle.dumps(exc.value))
        assert (str(copied), copied.rows.tolist()) == (str(exc.value), [1])
        assert DegenerateFiringError("no rows given").rows == ()

    def test_layer3_normalizes_the_given_buffer(self):
        alpha = np.array([[2.0, 3.0, 5.0], [1.0, 1.0, 2.0]])
        beta = layer3_normalize(alpha)
        assert beta is alpha
        assert np.array_equal(beta, [[0.2, 0.3, 0.5], [0.25, 0.25, 0.5]])


class TestForward:
    def test_partition_of_unity_constant_output(self):
        net = tiny_net(n_terms=5, n_inputs=2)
        net.z = np.full(net.n_rules, -3.25)
        for x in ([0.0, 0.0], [0.9, -0.7], [2.0, 1.5]):
            out, _ = forward_batch(net, x)
            assert out[0] == pytest.approx(-3.25, abs=1e-12)

    def test_hand_weighted_average(self):
        # two bell terms at -1 and +1 of width 1; x = 1 fires the term at +1 at 1
        # and the term two widths away at 1 / (1 + 2^4) = 1/17, a ratio of 1:17
        spec = InputSpec("x", -1.0, 1.0, "bell", 2)
        net = AnfisNetwork([spec], [4.0, 8.0])
        out, beta = forward_batch(net, [1.0])
        assert np.allclose(beta, [[1.0 / 18.0, 17.0 / 18.0]])
        assert out[0] == pytest.approx((4.0 + 8.0 * 17.0) / 18.0)

    def test_single_rule_returns_its_consequent(self):
        net = tiny_net(n_terms=1)
        net.z = np.array([-2.5])
        for x in (-0.8, 0.0, 1.3):
            out, _ = forward_batch(net, [x])
            assert out[0] == pytest.approx(-2.5)

    def test_output_within_consequent_hull(self):
        rng = np.random.default_rng(3)
        net = tiny_net(n_terms=7, n_inputs=3)
        net.z = rng.normal(0, 2, net.n_rules)
        X = rng.uniform(-1.5, 1.5, (500, 3))
        out, beta = forward_batch(net, X)
        assert np.all(out >= net.z.min() - 1e-12)
        assert np.all(out <= net.z.max() + 1e-12)
        assert np.max(np.abs(beta.sum(axis=1) - 1.0)) < 1e-12

    def test_far_input_degenerates(self):
        net = tiny_net(n_terms=3)
        with pytest.raises(DegenerateFiringError):
            forward_batch(net, [1e200])


class TestLoss:
    def test_zero_when_exact(self):
        net = tiny_net(n_terms=1)
        net.z = np.array([2.0])
        data = TrainingSet(np.zeros((3, 1)), np.full(3, 2.0))
        assert loss(net, data) == 0.0

    def test_half_square_single(self):
        net = tiny_net(n_terms=1)  # output is always z = 0
        data = TrainingSet(np.zeros((1, 1)), np.array([1.0]))
        assert loss(net, data) == pytest.approx(0.5)

    def test_sums_over_samples(self):
        net = tiny_net(n_terms=1)
        data = TrainingSet(np.zeros((2, 1)), np.array([1.0, 2.0]))
        assert loss(net, data) == pytest.approx(2.5)


# Per-term reference of layer 1: each membership term in its own call. The
# kernel evaluates all terms of an input at once and must match exactly.


def _ref_degree(spec, t, x):
    """Degree of term t of spec, from its parameters as Python floats: a center
    on the grid of n_terms points equally spaced over [-1, 1] (0 for one term),
    and for a bell the width half the spacing and exponent 2, for a sigmoid the
    slope 4 / spacing."""
    n = spec.n_terms
    spacing = 2.0 / (n - 1) if n > 1 else 2.0
    c = 0.0 if n == 1 else 1.0 if t == n - 1 else -1.0 + t * spacing
    if spec.shape == "sigmoid":
        a = 4.0 / spacing
        arg = np.clip(a * (x - c), -60.0, 60.0)
        return 1.0 / (1.0 + np.exp(-arg))
    a, b = spacing / 2.0, 2.0
    with np.errstate(over="ignore"):
        u = ((x - c) / a) ** 2
        return 1.0 / (1.0 + u**b)


def reference_layer1(net, x):
    batch = np.atleast_2d(np.asarray(x, dtype=float))
    out = []
    for i, spec in enumerate(net.inputs):
        xn = spec.normalize(batch[:, i])
        out.append(np.column_stack([_ref_degree(spec, t, xn) for t in range(spec.n_terms)]))
    return out


def reference_firing(net, degrees):
    alpha = degrees[0][:, net.rules[:, 0]].copy()
    for i in range(1, net.n_inputs):
        alpha *= degrees[i][:, net.rules[:, i]]
    return alpha


def kernel_case(shape, n_inputs, grid):
    """A network of shape (tiny_net) with random consequents, plus samples
    reaching past the input range. A "grid" gives every input 4 terms, an
    "uneven" one 4, 2 and 3."""
    rng = np.random.default_rng(13)
    n_terms = [4, 2, 3][:n_inputs] if grid == "uneven" else 4
    net = tiny_net(n_terms=n_terms, n_inputs=n_inputs, shape=shape)
    net.z = rng.normal(0, 1, net.n_rules)
    X = rng.uniform(-1.3, 1.3, (80, n_inputs))
    return net, TrainingSet(X, rng.normal(0, 1, 80))


# With one input, "mixed" would repeat the bell case and "uneven" the grid.
KERNEL_CASES = [
    (shape, n_inputs, grid)
    for shape in ("bell", "sigmoid", "mixed")
    for n_inputs in (1, 3)
    for grid in ("grid", "uneven")
    if (shape, n_inputs) != ("mixed", 1) and (n_inputs, grid) != (1, "uneven")
]


class TestKernelAgainstReference:
    @pytest.mark.parametrize("shape, n_inputs, grid", KERNEL_CASES)
    def test_layer1_equals_per_term(self, shape, n_inputs, grid):
        net, data = kernel_case(shape, n_inputs, grid)
        for x in (data.inputs, data.inputs[:1]):
            new, ref = layer1(net, x), reference_layer1(net, x)
            assert len(new) == len(ref)
            for a, b in zip(new, ref):
                assert a.shape == b.shape
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape, n_inputs, grid", KERNEL_CASES)
    def test_beta_equals_alpha_over_total(self, shape, n_inputs, grid):
        net, data = kernel_case(shape, n_inputs, grid)
        alpha = reference_firing(net, reference_layer1(net, data.inputs))
        beta = forward_batch(net, data.inputs)[1]
        assert np.array_equal(beta, alpha / alpha.sum(axis=1)[:, None])


class TestTrainNetworks:
    """One network per target column, all from one pass and one solve at the
    premises given; a single column trains as train_hybrid does, bit for bit."""

    def test_one_column_equals_train_hybrid(self, monkeypatch):
        net, data = kernel_case("mixed", 3, "grid")
        alone = AnfisNetwork(net.inputs, np.zeros(net.n_rules))
        train_hybrid(alone, data)
        counts = count_training_events(monkeypatch)
        for targets in (data.targets, data.targets[:, None]):
            [trained] = anfis.train_networks(net, TrainingSet(data.inputs, targets))
            assert trained.to_dict() == alone.to_dict()
        assert counts == ([1, 1], [1, 1])

    def test_columns_share_one_pass_and_one_solve(self, monkeypatch):
        rng = np.random.default_rng(41)
        X = rng.uniform(-1, 1, (80, 2))
        Y = np.stack([np.sin(3 * X[:, 0]) * X[:, 1], X[:, 0] ** 2, 2.0 * X[:, 1]], axis=1)
        net = tiny_net(4, 2)
        untrained = net.to_dict()
        counts = count_training_events(monkeypatch)
        trained = anfis.train_networks(net, TrainingSet(X, Y))
        assert counts == ([1], [1])
        assert net.to_dict() == untrained
        beta = forward_batch(net, X)[1]
        gram = block_gram(beta, len(beta))
        gram += anfis.RIDGE * np.trace(gram) / net.n_rules * np.eye(net.n_rules)
        solved = np.linalg.solve(gram, beta.T @ Y)
        for j, out in enumerate(trained):
            assert out.inputs == net.inputs and out.rules is net.rules
            assert np.array_equal(out.z, solved[:, j]) and out.z.flags.c_contiguous

    def test_needs_enough_samples(self):
        data = TrainingSet(np.zeros((48, 2)), np.zeros((48, 3)))
        with pytest.raises(ValidationError, match="at least 49 samples, got 48"):
            anfis.train_networks(tiny_net(7, 2), data)


class TestTrainHybrid:
    def test_recovers_exact_consequents(self):
        rng = np.random.default_rng(2)
        truth_net = tiny_net(n_terms=5, n_inputs=2)
        truth_net.z = rng.normal(0, 2, truth_net.n_rules)
        X = rng.uniform(-1, 1, (200, 2))
        Y, _ = forward_batch(truth_net, X)
        student = tiny_net(n_terms=5, n_inputs=2)
        assert train_hybrid(student, TrainingSet(X, Y)) <= 1e-12

    def test_single_rule_fits_mean(self):
        net = tiny_net(n_terms=1)
        targets = np.array([1.0, 2.0, 6.0])
        train_hybrid(net, TrainingSet(np.zeros((3, 1)), targets))
        assert net.z[0] == pytest.approx(targets.mean())

    def test_zero_eta_matches_pure_lse(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (50, 1))
        Y = np.sin(2 * X[:, 0])
        net = tiny_net(n_terms=5)
        data = TrainingSet(X, Y)
        trained = train_hybrid(net, data)
        _, beta = forward_batch(net, X)
        sol, *_ = np.linalg.lstsq(beta, Y, rcond=None)
        assert np.allclose(net.z, sol)
        assert trained == loss(net, data)  # the solve reports the loss the network has

    def test_needs_enough_samples(self):
        net = tiny_net(n_terms=7)
        with pytest.raises(ValidationError):
            train_hybrid(net, TrainingSet(np.zeros((3, 1)), np.zeros(3)))

    def test_one_network_needs_one_target_column(self):
        data = TrainingSet(np.zeros((5, 1)), np.zeros((5, 1)))
        for call in (train_hybrid, loss):
            with pytest.raises(ValidationError, match=r"one network needs \(N,\) targets"):
                call(tiny_net(n_terms=3), data)

    @pytest.mark.parametrize("inputs, targets", [((5, 1), (4,)), ((5, 1), (5, 2, 1)), ((5,), (5,))])
    def test_mismatched_samples_rejected(self, inputs, targets):
        with pytest.raises(ValidationError, match="samples must be"):
            TrainingSet(np.zeros(inputs), np.zeros(targets))

    def test_rank_deficient_solves_without_warning(self):
        net = tiny_net(n_terms=5, n_inputs=2)
        # all samples at the same point: only a few rules ever fire
        X = np.zeros((30, 2))
        Y = np.ones(30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train_hybrid(net, TrainingSet(X, Y))
        assert np.all(np.isfinite(net.z))
        _, beta = forward_batch(net, X)
        sol, *_ = np.linalg.lstsq(beta, Y, rcond=None)
        assert np.max(np.abs(beta @ net.z - beta @ sol)) <= 1e-6 * np.max(np.abs(Y))


def ridge_fit(net, X, Y):
    """Consequents from training, and the design B."""
    train_hybrid(net, TrainingSet(X, Y))
    return net.z.copy(), forward_batch(net, X)[1]


class TestRidgeConsequents:
    def test_full_rank_matches_lstsq(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, (300, 2))
        Y = np.sin(2 * X[:, 0]) * np.cos(X[:, 1])
        z, beta = ridge_fit(tiny_net(n_terms=4, n_inputs=2), X, Y)
        assert np.linalg.matrix_rank(beta) == beta.shape[1]
        sol, *_ = np.linalg.lstsq(beta, Y, rcond=None)
        assert np.allclose(z, sol)

    @pytest.mark.parametrize("zero_column", [False, True])
    def test_targets_scaled_by_k_scale_consequents_by_k(self, zero_column):
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, (300, 2))
        if zero_column:
            X[:, 1] = 0.0  # rank deficient, as for a constant velocity input
        Y = np.sin(2 * X[:, 0]) + 0.5 * X[:, 1]
        k = 2.0**20  # exact in binary, so only the solve itself could break linearity
        z, _ = ridge_fit(tiny_net(n_terms=4, n_inputs=2), X, Y)
        zk, _ = ridge_fit(tiny_net(n_terms=4, n_inputs=2), X, k * Y)
        assert np.allclose(zk, k * z, rtol=1e-9, atol=0)

    def test_constant_input_on_seven_cubed_grid_fits_with_bounded_consequents(self):
        # like the stock study's y axis: the velocity input never changes, so
        # the 343 rules fire in only 49 distinct column patterns
        rng = np.random.default_rng(14)
        X = rng.uniform(-1, 1, (1500, 3))
        X[:, 1] = 0.3
        Y = 0.01 * (np.sin(3 * X[:, 0]) + X[:, 0] * X[:, 2] ** 2)
        net = tiny_net(n_terms=7, n_inputs=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, beta = ridge_fit(net, X, Y)
        sol, _, rank, _ = np.linalg.lstsq(beta, Y, rcond=None)
        assert rank < net.n_rules
        scale = np.max(np.abs(Y))
        assert np.max(np.abs(beta @ z - beta @ sol)) <= 1e-6 * scale
        # ridge never exceeds the minimum-norm least-squares solution
        assert np.linalg.norm(z) <= np.linalg.norm(sol) * (1 + 1e-6)


GRAM_ROWS = anfis._GRAM_ROWS


def gram_firing(n: int) -> np.ndarray:
    """The firing of a 25-rule network over n rows."""
    x = np.random.default_rng(21).uniform(-1, 1, (n, 2))
    return forward_batch(tiny_net(5, 2), x)[1]


class TestPassGram:
    """_gram sums a pass's row blocks' Grams in row order, bit for bit as a plain
    loop does, and hands the caller an array of its own."""

    @pytest.mark.parametrize(
        "n", [GRAM_ROWS - 1, GRAM_ROWS, GRAM_ROWS + 1, 2 * GRAM_ROWS + 52, 3 * GRAM_ROWS + 5]
    )
    def test_matches_plain_loop(self, n):
        beta = gram_firing(n)
        gram = anfis._gram(beta)
        assert np.array_equal(gram, block_gram(beta, n))
        gram += 1.0
        assert np.array_equal(anfis._gram(beta), block_gram(beta, n))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(25, 3 * GRAM_ROWS + 5))
    def test_symmetric_and_close_to_one_product(self, n):
        beta = gram_firing(n)
        gram = anfis._gram(beta)
        assert np.array_equal(gram, gram.T)
        direct = beta.T @ beta
        assert np.max(np.abs(gram - direct)) <= 1e-12 * np.max(np.abs(direct))


class TestSerialization:
    # Term counts per input; a file keeps no rule list, so consequent k must load
    # as the consequent of the same grid rule k.
    COUNTS = [[7, 1, 3], [2, 3, 4], [1, 1, 1], [1, 5], [6]]

    def test_round_trip_bit_exact(self):
        for shape, counts in itertools.product(("bell", "sigmoid"), self.COUNTS):
            rng = np.random.default_rng(6)
            net = tiny_net(n_terms=counts, n_inputs=len(counts), shape=shape)
            assert net.rules.tolist() == [list(r) for r in itertools.product(*map(range, counts))]
            net.z = rng.normal(0, 1, net.n_rules)
            data = TrainingSet(rng.uniform(-1, 1, (30, len(counts))), rng.normal(0, 1, 30))
            train_hybrid(net, data)
            text = json.dumps(net.to_dict())
            loaded = AnfisNetwork.from_dict(json.loads(text))
            assert json.dumps(loaded.to_dict()) == text
            assert np.array_equal(loaded.z, net.z)
            assert np.array_equal(loaded.rules, net.rules)
            assert loaded.inputs == net.inputs
            x = rng.uniform(-1, 1, (20, len(counts)))
            assert np.array_equal(forward_batch(loaded, x)[0], forward_batch(net, x)[0])

    def test_input_record_is_its_range_shape_and_term_count(self):
        net = build_network([("x", -1.0, 1.0)], n_terms=2, shape="sigmoid")
        assert net.to_dict() == {
            "inputs": [{"name": "x", "lo": -1.0, "hi": 1.0, "shape": "sigmoid", "n_terms": 2}],
            "consequents": [0.0, 0.0],
        }


def batch_case_bundle(shape, n_terms):
    """A bundle of 3-input networks of shape (tiny_net) with nonzero consequents."""
    rng = np.random.default_rng(29)
    nets = []
    for _ in range(3):
        net = tiny_net(n_terms=n_terms, n_inputs=3, shape=shape)
        net.z = rng.normal(0, 1, net.n_rules)
        nets.append(net)
    return AnfisBundle(nets, h_ref=0.5, feature_tick=0.1)


class TestBundleBatchInvariance:
    """A row's correction must not depend on the rows evaluated beside it."""

    @pytest.mark.parametrize("shape", ["bell", "sigmoid", "mixed"])
    @pytest.mark.parametrize("n_terms", [7, [3, 1, 2]], ids=["7-grid", "one-term-grid"])
    def test_rows_equal_one_row_calls(self, monkeypatch, shape, n_terms):
        monkeypatch.setattr(anfis, "_RESIDUAL_ROWS", 64)  # 200 rows: three full blocks and a part
        bundle = batch_case_bundle(shape, n_terms)
        assert bundle.networks[0].n_rules == np.prod(np.broadcast_to(n_terms, 3))
        rng = np.random.default_rng(31)
        inputs = rng.uniform(-1.2, 1.2, (3, 200, 3))
        batch = anfis.bundle_residuals([bundle], inputs)[0]
        rows = [anfis.bundle_residuals([bundle], inputs[:, [i]])[0][0] for i in range(200)]
        assert batch.shape == (200, 3)
        assert np.array_equal(batch, rows)

    @pytest.mark.parametrize("n_bundles", [1, 4])
    def test_each_bundle_equals_its_one_row_product(self, n_bundles):
        """One product over the stacked consequents scores every bundle, each
        (row, bundle) as that row's own dot of firing and consequents, on both
        sides of a block edge."""
        rng = np.random.default_rng(37)
        first = batch_case_bundle("bell", 7)
        bundles = [first]
        for _ in range(n_bundles - 1):
            nets = [copy.copy(net) for net in first.networks]
            for net in nets:
                net.z = rng.normal(0, 1, net.n_rules)
            bundles.append(AnfisBundle(nets, h_ref=0.5, feature_tick=0.1))
        n_rows = anfis._RESIDUAL_ROWS + 6
        inputs = rng.uniform(-1.2, 1.2, (3, n_rows, 3))
        scored = anfis.bundle_residuals(bundles, inputs)
        for k, net in enumerate(first.networks):
            beta = forward_batch(net, inputs[k])[1]
            for out, bundle in zip(scored, bundles):
                z = bundle.networks[k].z
                one_row = [(beta[i : i + 1, None, :] @ z[:, None])[0, 0, 0] for i in range(n_rows)]
                assert np.array_equal(out[:, k], one_row)

    def test_degenerate_rows_are_indices_of_all_rows(self, monkeypatch):
        monkeypatch.setattr(anfis, "_RESIDUAL_ROWS", 64)
        bundle = batch_case_bundle("bell", 7)
        inputs = np.zeros((3, 200, 3))
        inputs[1, [150, 170], 0] = 1e200  # past every term, in the third block
        with pytest.raises(DegenerateFiringError) as exc:
            anfis.bundle_residuals([bundle], inputs)
        assert exc.value.rows.tolist() == [150, 170]


DELETE = object()  # test_bad_terms_rejected_at_load: remove the key
OLD_FORMAT = object()  # test_bad_terms_rejected_at_load: per-term lists for n_terms


class TestBundle:
    def _bundle(self, h_ref=1.0, shape="bell"):
        inputs = [("deviation", -1, 1), ("velocity", -5, 5), ("orientation", -2, 2)]
        nets = [build_network(inputs, n_terms=5, shape=shape) for _ in range(3)]
        return AnfisBundle(nets, h_ref=h_ref, feature_tick=0.1)

    def test_zero_consequents_reduce_to_second_order(self):
        bundle = self._bundle()
        s = EntityState([1, 2, 0], [0.5, -1, 0], [0.2, 0, 0], 0.3, 0.05, 4.0)
        for horizon in (0.0, 0.5, 2.0):
            pos = bundle.predict([s], horizon)
            expected = extrapolate(s, 4.0 + horizon, "second").position
            assert np.array_equal(pos, expected)

    def test_nonzero_consequents_shift_prediction(self):
        bundle = self._bundle(h_ref=0.5)
        bundle.networks[0].z[:] = 1.0  # constant +1 m correction at h_ref on x
        s = EntityState([0, 0, 0], [1, 0, 0], [0, 0, 0], 0.0, 0.0, 0.0)
        pos = bundle.predict([s], 0.5)
        assert pos[0] == pytest.approx(1.5)  # 0.5 extrapolated + 1.0 corrected
        pos2 = bundle.predict([s], 1.0)
        assert pos2[0] == pytest.approx(1.0 + 8.0)  # cubic horizon scaling

    def test_empty_history_rejected(self):
        with pytest.raises(ValidationError):
            self._bundle().predict([], 1.0)

    def test_history_gap_other_than_the_feature_tick_rejected(self):
        # Read as one 0.1 s tick, the 5 s gap's 4.9 m deviation predicted x = 6.11 m.
        s0 = EntityState([0, 0, 0], [1, 0, 0], [0, 0, 0], 0.0, 0.0, 0.0)
        s5 = EntityState([5, 0, 0], [1, 0, 0], [0, 0, 0], 0.0, 0.0, 5.0)
        with pytest.raises(ValidationError, match="^history states 5.0 s apart, not one 0.1 s tick$"):
            self._bundle().predict([s0, s5], 1.0)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_non_finite_horizon_rejected(self, horizon):
        s = EntityState([1, 2, 0], [0.5, -1, 0], [0.2, 0, 0], 0.3, 0.05, 4.0)
        match = (r"^bad value for 'horizon' in AnfisBundle.predict: expected a number in "
                 rf"\[0, inf\), got {horizon}$")
        with pytest.raises(ValidationError, match=match):
            self._bundle().predict([s], horizon)

    # A gap of a stock run: ticks are row * tick, and a gap is their difference.
    RUN_GAPS = st.builds(
        lambda row, rows, tick: (row + rows) * tick - row * tick,
        st.integers(0, 3000),
        st.integers(0, 250),
        st.sampled_from([0.1, 0.05, 0.02]),
    )

    @settings(max_examples=200, deadline=None)
    @given(
        horizons=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(0.0, 2.2250738585072014e-308),  # zero and the subnormals
                RUN_GAPS,
                st.floats(0.0, 1e3),
            ),
            min_size=1,
            max_size=30,
        ),
        h_ref=st.one_of(st.sampled_from([0.5, 1.0, 0.1, 0.2]), st.floats(1e-3, 10.0)),
    )
    @example(horizons=[0.0, 5e-324, 0.30000000000000004, 4.999999999999999, 1e3], h_ref=1.0)
    def test_scales_round_as_python_cubes(self, horizons, h_ref):
        """The correction's scale law, Correction.scales, equals Python's
        (h / h_ref) ** 3 bit for bit, as the per-tick reference computes it,
        so a numpy whose float_power stopped calling the C library's pow
        fails here rather than in a golden digest."""
        scales = Correction(np.zeros((0, 3)), h_ref).scales(np.array(horizons))
        assert scales.tolist() == [(h / h_ref) ** 3 for h in horizons]

    def test_wrong_axis_count_rejected(self):
        nets = [build_network([("a", -1, 1), ("b", -1, 1), ("c", -1, 1)])] * 2
        with pytest.raises(ValidationError):
            AnfisBundle(nets, 1.0, 0.1)

    def test_round_trip(self, tmp_path):
        bundle = self._bundle()
        bundle.networks[1].z[:] = 0.25
        path = tmp_path / "bundle.json"
        bundle.save(path)
        loaded = AnfisBundle.load(path)
        assert loaded.h_ref == bundle.h_ref
        assert loaded.feature_tick == bundle.feature_tick
        assert np.array_equal(loaded.networks[1].z, bundle.networks[1].z)

    @pytest.mark.parametrize(
        "shape, record, key, value, match",
        [
            ("bell", None, "shape", "trapezoid", "^bad value for 'shape' in input 'velocity': "
             "expected one of sigmoid, bell, got 'trapezoid'$"),
            ("bell", None, "n_terms", math.inf, "bad value for 'n_terms' in input 'velocity': "
             "expected an integer, got inf"),
            ("sigmoid", None, "n_terms", math.nan, "'n_terms' in input 'velocity': expected an "
             "integer, got nan"),
            ("sigmoid", None, "n_terms", DELETE, "^missing key 'n_terms' in input 'velocity'$"),
            ("bell", None, "n_terms", "7", "bad value for 'n_terms' in input 'velocity': expected "
             "an integer, got '7'"),
            ("sigmoid", None, "b", [2.0] * 5, "unknown key 'b' in input 'velocity'; expected one of"),
            ("bell", None, "lo", DELETE, "missing key 'lo' in input 'velocity'"),
            ("bell", None, "shape", DELETE, "^missing key 'shape' in input 'velocity'$"),
            ("bell", None, "lo", "left", "bad value for 'lo' in input 'velocity': expected a "
             "number, got 'left'"),
            ("sigmoid", None, "hi", None, "'hi' in input 'velocity': expected a number, got None"),
            ("bell", "bundle", "networks", DELETE, "^missing key 'networks' in anfis bundle$"),
            ("bell", "bundle", "feature_tick", DELETE, "missing key 'feature_tick'"),
            ("bell", "bundle", "note", "edited", "unknown key 'note' in anfis bundle; expected one "
             "of feature_tick, h_ref, kind, networks$"),
            ("bell", "bundle", "h_ref", "ten", "'h_ref' in anfis bundle: expected a number, got "
             "'ten'"),
            ("bell", "bundle", "networks", [[1, 2]], "network record must be a mapping"),
            ("bell", "network", "eta", 0.05, "unknown key 'eta' in network record; expected one "
             "of consequents, inputs$"),
            ("bell", "network", "note", 1, "unknown key 'note' in network record; expected one of"),
            ("bell", "bundle", "axes", ["x", "y", "z"], "unknown key 'axes' in anfis bundle;"),
            ("bell", None, "labels", ["N", "Z"], "unknown key 'labels' in input 'velocity';"),
            ("bell", "bundle", "networks", 3, "'networks' in anfis bundle: expected a list, got 3$"),
            ("bell", "network", "inputs", {}, "'inputs' in network record: expected a list, "
             "got {}$"),
            ("bell", "network", "consequents", ["x"], "'consequents' in network record: expected "
             "a number, got 'x'"),
            ("bell", "network", "rules", [[0, 0, 0]], "unknown key 'rules' in network record;"),
            ("bell", None, "terms", [], "unknown key 'terms' in input 'velocity'; expected one of"),
            ("bell", "bundle", "h_ref", "0.5", "'h_ref' in anfis bundle: expected a number, got "
             "'0.5'"),
            ("bell", "bundle", "h_ref", [0.5], r"'h_ref' in anfis bundle: expected a number, got "
             r"\[0.5\]"),
            ("bell", "bundle", "feature_tick", True, "'feature_tick' in anfis bundle: expected a "
             "number, got True"),
            ("bell", "network", "consequents", [0.0, "2"], "'consequents' in network record: "
             "expected a number, got '2'"),
            ("bell", None, "lo", "-1", "bad value for 'lo' in input 'velocity': expected a "
             "number, got '-1'"),
            ("bell", None, "n_terms", True, "bad value for 'n_terms' in input 'velocity': "
             "expected an integer, got True"),
            ("bell", "network", "consequents", [0.0, 10**400], "'consequents' in network record: "
             "expected a number, got 1000"),
            ("bell", None, "n_terms", 0, "^bad value for 'n_terms' in input 'velocity': expected "
             "an integer >= 1, got 0$"),
            ("sigmoid", None, "n_terms", 1.5, "'n_terms' in input 'velocity': expected an "
             "integer, got 1.5$"),
            ("bell", None, "n_terms", 5.0, "'n_terms' in input 'velocity': expected an integer, "
             "got 5.0$"),
            ("bell", None, "n_terms", OLD_FORMAT, "^unknown key 'a' in input 'velocity'; expected "
             "one of hi, lo, n_terms, name, shape$"),
            # an integer too large for a float, as in every other section
            ("bell", "bundle", "h_ref", 10**400, "'h_ref' in anfis bundle: expected a number, "
             "got 1000"),
            ("bell", None, "shape", 2, "'shape' in input 'velocity': expected one of sigmoid, "
             "bell, got 2$"),
            # 10**18 rules: the consequent count fails before the rule grid is made
            ("bell", "network", "inputs", [
                {"name": name, "lo": -1.0, "hi": 1.0, "shape": "bell", "n_terms": 10**6}
                for name in ("deviation", "velocity", "orientation")
            ], r"one consequent per rule, 1000000000000000000 for n_terms \[1000000, 1000000, "
             r"1000000\], got \(125,\)$"),
        ],
        ids=[
            "unknown", "inf", "nan", "missing-parameter", "text-parameter", "extra-parameter",
            "missing-lo", "missing-shape", "text-lo", "null-hi", "missing-networks",
            "missing-feature-tick", "extra-bundle-key", "text-h_ref", "list-network", "old-eta",
            "extra-network-key", "old-axes", "old-labels", "number-networks", "mapping-inputs",
            "text-consequent", "old-rules", "old-terms", "numeric-text-h_ref", "list-h_ref",
            "boolean-feature-tick", "numeric-text-consequent", "numeric-text-lo",
            "boolean-parameter", "overflowing-consequent", "zero-terms", "fractional-terms",
            "float-terms", "old-parameters", "overflowing-h_ref", "number-shape",
            "million-terms-per-input",
        ],
    )
    def test_bad_terms_rejected_at_load(self, tmp_path, shape, record, key, value, match):
        """record names the record to edit: None input 1 of network 2, "network"
        network 2, "bundle" the document. DELETE removes the key; OLD_FORMAT puts
        the per-term parameter lists of the older format in place of n_terms."""
        path = tmp_path / "bundle.json"
        self._bundle(shape=shape).save(path)
        AnfisBundle.load(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        networks = doc["networks"]
        record = {None: networks[2]["inputs"][1], "network": networks[2], "bundle": doc}[record]
        if value is OLD_FORMAT:
            del record[key]
            record |= {"a": [0.25] * 5, "b": [2.0] * 5, "c": [-1.0, -0.5, 0.0, 0.5, 1.0]}
        elif value is DELETE:
            del record[key]
        else:
            record[key] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError, match=match):
            AnfisBundle.load(path)

    def test_document_that_is_not_a_mapping_rejected(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps([self._bundle().to_dict()]), encoding="utf-8")
        with pytest.raises(ValidationError, match="not an anfis bundle document"):
            AnfisBundle.load(path)


class TestTermCounts:
    """build_network with one term count per input, as training builds a network
    with an input that holds one value."""

    INPUTS = [("deviation", -1, 1), ("velocity", -5, 5), ("orientation", -2, 2)]

    def test_grid_is_the_product_of_the_counts(self):
        net = build_network(self.INPUTS, n_terms=[7, 1, 5])
        assert [spec.n_terms for spec in net.inputs] == [7, 1, 5]
        assert net.n_rules == 35
        assert len({tuple(rule) for rule in net.rules.tolist()}) == 35
        assert np.all(net.rules[:, 1] == 0)

    def test_one_count_equals_the_same_count_per_input(self):
        same = build_network(self.INPUTS, n_terms=4)
        listed = build_network(self.INPUTS, n_terms=[4, 4, 4])
        assert listed.to_dict() == same.to_dict()

    @pytest.mark.parametrize(
        "counts, match",
        [
            ([7, 1], "one term count per input"),
            pytest.param([7, 0, 7], "^bad value for 'n_terms' in input 'velocity': expected an "
                         "integer >= 1, got 0$", id="counts1-n_terms must be >= 1"),
        ],
    )
    def test_bad_counts_rejected(self, counts, match):
        with pytest.raises(ValidationError, match=match):
            build_network(self.INPUTS, n_terms=counts)

    @pytest.mark.parametrize("shape", ["bell", "sigmoid"])
    def test_one_term_input_does_not_move_the_output(self, shape):
        rng = np.random.default_rng(41)
        net = build_network(self.INPUTS, n_terms=[7, 1, 7], shape=shape)
        net.z = rng.uniform(1.0, 2.0, net.n_rules)
        x = rng.uniform(-1.0, 1.0, (200, 3)) * [1.0, 5.0, 2.0]
        out = forward_batch(net, x)[0]
        for value in (-5.0, 0.0, 2.5, 40.0):
            moved = x.copy()
            moved[:, 1] = value
            np.testing.assert_allclose(forward_batch(net, moved)[0], out, rtol=1e-12, atol=0)
