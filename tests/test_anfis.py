import json
import math
import warnings

import numpy as np
import pytest

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
    train_gd,
    train_hybrid,
)
from drsim.errors import DegenerateFiringError, TrainingError, ValidationError
from drsim.kinematics import EntityState, Order, extrapolate


def tiny_net(n_terms=3, n_inputs=1, rule_base="compact", shape="bell", eta=0.05, seed=None):
    return build_network(
        [(f"in{i}", -1.0, 1.0) for i in range(n_inputs)],
        n_terms=n_terms,
        shape=shape,
        rule_base=rule_base,
        eta=eta,
        seed=seed,
        center_jitter=0.01 if seed is not None else 0.0,
    )


def param_row(spec, name):
    """The row of spec.params holding one parameter name, one value per term."""
    return spec.params[SHAPES[spec.shape].param_names.index(name)]


def as_sigmoid(spec, rng):
    """spec with sigmoid terms on the same centers, of random slope 2 to 6 and sign."""
    slopes = rng.uniform(2.0, 6.0, spec.n_terms) * rng.choice([-1, 1], spec.n_terms)
    params = [slopes, param_row(spec, "c")]
    return InputSpec(spec.name, spec.lo, spec.hi, "sigmoid", params, spec.labels)


BELL = SHAPES["bell"].degrees  # (x, a, b, c)
SIGMOID = SHAPES["sigmoid"].degrees  # (x, a, c)


class TestMembership:
    def test_sigmoid_center_is_half(self):
        assert SIGMOID(0.0, 1.0, 0.0) == pytest.approx(0.5)

    def test_bell_peak_is_one(self):
        assert BELL(3.0, 2.0, 1.0, 3.0) == pytest.approx(1.0)

    def test_bell_half_at_one_width(self):
        # 1 / (1 + |2/2|^2) = 0.5
        assert BELL(5.0, 2.0, 1.0, 3.0) == pytest.approx(0.5)

    def test_output_ranges(self):
        xs = np.linspace(-50, 50, 1001)
        bell = BELL(xs, 0.5, 2.0, 0.0)
        sig = SIGMOID(xs, 3.0, 0.0)
        assert np.all(bell > 0) and np.all(bell <= 1.0)
        assert np.all(sig > 0) and np.all(sig <= 1.0)
        # strictly below 1 wherever float resolution can represent the gap
        near = SIGMOID(np.linspace(-10, 10, 1001), 3.0, 0.0)
        assert np.all(near < 1.0)

    def test_invalid_params_rejected(self):
        for shape, params, match in [
            ("bell", [[0.0], [1.0], [0.0]], "bell width and exponent of input 'x'"),
            ("bell", [[1.0], [-1.0], [0.0]], "bell width and exponent of input 'x'"),
            ("bell", [[1.0], [1.0], [np.inf]], "parameters of input 'x' must be finite"),
            ("sigmoid", [[0.0], [0.0]], "sigmoid slope of input 'x'"),
            ("sigmoid", [[1.0], [2.0], [0.0]], r"input 'x' needs \('a', 'c'\) rows"),
            ("sigmoid", np.empty((2, 0)), "at least one term"),
            ("triangle", [[1.0]], "input 'x' has unknown shape 'triangle'"),
        ]:
            with pytest.raises(ValidationError, match=match):
                InputSpec("x", -1.0, 1.0, shape, params, ["ZE"][: np.shape(params)[1]])


class TestLayers:
    def test_layer1_at_bell_centers(self):
        net = tiny_net(n_terms=3, n_inputs=2)
        centers_x = param_row(net.inputs[0], "c").tolist()
        degrees = layer1(net, [centers_x[1], 0.0])  # second center is 0 = input 2's center term
        assert degrees[0][0, 1] == pytest.approx(1.0)
        assert degrees[1][0, 1] == pytest.approx(1.0)

    def test_layer1_single_sigmoid(self):
        spec = InputSpec("x", -1.0, 1.0, "sigmoid", [[1.0], [0.0]], ["ZE"])
        net = AnfisNetwork([spec], [[0]], [0.0])
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
        with pytest.raises(DegenerateFiringError, match=r"^4 sample\(s\) fired no rule"):
            layer3_normalize(alpha)

    def test_layer3_normalizes_the_given_buffer(self):
        alpha = np.array([[2.0, 3.0, 5.0], [1.0, 1.0, 2.0]])
        beta = layer3_normalize(alpha)
        assert beta is alpha
        assert np.array_equal(beta, [[0.2, 0.3, 0.5], [0.25, 0.25, 0.5]])


class TestForward:
    def test_partition_of_unity_constant_output(self):
        net = tiny_net(n_terms=5, n_inputs=2, rule_base="grid")
        net.z = np.full(net.n_rules, -3.25)
        for x in ([0.0, 0.0], [0.9, -0.7], [2.0, 1.5]):
            out, _ = forward_batch(net, x)
            assert out[0] == pytest.approx(-3.25, abs=1e-12)

    def test_hand_weighted_average(self):
        # two bell terms at -1 and +1; x = 2 - sqrt(2) makes the firing ratio 1:3
        spec = InputSpec("x", -1.0, 1.0, "bell", [[1.0, 1.0], [1.0, 1.0], [-1.0, 1.0]], ["N", "P"])
        net = AnfisNetwork([spec], [[0], [1]], [4.0, 8.0])
        out, trace = forward_batch(net, [2.0 - math.sqrt(2.0)])
        assert np.allclose(trace.beta, [[0.25, 0.75]])
        assert out[0] == pytest.approx(7.0)

    def test_single_rule_returns_its_consequent(self):
        net = tiny_net(n_terms=1)
        net.z = np.array([-2.5])
        for x in (-0.8, 0.0, 1.3):
            out, _ = forward_batch(net, [x])
            assert out[0] == pytest.approx(-2.5)

    def test_output_within_consequent_hull(self):
        rng = np.random.default_rng(3)
        net = tiny_net(n_terms=7, n_inputs=3, rule_base="compact", seed=3)
        net.z = rng.normal(0, 2, net.n_rules)
        X = rng.uniform(-1.5, 1.5, (500, 3))
        out, trace = forward_batch(net, X)
        assert np.all(out >= net.z.min() - 1e-12)
        assert np.all(out <= net.z.max() + 1e-12)
        assert np.max(np.abs(trace.beta.sum(axis=1) - 1.0)) < 1e-12

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


def _fd_check(net, data, rel_tol=1e-4, abs_floor=1e-5, h=1e-6):
    """Central finite differences on the set loss against analytic gradients.

    Gradients below abs_floor sit at the FD roundoff level (~1e-9 on an O(10)
    loss), so they are compared absolutely instead of relatively.
    """
    from drsim.anfis import _gradients

    dz, dmf, _ = _gradients(net, data)

    def total():
        return loss(net, data)

    for r in range(net.n_rules):
        z0 = net.z[r]
        net.z[r] = z0 + h
        ep = total()
        net.z[r] = z0 - h
        em = total()
        net.z[r] = z0
        fd = (ep - em) / (2 * h)
        scale = max(abs(fd), abs(dz[r]))
        if scale >= abs_floor:
            assert abs(fd - dz[r]) / scale < rel_tol
        else:
            assert abs(fd - dz[r]) < 1e-8
    for spec, grads in zip(net.inputs, dmf):
        assert grads.shape == spec.params.shape
        for (p, t), g in np.ndenumerate(grads):
            p0 = spec.params[p, t]
            hh = h * max(1.0, abs(p0))
            spec.params[p, t] = p0 + hh
            ep = total()
            spec.params[p, t] = p0 - hh
            em = total()
            spec.params[p, t] = p0
            fd = (ep - em) / (2 * hh)
            scale = max(abs(fd), abs(g))
            if scale >= abs_floor:
                assert abs(fd - g) / scale < rel_tol, (spec.name, p, t, fd, g)
            else:
                assert abs(fd - g) < 1e-8


class TestGradients:
    @pytest.mark.parametrize(
        "shape, rule_base",
        [("bell", "compact"), ("sigmoid", "compact"), ("bell", "grid"), ("sigmoid", "grid")],
        ids=["bell", "sigmoid", "bell-grid", "sigmoid-grid"],
    )
    def test_matches_finite_differences(self, shape, rule_base):
        rng = np.random.default_rng(7)
        net = build_network(
            [("a", -1, 1), ("b", -2, 2), ("c", -3, 3)],
            n_terms=5,
            shape=shape,
            rule_base=rule_base,
            seed=7,
            center_jitter=0.01,
        )
        net.z = rng.normal(0, 1, net.n_rules)
        X = rng.uniform(-0.9, 0.9, (24, 3)) * np.array([1.0, 2.0, 3.0])
        Y = rng.normal(0, 1, 24)
        # A grid's 125 rules each fire weakly, so some consequent gradients are
        # about 1e-5, where the differences' roundoff (~2e-9) is 1e-4 of them.
        _fd_check(net, TrainingSet(X, Y), abs_floor=1e-4 if rule_base == "grid" else 1e-5)


# Per-term reference of layer 1 and the gradients: each membership term in its
# own call and each term's gradient from a masked sum over the rules that use
# it. The kernel evaluates all terms of an input at once and sums through a
# one-hot product. Layer 1 must match exactly; the gradient sums may run in
# another order, so they get a tolerance of a few thousand float64 ulps of the
# largest gradient.
GRAD_TOL = 1e-12


def _ref_degree(spec, t, x):
    """Degree of term t of spec: column t of spec.params, as Python floats."""
    if spec.shape == "sigmoid":
        a, c = spec.params[:, t].tolist()
        arg = np.clip(a * (x - c), -60.0, 60.0)
        return 1.0 / (1.0 + np.exp(-arg))
    a, b, c = spec.params[:, t].tolist()
    with np.errstate(over="ignore", divide="ignore"):
        u = ((x - c) / a) ** 2
        return 1.0 / (1.0 + u**b)


def _ref_param_grads(spec, t, x):
    """d(mu)/d(param) of term t of spec, one array per row of spec.params."""
    if spec.shape == "sigmoid":
        a, c = spec.params[:, t].tolist()
        mu = _ref_degree(spec, t, x)
        g = mu * (1.0 - mu)
        return [g * (x - c), -a * g]
    a, b, c = spec.params[:, t].tolist()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = x - c
        u = (d / a) ** 2
        ub = u**b
        mu = 1.0 / (1.0 + ub)
        mu2ub = mu * mu * ub
        da = 2.0 * b * mu2ub / a
        db = np.where(u > 0.0, -mu2ub * np.log(np.where(u > 0.0, u, 1.0)), 0.0)
        dc = np.where(d != 0.0, 2.0 * b * mu2ub / np.where(d != 0.0, d, 1.0), 0.0)
    return [da, db, dc]


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


def reference_gradients(net, data):
    x = data.inputs
    degrees = reference_layer1(net, x)
    alpha = reference_firing(net, degrees)
    total = alpha.sum(axis=1)
    beta = alpha / total[:, None]
    out = beta @ net.z
    err = out - data.targets
    dz = beta.T @ err
    dE_dalpha = err[:, None] * (net.z[None, :] - out[:, None]) / total[:, None]
    gathered = [degrees[i][:, net.rules[:, i]] for i in range(net.n_inputs)]
    dmf = []
    for i, spec in enumerate(net.inputs):
        prod_others = np.ones_like(alpha)
        for j in range(net.n_inputs):
            if j != i:
                prod_others *= gathered[j]
        dE_dDi = dE_dalpha * prod_others
        xn = spec.normalize(x[:, i])
        grads = np.empty(spec.params.shape)
        for t in range(spec.n_terms):
            dE_ddeg = dE_dDi[:, net.rules[:, i] == t].sum(axis=1)
            grads[:, t] = [np.dot(dE_ddeg, v) for v in _ref_param_grads(spec, t, xn)]
        dmf.append(grads)
    return dz, dmf, out


def kernel_case(shape, n_inputs, rule_base):
    """A network with jittered terms and trained-looking bell exponents (every
    third one left at exactly 2), plus samples reaching past the input range.
    "mixed" gives the odd-numbered inputs sigmoid terms."""
    rng = np.random.default_rng(13)
    net = tiny_net(n_terms=4, n_inputs=n_inputs, rule_base=rule_base, shape="bell", seed=13)
    for i, spec in enumerate(net.inputs):
        if shape == "sigmoid" or (shape == "mixed" and i % 2 == 1):
            net.inputs[i] = as_sigmoid(spec, rng)
        else:
            trained = np.arange(spec.n_terms) % 3 != 0
            param_row(spec, "b")[trained] = rng.uniform(1.2, 3.0, trained.sum())
    net.z = rng.normal(0, 1, net.n_rules)
    X = rng.uniform(-1.3, 1.3, (80, n_inputs))
    return net, TrainingSet(X, rng.normal(0, 1, 80))


# With one input, "mixed" would repeat the bell case.
KERNEL_CASES = [
    (shape, n_inputs, rule_base)
    for shape in ("bell", "sigmoid", "mixed")
    for n_inputs in (1, 3)
    for rule_base in ("compact", "grid")
    if (shape, n_inputs) != ("mixed", 1)
]


class TestKernelAgainstReference:
    @pytest.mark.parametrize("shape, n_inputs, rule_base", KERNEL_CASES)
    def test_layer1_equals_per_term(self, shape, n_inputs, rule_base):
        net, data = kernel_case(shape, n_inputs, rule_base)
        for x in (data.inputs, data.inputs[:1]):
            new, ref = layer1(net, x), reference_layer1(net, x)
            assert len(new) == len(ref)
            for a, b in zip(new, ref):
                assert a.shape == b.shape
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape, n_inputs, rule_base", KERNEL_CASES)
    def test_beta_equals_alpha_over_total(self, shape, n_inputs, rule_base):
        net, data = kernel_case(shape, n_inputs, rule_base)
        alpha = reference_firing(net, reference_layer1(net, data.inputs))
        beta = forward_batch(net, data.inputs)[1].beta
        assert np.array_equal(beta, alpha / alpha.sum(axis=1)[:, None])

    @pytest.mark.parametrize("shape, n_inputs, rule_base", KERNEL_CASES)
    def test_gradients_match_per_term(self, shape, n_inputs, rule_base):
        from drsim.anfis import _gradients

        net, data = kernel_case(shape, n_inputs, rule_base)
        dz, dmf, out = _gradients(net, data)
        ref_dz, ref_dmf, ref_out = reference_gradients(net, data)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(dz, ref_dz)
        assert len(dmf) == len(ref_dmf) == net.n_inputs
        for spec, got, want in zip(net.inputs, dmf, ref_dmf):
            assert got.shape == want.shape == spec.params.shape
            for got_row, want_row in zip(got, want):  # one parameter name across the terms
                scale = np.max(np.abs(want_row))
                np.testing.assert_allclose(got_row, want_row, rtol=0, atol=GRAD_TOL * scale)

    def test_zero_degree_raises_on_bell_width(self):
        # the narrow term's u^b overflows, so its degree is exactly 0 at the
        # sample; the wide term still fires, so the forward pass succeeds
        from drsim.anfis import _gradients

        spec = InputSpec("x", -1.0, 1.0, "bell", [[1e-80, 2.0], [2.0, 2.0], [0.0, 0.5]], ["N", "W"])
        net = AnfisNetwork([spec], [[0], [1]], [1.0, -1.0])
        data = TrainingSet(np.array([[1.0], [0.0]]), np.array([0.5, 0.5]))
        degrees = forward_batch(net, data.inputs)[1].degrees[0]
        assert degrees[0, 0] == 0.0 and degrees[0, 1] > 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match="premise parameter 'a'"):
                _gradients(net, data)

    def test_given_trace_is_reused(self):
        from drsim.anfis import _gradients

        net, data = kernel_case("mixed", 3, "grid")
        _, trace = forward_batch(net, data.inputs)
        fresh = _gradients(net, data)
        reused = _gradients(net, data, trace)
        assert np.array_equal(fresh[0], reused[0])
        assert len(fresh[1]) == len(reused[1]) == 3
        for a, b in zip(fresh[1], reused[1]):
            assert np.array_equal(a, b)


class TestForwardPasses:
    """Training runs one forward pass per epoch (plus one to start descent)."""

    @pytest.mark.parametrize("train, extra", [(train_hybrid, 0), (train_gd, 1)])
    def test_passes_per_epoch(self, monkeypatch, train, extra):
        net, data = kernel_case("bell", 3, "grid")
        net.eta = 0.01
        calls = []
        real = anfis.forward_batch

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(anfis, "forward_batch", counting)
        epochs = 4
        losses = train(net, data, epochs)
        assert len(calls) == epochs + extra
        monkeypatch.undo()
        # the reused passes report the loss the trained network really has
        assert losses[-1] == loss(net, data)


class TestTrainGd:
    def test_zero_eta_is_identity(self):
        net = tiny_net(n_terms=3, eta=0.0)
        before = json.dumps(net.to_dict())
        data = TrainingSet(np.linspace(-1, 1, 10).reshape(-1, 1), np.ones(10))
        losses = train_gd(net, data, 5)
        assert json.dumps(net.to_dict()) == before
        assert len(set(losses)) == 1

    def test_single_rule_follows_scalar_descent(self):
        # with one rule, o = z, so z steps as z <- z - eta (z - y)
        eta, y = 0.1, 3.0
        net = tiny_net(n_terms=1, eta=eta)
        data = TrainingSet(np.array([[0.2]]), np.array([y]))
        premises_before = net.inputs[0].params.copy()
        losses = train_gd(net, data, 20)
        z_oracle = 0.0
        oracle_losses = []
        for _ in range(20):
            z_oracle -= eta * (z_oracle - y)
            oracle_losses.append(0.5 * (y - z_oracle) ** 2)
        assert np.allclose(losses, oracle_losses)
        assert np.all(np.diff(losses) < 0)  # monotone convergence toward y
        # normalization makes the single rule's output independent of its premises
        assert np.array_equal(net.inputs[0].params, premises_before)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_aborts_on_blowup(self):
        net = tiny_net(n_terms=3, eta=50.0)
        rng = np.random.default_rng(0)
        data = TrainingSet(rng.uniform(-1, 1, (20, 1)), rng.normal(0, 1, 20) * 10)
        with pytest.raises(TrainingError):
            train_gd(net, data, 200)

    def test_deterministic_given_seed(self):
        def trained():
            rng = np.random.default_rng(5)
            net = tiny_net(n_terms=5, n_inputs=2, eta=0.02, seed=11)
            data = TrainingSet(rng.uniform(-1, 1, (40, 2)), rng.normal(0, 1, 40))
            train_gd(net, data, 30)
            return json.dumps(net.to_dict())

        assert trained() == trained()


class TestTrainHybrid:
    def test_recovers_exact_consequents(self):
        rng = np.random.default_rng(2)
        truth_net = tiny_net(n_terms=5, n_inputs=2, rule_base="grid", seed=2)
        truth_net.z = rng.normal(0, 2, truth_net.n_rules)
        X = rng.uniform(-1, 1, (200, 2))
        Y, _ = forward_batch(truth_net, X)
        student = tiny_net(n_terms=5, n_inputs=2, rule_base="grid", seed=2, eta=0.0)
        losses = train_hybrid(student, TrainingSet(X, Y), 1)
        assert losses[0] <= 1e-12

    def test_single_rule_fits_mean(self):
        net = tiny_net(n_terms=1, eta=0.0)
        targets = np.array([1.0, 2.0, 6.0])
        train_hybrid(net, TrainingSet(np.zeros((3, 1)), targets), 1)
        assert net.z[0] == pytest.approx(targets.mean())

    def test_zero_eta_matches_pure_lse(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (50, 1))
        Y = np.sin(2 * X[:, 0])
        net = tiny_net(n_terms=5, eta=0.0)
        losses = train_hybrid(net, TrainingSet(X, Y), 3)
        _, trace = forward_batch(net, X)
        sol, *_ = np.linalg.lstsq(trace.beta, Y, rcond=None)
        assert np.allclose(net.z, sol)
        assert len(set(losses)) == 1  # premises never move, fit is stable

    def test_needs_enough_samples(self):
        net = tiny_net(n_terms=7)
        with pytest.raises(ValidationError):
            train_hybrid(net, TrainingSet(np.zeros((3, 1)), np.zeros(3)), 1)

    def test_dominates_gd_at_equal_premises(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, (60, 1))
        Y = np.cos(3 * X[:, 0])
        data = TrainingSet(X, Y)
        for eta in (0.0, 0.02):
            gd_net = tiny_net(n_terms=5, eta=eta)
            hy_net = tiny_net(n_terms=5, eta=eta)
            gd_losses = train_gd(gd_net, data, 1)
            hy_losses = train_hybrid(hy_net, data, 1)
            assert hy_losses[0] <= gd_losses[0]

    def test_rank_deficient_solves_without_warning(self):
        net = tiny_net(n_terms=5, n_inputs=2, rule_base="grid", eta=0.0)
        # all samples at the same point: only a few rules ever fire
        X = np.zeros((30, 2))
        Y = np.ones(30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train_hybrid(net, TrainingSet(X, Y), 1)
        assert np.all(np.isfinite(net.z))
        _, trace = forward_batch(net, X)
        sol, *_ = np.linalg.lstsq(trace.beta, Y, rcond=None)
        assert np.max(np.abs(trace.beta @ net.z - trace.beta @ sol)) <= 1e-6 * np.max(np.abs(Y))


def ridge_fit(net, X, Y):
    """Consequents from one hybrid epoch with fixed premises, and the design B."""
    train_hybrid(net, TrainingSet(X, Y), 1)
    _, trace = forward_batch(net, X)
    return net.z.copy(), trace.beta


class TestRidgeConsequents:
    def test_full_rank_matches_lstsq(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, (300, 2))
        Y = np.sin(2 * X[:, 0]) * np.cos(X[:, 1])
        z, beta = ridge_fit(tiny_net(n_terms=4, n_inputs=2, rule_base="grid", eta=0.0), X, Y)
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
        z, _ = ridge_fit(tiny_net(n_terms=4, n_inputs=2, rule_base="grid", eta=0.0), X, Y)
        zk, _ = ridge_fit(tiny_net(n_terms=4, n_inputs=2, rule_base="grid", eta=0.0), X, k * Y)
        assert np.allclose(zk, k * z, rtol=1e-9, atol=0)

    def test_constant_input_on_seven_cubed_grid_fits_with_bounded_consequents(self):
        # like the stock study's y axis: the velocity input never changes, so
        # the 343 rules fire in only 49 distinct column patterns
        rng = np.random.default_rng(14)
        X = rng.uniform(-1, 1, (1500, 3))
        X[:, 1] = 0.3
        Y = 0.01 * (np.sin(3 * X[:, 0]) + X[:, 0] * X[:, 2] ** 2)
        net = tiny_net(n_terms=7, n_inputs=3, rule_base="grid", eta=0.0, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, beta = ridge_fit(net, X, Y)
        sol, _, rank, _ = np.linalg.lstsq(beta, Y, rcond=None)
        assert rank < net.n_rules
        scale = np.max(np.abs(Y))
        assert np.max(np.abs(beta @ z - beta @ sol)) <= 1e-6 * scale
        # ridge never exceeds the minimum-norm least-squares solution
        assert np.linalg.norm(z) <= np.linalg.norm(sol) * (1 + 1e-6)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        for shape in ("bell", "sigmoid"):
            rng = np.random.default_rng(6)
            net = tiny_net(n_terms=7, n_inputs=3, shape=shape, seed=6, eta=0.037)
            net.z = rng.normal(0, 1, net.n_rules)
            data = TrainingSet(rng.uniform(-1, 1, (30, 3)), rng.normal(0, 1, 30))
            train_gd(net, data, 10)
            text = json.dumps(net.to_dict())
            loaded = AnfisNetwork.from_dict(json.loads(text))
            assert json.dumps(loaded.to_dict()) == text
            assert loaded.eta == net.eta
            assert np.array_equal(loaded.z, net.z)
            assert np.array_equal(loaded.rules, net.rules)
            for a, b in zip(net.inputs, loaded.inputs):
                assert (a.name, a.lo, a.hi, a.shape) == (b.name, b.lo, b.hi, b.shape)
                assert a.labels == b.labels
                assert np.array_equal(a.params, b.params)

    def test_one_record_per_term(self):
        net = build_network([("x", -1.0, 1.0)], n_terms=2, shape="sigmoid")
        assert net.to_dict()["inputs"][0]["terms"] == [
            {"shape": "sigmoid", "a": 2.0, "c": -1.0},
            {"shape": "sigmoid", "a": 2.0, "c": 1.0},
        ]

    def test_seven_term_labels(self):
        net = tiny_net(n_terms=7)
        assert net.inputs[0].labels == ["NB", "NM", "NS", "ZE", "PS", "PM", "PB"]


def batch_case_bundle(shape, n_terms, rule_base):
    """A bundle of jittered 3-input networks with nonzero consequents; sigmoid
    terms replace the bell terms of every input (sigmoid) or of the middle one
    (mixed)."""
    rng = np.random.default_rng(29)
    nets = []
    for axis in range(3):
        net = tiny_net(n_terms=n_terms, n_inputs=3, rule_base=rule_base, seed=axis)
        for i, spec in enumerate(net.inputs):
            if shape == "sigmoid" or (shape == "mixed" and i % 2 == 1):
                net.inputs[i] = as_sigmoid(spec, rng)
        net.z = rng.normal(0, 1, net.n_rules)
        nets.append(net)
    return AnfisBundle(nets, h_ref=0.5, feature_tick=0.1)


class TestBundleBatchInvariance:
    """A row's correction must not depend on the rows evaluated beside it."""

    @pytest.mark.parametrize("shape", ["bell", "sigmoid", "mixed"])
    @pytest.mark.parametrize("n_terms, rule_base", [(7, "grid"), (5, "compact")])
    def test_rows_equal_one_row_calls(self, monkeypatch, shape, n_terms, rule_base):
        monkeypatch.setattr(anfis, "_RESIDUAL_ROWS", 64)  # 200 rows: three full blocks and a part
        bundle = batch_case_bundle(shape, n_terms, rule_base)
        assert bundle.networks[0].n_rules == (n_terms**3 if rule_base == "grid" else n_terms)
        rng = np.random.default_rng(31)
        dev, vel = rng.uniform(-1.2, 1.2, (2, 200, 3))
        orient = rng.uniform(-1.2, 1.2, 200)
        batch = bundle.residuals(dev, vel, orient)
        rows = [bundle.residuals(dev[[i]], vel[[i]], orient[[i]])[0] for i in range(200)]
        assert batch.shape == (200, 3)
        assert np.array_equal(batch, rows)


DELETE = object()  # test_bad_terms_rejected_at_load: remove the key


class TestBundle:
    def _bundle(self, h_ref=1.0, shape="bell"):
        nets = [
            build_network(
                [("deviation", -1, 1), ("velocity", -5, 5), ("orientation", -2, 2)],
                n_terms=5,
                shape=shape,
            )
            for _ in range(3)
        ]
        return AnfisBundle(nets, h_ref=h_ref, feature_tick=0.1)

    def test_zero_consequents_reduce_to_second_order(self):
        bundle = self._bundle()
        s = EntityState([1, 2, 0], [0.5, -1, 0], [0.2, 0, 0], 0.3, 0.05, 4.0)
        for horizon in (0.0, 0.5, 2.0):
            pos = bundle.predict([s], horizon)
            expected = extrapolate(s, 4.0 + horizon, Order.SECOND).position
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
        "shape, terms, key, value, match",
        [
            ("bell", [2], "shape", "sigmoid", "input 'velocity' needs terms of one shape"),
            ("bell", range(5), "shape", "trapezoid", "input 'velocity' has unknown shape"),
            ("bell", [0], "a", 0.0, "bell width and exponent of input 'velocity'"),
            ("bell", [4], "b", -2.0, "bell width and exponent of input 'velocity'"),
            ("bell", [1], "c", math.inf, "parameters of input 'velocity' must be finite"),
            ("sigmoid", [3], "a", math.nan, "parameters of input 'velocity' must be finite"),
            ("sigmoid", [1], "a", 0.0, "sigmoid slope of input 'velocity'"),
            ("sigmoid", [2], "a", DELETE, "a term of input 'velocity' needs shape and"),
            ("bell", [3], "c", "left", "parameters of input 'velocity' must be numbers"),
            ("sigmoid", [0], "b", 2.0, "a term of input 'velocity' needs shape and"),
            ("bell", None, "lo", DELETE, "input 'velocity' needs keys"),
            ("bell", [1], "shape", DELETE, "input 'velocity' needs terms of one shape"),
        ],
        ids=[
            "mixed", "unknown", "bell-width", "bell-exponent", "inf", "nan", "sigmoid-slope",
            "missing-parameter", "text-parameter", "extra-parameter", "missing-lo",
            "missing-shape",
        ],
    )
    def test_bad_terms_rejected_at_load(self, tmp_path, shape, terms, key, value, match):
        """terms lists the term records of input 1 of network 2 to edit, or is
        None for the input record itself; DELETE removes the key."""
        path = tmp_path / "bundle.json"
        self._bundle(shape=shape).save(path)
        AnfisBundle.load(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        spec = doc["networks"][2]["inputs"][1]
        for record in [spec] if terms is None else [spec["terms"][t] for t in terms]:
            if value is DELETE:
                del record[key]
            else:
                record[key] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError, match=match):
            AnfisBundle.load(path)


class TestTermCounts:
    """build_network with one term count per input, as training builds a network
    with an input that holds one value."""

    INPUTS = [("deviation", -1, 1), ("velocity", -5, 5), ("orientation", -2, 2)]

    def test_grid_is_the_product_of_the_counts(self):
        net = build_network(self.INPUTS, n_terms=[7, 1, 5], rule_base="grid")
        assert [spec.n_terms for spec in net.inputs] == [7, 1, 5]
        assert net.n_rules == 35
        assert len({tuple(rule) for rule in net.rules.tolist()}) == 35
        assert np.all(net.rules[:, 1] == 0)

    def test_compact_gives_the_one_term_to_every_rule(self):
        net = build_network(self.INPUTS, n_terms=[5, 1, 5], rule_base="compact")
        assert net.rules.tolist() == [[j, 0, j] for j in range(5)]
        assert net.inputs[1].labels == ["T0"]

    @pytest.mark.parametrize("rule_base", ["grid", "compact"])
    def test_one_count_equals_the_same_count_per_input(self, rule_base):
        same = build_network(self.INPUTS, n_terms=4, rule_base=rule_base, seed=3, center_jitter=0.1)
        listed = build_network(
            self.INPUTS, n_terms=[4, 4, 4], rule_base=rule_base, seed=3, center_jitter=0.1
        )
        assert listed.to_dict() == same.to_dict()

    def test_jitter_draws_one_value_per_term(self):
        net = build_network(self.INPUTS, n_terms=[3, 1, 3], seed=5, center_jitter=0.1)
        draws = np.random.default_rng(5).uniform(-0.1, 0.1, 7)
        centers = [c for spec in net.inputs for c in param_row(spec, "c").tolist()]
        expected = np.concatenate(
            [np.linspace(-1, 1, 3) + draws[:3], draws[3:4] * 2.0, np.linspace(-1, 1, 3) + draws[4:]]
        )
        assert centers == expected.tolist()

    @pytest.mark.parametrize(
        "counts, rule_base, match",
        [
            ([7, 1], "grid", "one term count per input"),
            ([7, 0, 7], "grid", "n_terms must be >= 1"),
            ([7, 1, 5], "compact", "one count besides 1"),
        ],
    )
    def test_bad_counts_rejected(self, counts, rule_base, match):
        with pytest.raises(ValidationError, match=match):
            build_network(self.INPUTS, n_terms=counts, rule_base=rule_base)

    @pytest.mark.parametrize("shape", ["bell", "sigmoid"])
    def test_one_term_input_does_not_move_the_output(self, shape):
        rng = np.random.default_rng(41)
        net = build_network(
            self.INPUTS, n_terms=[7, 1, 7], shape=shape, rule_base="grid", seed=4, center_jitter=0.1
        )
        net.z = rng.uniform(1.0, 2.0, net.n_rules)
        x = rng.uniform(-1.0, 1.0, (200, 3)) * [1.0, 5.0, 2.0]
        out = forward_batch(net, x)[0]
        for value in (-5.0, 0.0, 2.5, 40.0):
            moved = x.copy()
            moved[:, 1] = value
            np.testing.assert_allclose(forward_batch(net, moved)[0], out, rtol=1e-12, atol=0)
