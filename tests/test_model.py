import dataclasses
import pickle
import re

import numpy as np
import pytest

from ngcausal import _kernels as kernels
from ngcausal.model import (Architecture, ComponentMLP, LaggedDataset,
                            build_lagged, init_model, loss_and_grad, predict)
from ngcausal.datasets import (LorenzGenConfig, SeededRng, VarGenConfig,
                               make_sparse_var, simulate_lorenz)
from ngcausal.evaluation import lambda_grid
from ngcausal.optim import MIN_STEP, OptimizerConfig, fit
from ngcausal.penalties import PenaltySpec
from oracles import finite_diff_grad, hand_made, reference_loss_grad

# A model with hidden layers runs them in float32: its values are held to
# float32 rounding, in units of EPS32, and a linear model's to float64's.
EPS32 = float(np.finfo(np.float32).eps)


def random_instance(seed, p=None, K=None, hidden=None, N=None, activation=None):
    """A random small model/dataset pair for gradient and loss checks."""
    gen = np.random.default_rng(seed)
    p = p if p is not None else int(gen.integers(1, 4))
    K = K if K is not None else int(gen.integers(1, 3))
    if hidden is None:
        n_hidden = int(gen.integers(0, 3))
        hidden = tuple(int(gen.integers(1, 5)) for _ in range(n_hidden))
    N = N if N is not None else int(gen.integers(2, 9))
    draw = "tanh" if gen.random() < 0.8 else "relu"   # drawn always: keeps the stream
    activation = activation or draw
    arch = Architecture(hidden_sizes=hidden, activation=activation, init_scale=0.5)
    model = init_model(p, K, arch, SeededRng(seed))
    X = gen.normal(size=(N, p * K))
    y = gen.normal(size=N)
    return model, hand_made(X, y, p, K)


class TestBuildLagged:
    def test_three_step_scalar_series(self):
        # series (a, b, c), K=2: the single row has inputs (b, a), target c
        ts = np.array([[1.0], [2.0], [3.0]])
        data = build_lagged(ts, 2)[0]
        assert len(data.targets) == 1
        assert np.array_equal(data.inputs, [[2.0, 1.0]])
        assert np.array_equal(data.targets, [3.0])

    def test_two_series_lag_one(self):
        ts = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        data = build_lagged(ts, 1)[1]
        assert np.array_equal(data.inputs, ts[:2])
        assert np.array_equal(data.targets, [20.0, 30.0])

    def test_row_count(self):
        ts = SeededRng(0).normal(size=(37, 4))
        assert len(build_lagged(ts, 5)[2].targets) == 32

    def test_lag_block_ordering(self):
        # row n = (x_{K+n-1}, ..., x_n): lag-1 block first
        ts = SeededRng(1).normal(size=(10, 3))
        data = build_lagged(ts, 3)[0]
        n = 2
        expected = np.concatenate([ts[3 + n - 1], ts[3 + n - 2], ts[3 + n - 3]])
        assert np.array_equal(data.inputs[n], expected)

    def test_t_not_greater_than_k_rejected(self):
        with pytest.raises(ValueError):
            build_lagged(np.zeros((3, 2)), 3)

    @pytest.mark.parametrize("K,message", [
        (0, "K must be >= 1, got 0"), (-1, "K must be >= 1, got -1"),
        (True, "K must be an integer, got True"), (2.5, "K must be an integer, got 2.5")])
    def test_k_is_a_count(self, K, message):
        # the rule of ComponentMLP and model.K; K=0 would build an empty design
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_lagged(np.ones((6, 2)), K)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ComponentMLP(2, K, Architecture())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_series_rejected(self, bad):
        ts = np.ones((6, 2))
        ts[4, 1] = bad
        with pytest.raises(ValueError, match="series must be finite"):
            build_lagged(ts, 1)

    def test_one_read_only_design_for_every_series(self):
        # a write through one series' dataset would change every other one's
        ts = SeededRng(3).normal(size=(20, 3))
        datasets = build_lagged(ts, 2)
        assert len(datasets) == 3
        assert all(d.design is datasets[0].design for d in datasets)
        assert all(d.design32 is datasets[0].design32 for d in datasets)
        D32 = datasets[0].design32
        assert D32.dtype == np.float32 and D32.flags.f_contiguous
        assert np.array_equal(D32, datasets[0].design.astype(np.float32))
        for i, d in enumerate(datasets):
            assert np.array_equal(d.targets, ts[2:, i])
            assert np.shares_memory(d.targets, ts)   # a view, not a copy
            for arr in (d.design, d.design32, d.inputs, d.targets):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0
        assert ts.flags.writeable                      # the caller's array is untouched

    def test_inputs_are_fortran_ordered(self):
        # the MLP kernels read inputs.T, a C-contiguous array in this order
        data = build_lagged(SeededRng(2).normal(size=(50, 3)), 2)[0]
        assert data.inputs.shape == (48, 6)
        assert data.inputs.flags.f_contiguous

    def test_design_is_inputs_with_a_column_of_ones(self):
        # the kernels read the design: the first layer's bias is its last column
        datasets = build_lagged(SeededRng(2).normal(size=(50, 3)), 2)
        data = datasets[0]
        D = data.design
        assert D.shape == (48, 7) and D.flags.f_contiguous and not D.flags.writeable
        assert np.array_equal(D[:, -1], np.ones(48))
        assert np.array_equal(D[:, :-1], data.inputs)
        assert data.inputs.base is D                 # a view, not a copy
        assert all(d.design is D for d in datasets)

    def test_pickled_datasets_keep_one_design(self):
        # a spawned pool worker gets its datasets by pickle: the copy still
        # shares one read-only design that inputs views, so no fit copies it
        datasets = build_lagged(SeededRng(2).normal(size=(50, 3)), 2)
        loaded = pickle.loads(pickle.dumps(datasets))
        D, D32 = loaded[0].design, loaded[0].design32
        assert all(d.design is D and d.design32 is D32 for d in loaded)
        assert all(d.inputs.base is D for d in loaded)
        for arr in (D, D32):
            assert arr.flags.f_contiguous and not arr.flags.writeable
        assert np.array_equal(D, datasets[0].design)
        assert D32.dtype == np.float32 and np.array_equal(D32, datasets[0].design32)
        for d, orig in zip(loaded, datasets):
            assert np.array_equal(d.inputs, orig.inputs)
            assert np.array_equal(d.targets, orig.targets)
            assert not d.design.flags.writeable and not d.targets.flags.writeable
            assert not d.design32.flags.writeable


def _bad_shape(case):
    """Design and targets of a hand-made dataset, p=2, K=1 and 50 rows,
    broken as ``case`` says."""
    X = np.random.default_rng(0).normal(size=(50, 2))
    D = np.column_stack([X, np.ones(50)])
    y = X[:, 0]
    return {"one target": (D, np.array([3.0])),
            "one target short": (D, y[:-1]),
            "column of targets": (D, y[:, None]),
            "no ones column": (X, y),
            "two extra columns": (np.column_stack([D, X[:, 0]]), y),
            "last column not ones": (np.column_stack([X, X[:, 0]]), y),
            "no rows": (D[:0], y[:0]),
            "1-d design": (D[:, 0], y)}[case]


class TestHandMadeDataset:
    @pytest.mark.parametrize("case,design_shape,targets_shape", [
        ("one target", (50, 3), (1,)),
        ("one target short", (50, 3), (49,)),
        ("column of targets", (50, 3), (50, 1)),
        ("no ones column", (50, 2), (50,)),
        ("two extra columns", (50, 4), (50,)),
        ("last column not ones", (50, 3), (50,)),
        ("no rows", (0, 3), (0,)),
        ("1-d design", (50,), (50,))])
    def test_bad_shape_is_one_value_error(self, case, design_shape, targets_shape):
        # left to the fit, a bad shape runs against broadcast targets or dies
        # inside numpy's matmul or broadcast; the dataset refuses it when built
        message = ("a LaggedDataset with p=2, K=1 needs an (N, 3) design with N >= 1 "
                   "and a last column of ones, and (N,) targets; "
                   f"got design {design_shape}, targets {targets_shape}")
        D, y = _bad_shape(case)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LaggedDataset(design=D, targets=y, p=2, K=1)
        built = build_lagged(np.ones((51, 2)), 1)[0]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(built, design=D, targets=y)

    @pytest.mark.parametrize("p,K,message", [
        (0, 1, "p must be >= 1, got 0"), (2, True, "K must be an integer, got True"),
        (2.0, 1, "p must be an integer, got 2.0")])
    def test_p_and_k_are_counts(self, p, K, message):
        # the rule of ComponentMLP and build_lagged, before the shapes they set
        D, y = _bad_shape("no rows")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LaggedDataset(design=D, targets=y, p=p, K=K)

    def test_design32_follows_the_design(self):
        # the float32 copy is made from the design, not handed in: a replaced
        # design is what a model with hidden layers reads
        gen = np.random.default_rng(0)
        built = build_lagged(gen.normal(size=(51, 2)), 1)[0]
        model = init_model(2, 1, Architecture(hidden_sizes=(3,), init_scale=0.5), SeededRng(0))
        new = hand_made(gen.normal(size=(50, 2)), built.targets, 2, 1)
        replaced = dataclasses.replace(built, design=new.design)
        assert replaced.design32.dtype == np.float32
        assert np.array_equal(replaced.design32, new.design.astype(np.float32))
        assert loss_and_grad(model, replaced)[0] == loss_and_grad(model, new)[0]
        assert loss_and_grad(model, replaced)[0] != loss_and_grad(model, built)[0]
        # another design's copy is not taken
        other = LaggedDataset(design=new.design, targets=built.targets, p=2, K=1,
                              copy32=built.copy32)
        assert np.array_equal(other.design32, new.design.astype(np.float32))
        # a writeable design's copy follows writes into it
        new.design[:, 0] = 0.0
        assert np.all(new.design32[:, 0] == 0.0)
        # a design beyond float32's range is its own copy: hidden layers read it in float64
        big = build_lagged(np.full((6, 2), 1e200), 1)[0]
        assert big.design32 is big.design

    def test_float32_copy_made_by_the_first_hidden_read(self):
        # a linear model reads the float64 design, so data only linear
        # models read never has a float32 copy
        datasets = build_lagged(SeededRng(2).normal(size=(50, 3)), 2)
        linear = init_model(3, 2, Architecture(hidden_sizes=()), SeededRng(0))
        hidden = init_model(3, 2, Architecture(hidden_sizes=(4,)), SeededRng(0))
        for d in datasets:
            loss_and_grad(linear, d)
        assert datasets[0].copy32._copy is None
        loss_and_grad(hidden, datasets[1])
        assert datasets[0].copy32._copy is datasets[2].design32


class TestMemoryOrder:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("hidden", [(), (5,), (6, 4)])
    def test_c_and_f_ordered_inputs_agree(self, activation, hidden):
        model, data = random_instance(21, p=3, K=2, hidden=hidden, N=240,
                                      activation=activation)
        out = {}
        for order in "CF":
            data = dataclasses.replace(data, design=np.asarray(data.design, order=order))
            assert data.design.flags[order + "_CONTIGUOUS"]
            out[order] = (*loss_and_grad(model, data), predict(model, data.inputs))
        for c, f in zip(out["C"], out["F"]):
            np.testing.assert_allclose(c, f, rtol=1e-12, atol=0.0)


def predict_one(model, x):
    """Prediction for one stacked-lag input vector."""
    return predict(model, np.asarray(x, dtype=np.float64)[None])[0]


class TestForward:
    def test_zero_network_outputs_zero(self):
        model = ComponentMLP(p=3, K=2, arch=Architecture(hidden_sizes=(4,)))
        assert predict_one(model, np.ones(6)) == 0.0

    def test_linear_reduction(self):
        # no hidden layers: output = w x + bias, the one-lag linear map
        model = ComponentMLP(p=1, K=1, arch=Architecture(hidden_sizes=()))
        model.weight(0)[0, 0] = 0.5
        model.bias(0)[0] = 0.25
        assert predict_one(model, [2.0]) == 0.5 * 2.0 + 0.25

    def test_tanh_hand_case(self):
        # H1=1, first-layer row (1, 0), unit decoder: output = tanh(0.5)
        model = ComponentMLP(p=2, K=1, arch=Architecture(hidden_sizes=(1,), activation="tanh"))
        model.weight(0)[0] = [1.0, 0.0]
        model.weight(1)[0, 0] = 1.0
        out = predict_one(model, [0.5, 7.0])
        assert np.isclose(out, np.tanh(0.5), atol=1e-15)
        assert np.isclose(out, 0.46211715726000974, atol=1e-12)

    def test_dimension_mismatch(self):
        model = ComponentMLP(p=2, K=2, arch=Architecture(hidden_sizes=(3,)))
        with pytest.raises(ValueError):
            predict_one(model, np.ones(3))

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("hidden", [(), (5,), (5, 3)])
    def test_predict_is_the_fits_forward_pass(self, activation, hidden):
        # predict appends the ones column and runs the fit's forward kernel:
        # its output minus the targets is that kernel's residual on the
        # design, bit for bit
        ts = SeededRng(4).normal(size=(80, 3))
        data = build_lagged(ts, 2)[1]
        arch = Architecture(hidden_sizes=hidden, activation=activation, init_scale=0.5)
        res = fit(data, PenaltySpec("group", 1.0), init_model(3, 2, arch, SeededRng(5)),
                  OptimizerConfig(max_iters=5))
        model = res.model
        acts = kernels.mlp_loss(model.theta, model.dims, model.w_off, model.b_off,
                                activation, data.design_for(model), data.targets)[1]
        residual = predict(model, data.inputs) - data.targets
        assert residual.tobytes() == acts[-1][0].tobytes()

    def test_matches_batched_predict(self):
        # rows do not interact: one row at a time gives the batched values,
        # up to the rounding of a product of another shape
        for hidden in (None, (), (4, 3)):   # None draws one hidden layer of 2
            model, data = random_instance(0, N=6, hidden=hidden)
            one_by_one = np.array([predict_one(model, x) for x in data.inputs])
            rtol, atol = ((16 * EPS32, 16 * EPS32) if model.arch.hidden_sizes
                          else (1e-12, 1e-14))
            assert np.allclose(one_by_one, predict(model, data.inputs), rtol=rtol, atol=atol)


class TestLoss:
    def test_perfect_fit_is_zero(self):
        model, data = random_instance(3)
        data.targets[:] = predict(model, data.inputs)
        assert loss_and_grad(model, data)[0] == 0.0

    def test_zero_model_sums_squared_targets(self):
        model = ComponentMLP(p=1, K=1, arch=Architecture(hidden_sizes=(2,)))
        data = hand_made(np.zeros((2, 1)), np.array([1.0, 2.0]), 1, 1)
        assert loss_and_grad(model, data)[0] == 5.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_row_recomputation(self, seed):
        model, data = random_instance(seed)
        total = sum((predict_one(model, x) - t) ** 2
                    for x, t in zip(data.inputs, data.targets))
        # a row's float32 output may round apart from the batch's by an ulp
        rtol = 64 * EPS32 if model.arch.hidden_sizes else 1e-10
        assert np.isclose(loss_and_grad(model, data)[0], total, rtol=rtol, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_references(self, seed):
        # the loss against the reference of the kernels' own precision, and
        # against float64 arithmetic to float32's rounding
        model, data = random_instance(seed)
        loss = loss_and_grad(model, data)[0]
        exact = reference_loss_grad(model, data.inputs, data.targets, np.float64)[0]
        if not model.arch.hidden_sizes:
            assert np.isclose(loss, exact, rtol=1e-12, atol=1e-12)
            return
        same = reference_loss_grad(model, data.inputs, data.targets, np.float32)[0]
        assert np.isclose(loss, same, rtol=4 * EPS32, atol=0.0)
        assert np.isclose(loss, exact, rtol=16 * EPS32, atol=0.0)


class TestGrad:
    def test_zero_residual_zero_gradient(self):
        model, data = random_instance(4)
        data.targets[:] = predict(model, data.inputs)
        assert np.allclose(loss_and_grad(model, data)[1], 0.0, atol=1e-12)

    @staticmethod
    def assert_matches_finite_differences(model, data):
        """A linear model's gradient against central differences; a hidden
        model's, whose float32 loss differences would measure its rounding
        noise, against the references of float32 and float64 arithmetic, to
        some units of float32 rounding of the largest entry."""
        _, g = loss_and_grad(model, data)
        if model.arch.hidden_sizes:
            scale = np.abs(g).max()
            for dtype, units in ((np.float32, 16), (np.float64, 64)):
                ref = reference_loss_grad(model, data.inputs, data.targets, dtype)[1]
                np.testing.assert_allclose(g, ref, rtol=0.0, atol=units * EPS32 * scale)
            return

        def f(theta):
            probe = ComponentMLP(model.p, model.K, model.arch, theta=theta.copy())
            return loss_and_grad(probe, data)[0]

        fd = finite_diff_grad(f, model.theta, h=1e-6)
        rel = np.abs(g - fd) / np.maximum(1.0, np.maximum(np.abs(g), np.abs(fd)))
        assert rel.max() < 1e-5

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_finite_differences(self, seed):
        self.assert_matches_finite_differences(*random_instance(seed))

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_matches_finite_differences_long_two_hidden_layers(self, activation):
        # N >= 200 rows, and a hidden layer feeding a wider-than-one layer,
        # so the backward pass takes the W.T @ delta GEMM as well as (tanh)
        # the broadcast step before the one-unit output
        model, data = random_instance(13, p=3, K=2, hidden=(6, 4), N=240,
                                      activation=activation)
        # nonzero biases: with zero ones, a row whose relu units are all off
        # puts the next layer exactly on its kink, where differences fail
        model.theta[:] = np.random.default_rng(13).normal(scale=0.5, size=model.n_params)
        self.assert_matches_finite_differences(model, data)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("hidden", [(), (5,), (5, 3)])
    def test_matches_finite_differences_with_the_bias_column(self, activation, hidden):
        # the first layer's bias gradient is the ones column of the weight
        # GEMM, and before the one-unit output the gradient rows are scaled
        # by its weight after the GEMM; nonzero biases keep relu off its kinks
        model, data = random_instance(31, p=3, K=2, hidden=hidden, N=60,
                                      activation=activation)
        model.theta[:] = np.random.default_rng(31).normal(scale=0.5, size=model.n_params)
        self.assert_matches_finite_differences(model, data)

    def test_zero_input_column_zero_first_layer_grad(self):
        model, data = random_instance(8, p=3, K=2, N=6)
        j = 1
        data.inputs[:, j::3] = 0.0
        g = loss_and_grad(model, data)[1]
        gw1 = g[:model.weight(0).size].reshape(model.weight(0).shape)
        assert np.all(gw1[:, j::3] == 0.0)


def group_norms(model):
    return kernels.group_norms(model.weight(0), model.p, model.K)


class TestGroupNorms:
    def test_zero_first_layer(self):
        model = ComponentMLP(p=4, K=3, arch=Architecture(hidden_sizes=(5,)))
        assert np.array_equal(group_norms(model), np.zeros(4))

    def test_three_four_five(self):
        # K=2, H1=1, column weights (3, 4) stack to norm 5
        model = ComponentMLP(p=1, K=2, arch=Architecture(hidden_sizes=(1,)))
        model.weight(0)[0] = [3.0, 4.0]
        assert group_norms(model)[0] == 5.0

    def test_zero_iff_column_group_zero(self):
        model, _ = random_instance(5, p=3, K=2, hidden=(4,))
        gw = group_norms(model)
        for j in range(3):
            assert (gw[j] == 0.0) == np.all(model.weight(0)[:, j::3] == 0.0)

    def test_zero_group_makes_prediction_invariant(self):
        # sufficiency: zero outgoing weights -> output ignores that series
        model, data = random_instance(6, p=4, K=2, hidden=(5,), N=10)
        j = 2
        model.weight(0)[:, j::4] = 0.0
        base = predict(model, data.inputs)
        gen = np.random.default_rng(0)
        for _ in range(5):
            perturbed = data.inputs.copy()
            perturbed[:, j::4] = gen.normal(scale=100.0, size=(10, 2))
            assert np.array_equal(predict(model, perturbed), base)


class TestLinearEquivalence:
    def test_matches_least_squares_residual_algebra(self):
        # zero-hidden model: loss/grad equal the normal-equation forms
        gen = np.random.default_rng(2)
        p, K, N = 3, 2, 30
        X = gen.normal(size=(N, p * K))
        y = gen.normal(size=N)
        data = hand_made(X, y, p, K)
        model = ComponentMLP(p, K, Architecture(hidden_sizes=()))
        w = gen.normal(size=p * K)
        b = 0.3
        model.weight(0)[0] = w
        model.bias(0)[0] = b

        r = X @ w + b - y
        assert np.isclose(loss_and_grad(model, data)[0], r @ r, rtol=1e-10)
        g = loss_and_grad(model, data)[1]
        assert np.allclose(g[model.w_off[0]:model.b_off[0]], 2.0 * X.T @ r,
                           rtol=1e-10, atol=1e-12)
        assert np.isclose(g[model.b_off[0]], 2.0 * r.sum(), rtol=1e-10)


class TestArchitecture:
    @pytest.mark.parametrize("field", [
        {"activation": "sigmoid"}, {"hidden_sizes": (0,)},
        # a float width is not truncated
        {"hidden_sizes": (2.5,)},
        # operator.index(True) is 1, yet a bool is no width
        {"hidden_sizes": (True,)}])
    def test_bad_field_rejected(self, field):
        with pytest.raises(ValueError):
            Architecture(**field)

    def test_init_is_seeded(self):
        arch = Architecture(hidden_sizes=(4, 3))
        a = init_model(3, 2, arch, SeededRng(9))
        b = init_model(3, 2, arch, SeededRng(9))
        c = init_model(3, 2, arch, SeededRng(10))
        assert np.array_equal(a.theta, b.theta)
        assert not np.array_equal(a.theta, c.theta)

    def test_copy_is_independent(self):
        model = init_model(2, 1, Architecture(hidden_sizes=(2,)), SeededRng(0))
        clone = model.copy()
        clone.theta[:] = 0.0
        assert not np.array_equal(model.theta, clone.theta)


# Every real-valued setting, checked by model._real alone: (call with the
# value, name, bound as the messages word it, a value at the bound, and the
# message at it, None where the bound value is accepted).
def _lorenz(**setting):
    return simulate_lorenz(LorenzGenConfig(p=4, burn_in=0, **setting), 5, SeededRng(0))


REAL_SETTINGS = {
    "lam": (lambda v: PenaltySpec("group", v), "lambda", " and >= 0", 0.0, None),
    "initial_step": (lambda v: OptimizerConfig(initial_step=v), "initial_step",
                     " and > 1e-12", MIN_STEP,
                     "initial_step must be finite and > 1e-12, got 1e-12"),
    "rel_tol": (lambda v: OptimizerConfig(rel_tol=v), "rel_tol", " and > 0", 0.0,
                "rel_tol must be finite and > 0, got 0.0"),
    "init_scale": (lambda v: Architecture(init_scale=v), "init_scale", " and >= 0",
                   0.0, None),
    "lam_max": (lambda v: lambda_grid(v), "lam_max", " and > 0", 0.0,
                "lam_max must be finite and > 0, got 0.0"),
    "grid_ratio": (lambda v: lambda_grid(1.0, 3, v), "grid_ratio", " and > 1", 1.0,
                   "grid_ratio must be finite and > 1, got 1.0"),
    "var.noise_sigma": (lambda v: make_sparse_var(SeededRng(0), 3, 1, noise_sigma=v),
                        "noise_sigma", " and > 0", 0.0,
                        "noise_sigma must be finite and > 0, got 0.0"),
    # the interval settings keep their interval messages
    "edge_prob": (lambda v: make_sparse_var(SeededRng(0), 3, 1, edge_prob=v),
                  "edge_prob", "", 0.0, "edge_prob must be in (0, 1], got 0.0"),
    "target_radius": (lambda v: make_sparse_var(SeededRng(0), 3, 1, target_radius=v),
                      "target_radius", "", 1.0, "target_radius must be in (0, 1), got 1.0"),
    "F": (lambda v: _lorenz(F=v), "F", "", -5.0, None),   # no bound: any finite F
    "dt": (lambda v: _lorenz(dt=v), "dt", " and > 0", 0.0,
           "dt must be finite and > 0, got 0.0"),
    "lorenz.noise_sigma": (lambda v: _lorenz(noise_sigma=v), "noise_sigma", " and >= 0",
                           0.0, None),
}


def _real_cases():
    for setting, (_, name, bound, at_bound, message) in REAL_SETTINGS.items():
        yield pytest.param(setting, True, f"{name} must be a real number, got True",
                           id=f"{setting}-True")
        yield pytest.param(setting, "1", f"{name} must be a real number, got '1'",
                           id=f"{setting}-str")
        for value in (np.nan, np.inf):
            yield pytest.param(setting, value, f"{name} must be finite{bound}, got {value}",
                               id=f"{setting}-{value}")
        # an int beyond the float range is not finite, not an OverflowError
        yield pytest.param(setting, 10**400, f"{name} must be finite{bound}, "
                           "got an integer too large for a float", id=f"{setting}-10**400")
        yield pytest.param(setting, at_bound, message, id=f"{setting}-at-bound")


def test_int_for_a_real_setting_is_stored_as_a_float():
    # the float _real returns is the one stored, as a config file reads it
    for value in (PenaltySpec("group", 1).lam, Architecture(init_scale=1).init_scale,
                  OptimizerConfig(rel_tol=1).rel_tol, VarGenConfig(noise_sigma=1).noise_sigma,
                  LorenzGenConfig(F=1).F):
        assert type(value) is float and value == 1.0


@pytest.mark.parametrize("setting,value,message", _real_cases())
def test_real_setting_follows_one_rule(setting, value, message):
    # a bool or a non-number is no number, not 1.0 or a TypeError from deep
    # inside; a value at the bound is accepted or rejected in bound wording
    call = REAL_SETTINGS[setting][0]
    if message is None:
        call(value)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
