import numpy as np
import pytest

from ngcausal import _kernels as kernels
from ngcausal.model import (Architecture, ComponentMLP, build_lagged,
                            init_model, loss_and_grad, predict)
from ngcausal.numerics import SeededRng
from oracles import finite_diff_grad


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
    from ngcausal.model import LaggedDataset
    X = gen.normal(size=(N, p * K))
    y = gen.normal(size=N)
    data = LaggedDataset(inputs=X, targets=y, p=p, K=K)
    return model, data


class TestBuildLagged:
    def test_three_step_scalar_series(self):
        # series (a, b, c), K=2: the single row has inputs (b, a), target c
        ts = np.array([[1.0], [2.0], [3.0]])
        data = build_lagged(ts, 2)[0]
        assert data.n_rows == 1
        assert np.array_equal(data.inputs, [[2.0, 1.0]])
        assert np.array_equal(data.targets, [3.0])

    def test_two_series_lag_one(self):
        ts = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        data = build_lagged(ts, 1)[1]
        assert np.array_equal(data.inputs, ts[:2])
        assert np.array_equal(data.targets, [20.0, 30.0])

    def test_row_count(self):
        ts = SeededRng(0).gen.normal(size=(37, 4))
        assert build_lagged(ts, 5)[2].n_rows == 32

    def test_lag_block_ordering(self):
        # row n = (x_{K+n-1}, ..., x_n): lag-1 block first
        ts = SeededRng(1).gen.normal(size=(10, 3))
        data = build_lagged(ts, 3)[0]
        n = 2
        expected = np.concatenate([ts[3 + n - 1], ts[3 + n - 2], ts[3 + n - 3]])
        assert np.array_equal(data.inputs[n], expected)

    def test_t_not_greater_than_k_rejected(self):
        with pytest.raises(ValueError):
            build_lagged(np.zeros((3, 2)), 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_series_rejected(self, bad):
        ts = np.ones((6, 2))
        ts[4, 1] = bad
        with pytest.raises(ValueError, match="series must be finite"):
            build_lagged(ts, 1)

    def test_one_read_only_design_for_every_series(self):
        # a write through one series' dataset would change every other one's
        ts = SeededRng(3).gen.normal(size=(20, 3))
        datasets = build_lagged(ts, 2)
        assert len(datasets) == 3
        assert all(d.inputs is datasets[0].inputs for d in datasets)
        for i, d in enumerate(datasets):
            assert np.array_equal(d.targets, ts[2:, i])
            assert np.shares_memory(d.targets, ts)   # a view, not a copy
            for arr in (d.inputs, d.targets):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0
        assert ts.flags.writeable                      # the caller's array is untouched

    def test_inputs_are_fortran_ordered(self):
        # the MLP kernels read inputs.T, a C-contiguous array in this order
        data = build_lagged(SeededRng(2).gen.normal(size=(50, 3)), 2)[0]
        assert data.inputs.shape == (48, 6)
        assert data.inputs.flags.f_contiguous


class TestMemoryOrder:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("hidden", [(), (5,), (6, 4)])
    def test_c_and_f_ordered_inputs_agree(self, activation, hidden):
        model, data = random_instance(21, p=3, K=2, hidden=hidden, N=240,
                                      activation=activation)
        out = {}
        for order in "CF":
            data.inputs = np.asarray(data.inputs, order=order)
            assert data.inputs.flags[order + "_CONTIGUOUS"]
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

    def test_matches_batched_predict(self):
        # rows do not interact: one row at a time gives the batched values
        model, data = random_instance(0, N=6)
        one_by_one = np.array([predict_one(model, x) for x in data.inputs])
        assert np.allclose(one_by_one, predict(model, data.inputs), rtol=1e-12, atol=1e-14)


class TestLoss:
    def test_perfect_fit_is_zero(self):
        model, data = random_instance(3)
        data.targets[:] = predict(model, data.inputs)
        assert loss_and_grad(model, data)[0] == 0.0

    def test_zero_model_sums_squared_targets(self):
        from ngcausal.model import LaggedDataset
        model = ComponentMLP(p=1, K=1, arch=Architecture(hidden_sizes=(2,)))
        data = LaggedDataset(inputs=np.zeros((2, 1)), targets=np.array([1.0, 2.0]), p=1, K=1)
        assert loss_and_grad(model, data)[0] == 5.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_row_recomputation(self, seed):
        model, data = random_instance(seed)
        total = sum((predict_one(model, x) - t) ** 2
                    for x, t in zip(data.inputs, data.targets))
        assert np.isclose(loss_and_grad(model, data)[0], total, rtol=1e-10, atol=1e-12)


class TestGrad:
    def test_zero_residual_zero_gradient(self):
        model, data = random_instance(4)
        data.targets[:] = predict(model, data.inputs)
        assert np.allclose(loss_and_grad(model, data)[1], 0.0, atol=1e-12)

    @staticmethod
    def assert_matches_finite_differences(model, data):
        _, g = loss_and_grad(model, data)

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
        from ngcausal.model import LaggedDataset
        X = gen.normal(size=(N, p * K))
        y = gen.normal(size=N)
        data = LaggedDataset(inputs=X, targets=y, p=p, K=K)
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
