import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from ngcausal.model import ComponentMLP, init_model, Architecture
from ngcausal.numerics import SeededRng
from ngcausal.penalties import PenaltySpec, apply_prox, penalty_value
from oracles import oracle_prox_group, oracle_prox_hier


def prox_column(kind, col, threshold):
    """apply_prox on one series' (H, K) column group: a p=1 model whose first
    layer is col, at step 1, so the threshold is lam."""
    col = np.asarray(col, dtype=np.float64)
    model = ComponentMLP(p=1, K=col.shape[1], arch=Architecture(hidden_sizes=(col.shape[0],)))
    model.weight(0)[...] = col
    apply_prox(PenaltySpec(kind, threshold), model, model.theta, step=1.0)
    return model.weight(0).copy()


def group_prox(v, threshold):
    """Group soft-threshold of a vector, through apply_prox."""
    return prox_column("group", np.reshape(v, (-1, 1)), threshold)[:, 0]


def hier_prox(col, threshold):
    """Nested-suffix prox of one (H, K) column group, through apply_prox."""
    return prox_column("hierarchical", col, threshold)


def prox_objective_minimizer(v, t):
    """1-d oracle: argmin_z 0.5||z-v||^2 + t||z|| restricted to z = c*v, c >= 0.

    The true minimizer is collinear with v, so the scalar search is exact.
    """
    nv = np.linalg.norm(v)
    if nv == 0:
        return np.zeros_like(v)

    def phi(c):
        return 0.5 * (c - 1.0) ** 2 * nv ** 2 + t * abs(c) * nv

    res = minimize_scalar(phi, bounds=(0.0, 1.0), method="bounded",
                          options={"xatol": 1e-12})
    return res.x * v


class TestPenaltyValue:
    def test_zero_first_layer_any_kind(self):
        model = ComponentMLP(p=3, K=2, arch=Architecture(hidden_sizes=(4,)))
        for kind in ("group", "hierarchical"):
            assert penalty_value(PenaltySpec(kind, 2.0), model) == 0.0

    def test_group_hand_case(self):
        # single column, K=2, H1=1, weights (3, 4): 2 * ||(3,4)|| = 10
        model = ComponentMLP(p=1, K=2, arch=Architecture(hidden_sizes=(1,)))
        model.weight(0)[0] = [3.0, 4.0]
        assert penalty_value(PenaltySpec("group", 2.0), model) == 10.0

    def test_hierarchical_hand_case(self):
        # nested sums: sqrt(3^2+4^2) + sqrt(4^2) = 5 + 4 = 9
        model = ComponentMLP(p=1, K=2, arch=Architecture(hidden_sizes=(1,)))
        model.weight(0)[0] = [3.0, 4.0]
        assert np.isclose(penalty_value(PenaltySpec("hierarchical", 1.0), model), 9.0,
                          rtol=1e-14)

    def test_matches_direct_recomputation(self):
        model = init_model(4, 3, Architecture(hidden_sizes=(5,), init_scale=1.0),
                           SeededRng(2))
        lam = 1.7
        groups = [model.weight(0)[:, j::4] for j in range(4)]
        direct_group = lam * sum(np.linalg.norm(g) for g in groups)
        assert np.isclose(penalty_value(PenaltySpec("group", lam), model),
                          direct_group, rtol=1e-12)
        direct_hier = lam * sum(np.linalg.norm(g[:, k:])
                                for g in groups for k in range(3))
        assert np.isclose(penalty_value(PenaltySpec("hierarchical", lam), model),
                          direct_hier, rtol=1e-12)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            PenaltySpec("ridge", 1.0)
        with pytest.raises(ValueError):
            PenaltySpec("group", -0.5)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            PenaltySpec("group", lam)


class TestProxGroupBlock:
    def test_shrinks_by_closed_form(self):
        v = np.array([1.2, 1.6])  # norm 2
        out = group_prox(v, 0.5)
        assert np.allclose(out, 0.75 * v, rtol=1e-15)

    def test_below_threshold_exact_zero(self):
        v = np.array([0.1, -0.05, 0.02])
        out = group_prox(v, 1.0)
        assert np.array_equal(out, np.zeros(3))

    def test_threshold_zero_identity(self):
        v = SeededRng(0).gen.normal(size=7)
        assert np.array_equal(group_prox(v, 0.0), v)

    def test_boundary_maps_to_zero(self):
        v = np.array([3.0, 4.0])
        assert np.array_equal(group_prox(v, 5.0), np.zeros(2))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_prox_objective_minimizer(self, seed):
        gen = np.random.default_rng(seed)
        v = gen.normal(size=int(gen.integers(1, 8)))
        t = float(gen.uniform(0, 2.0 * np.linalg.norm(v) + 0.1))
        assert np.allclose(group_prox(v, t),
                           prox_objective_minimizer(v, t), atol=1e-6)

    @given(st.integers(0, 2**31), st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_nonexpansive(self, seed, t):
        gen = np.random.default_rng(seed)
        u = gen.normal(size=5)
        v = gen.normal(size=5)
        du = group_prox(u, t) - group_prox(v, t)
        assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-12

    @given(st.integers(0, 2**31), st.floats(0.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_never_grows_norm(self, seed, t):
        v = np.random.default_rng(seed).normal(size=4)
        assert np.linalg.norm(group_prox(v, t)) <= np.linalg.norm(v) + 1e-12


class TestProxHierarchicalColumn:
    def test_small_column_fully_zeroed(self):
        # step 1 zeroes lag 2 (0.1 < 0.2); step 2 zeroes the remaining (0.1, 0)
        col = np.array([[0.1, 0.1]])
        out = hier_prox(col, 0.2)
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_two_step_hand_case(self):
        # lag 2 zeroed first, then (5, 0) shrinks by (1 - 0.2/5) = 0.96
        col = np.array([[5.0, 0.1]])
        out = hier_prox(col, 0.2)
        assert np.allclose(out, [[4.8, 0.0]], rtol=1e-15)
        assert out[0, 1] == 0.0

    def test_threshold_zero_identity(self):
        col = SeededRng(1).gen.normal(size=(3, 4))
        assert np.array_equal(hier_prox(col, 0.0), col)

    @given(st.integers(0, 2**31), st.floats(0.0, 2.0), st.integers(1, 4),
           st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_zero_pattern_is_suffix(self, seed, t, h, k):
        col = np.random.default_rng(seed).normal(size=(h, k))
        out = hier_prox(col, t)
        zero_lags = [np.all(out[:, q] == 0.0) for q in range(k)]
        # once a lag is zero, all deeper lags are zero
        for q in range(k - 1):
            if zero_lags[q]:
                assert all(zero_lags[q:])

    @given(st.integers(0, 2**31), st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_nonexpansive(self, seed, t):
        gen = np.random.default_rng(seed)
        u = gen.normal(size=(2, 3))
        v = gen.normal(size=(2, 3))
        du = hier_prox(u, t) - hier_prox(v, t)
        assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-12


class TestApplyProx:
    @pytest.mark.parametrize("kind", ["group", "hierarchical"])
    def test_lambda_zero_leaves_every_bit(self, kind):
        # no prox runs at lambda 0: a signed zero group keeps its sign
        model = init_model(3, 2, Architecture(hidden_sizes=(4,)), SeededRng(0))
        model.weight(0)[:, 1::3] = -0.0
        before = model.theta.tobytes()
        assert apply_prox(PenaltySpec(kind, 0.0), model, model.theta, step=0.1) == 0.0
        assert model.theta.tobytes() == before

    def test_huge_lambda_zeroes_first_layer_only(self):
        model = init_model(3, 2, Architecture(hidden_sizes=(4,)), SeededRng(1))
        deeper_before = model.weight(1).copy()
        biases_before = [model.bias(l).copy() for l in range(len(model.dims) - 1)]
        apply_prox(PenaltySpec("group", 1e9), model, model.theta, step=1.0)
        assert np.array_equal(model.weight(0), np.zeros((4, 6)))
        assert np.array_equal(model.weight(1), deeper_before)
        for l, before in enumerate(biases_before):
            assert np.array_equal(model.bias(l), before)

    def test_single_column_reduces_to_block_prox(self):
        model = init_model(1, 3, Architecture(hidden_sizes=(2,), init_scale=1.0),
                           SeededRng(2))
        expected = model.weight(0).copy()
        oracle_prox_group(expected, 1, 3, 0.1 * 0.7)
        apply_prox(PenaltySpec("group", 0.7), model, model.theta, step=0.1)
        assert np.allclose(model.weight(0), expected, rtol=1e-15)

    def test_group_matches_per_column_blocks(self):
        model = init_model(4, 2, Architecture(hidden_sizes=(3,), init_scale=1.0),
                           SeededRng(3))
        expected = {j: model.weight(0)[:, j::4].copy() for j in range(4)}
        for col in expected.values():
            oracle_prox_group(col, 1, 2, 0.1 * 0.5)
        apply_prox(PenaltySpec("group", 0.5), model, model.theta, step=0.1)
        for j in range(4):
            assert np.allclose(model.weight(0)[:, j::4], expected[j], rtol=1e-14)

    def test_hierarchical_matches_per_column(self):
        model = init_model(3, 3, Architecture(hidden_sizes=(2,), init_scale=1.0),
                           SeededRng(4))
        expected = {j: model.weight(0)[:, j::3].copy() for j in range(3)}
        for col in expected.values():
            oracle_prox_hier(col, 1, 3, 0.1 * 0.6)
        apply_prox(PenaltySpec("hierarchical", 0.6), model, model.theta, step=0.1)
        for j in range(3):
            assert np.allclose(model.weight(0)[:, j::3], expected[j], rtol=1e-14)

    def test_commutes_with_series_permutation(self):
        rng = SeededRng(5)
        model = init_model(5, 2, Architecture(hidden_sizes=(3,), init_scale=1.0), rng)
        perm = np.array([3, 0, 4, 1, 2])
        permuted = model.copy()
        w1 = model.weight(0)
        w1p = permuted.weight(0)
        for k in range(2):
            w1p[:, k * 5:(k + 1) * 5] = w1[:, k * 5:(k + 1) * 5][:, perm]
        spec = PenaltySpec("group", 0.8)
        apply_prox(spec, model, model.theta, step=0.1)
        apply_prox(spec, permuted, permuted.theta, step=0.1)
        for k in range(2):
            assert np.allclose(permuted.weight(0)[:, k * 5:(k + 1) * 5],
                               model.weight(0)[:, k * 5:(k + 1) * 5][:, perm],
                               rtol=1e-15)

    @pytest.mark.parametrize("kind", ["group", "hierarchical"])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 2.0, 1e9])
    @pytest.mark.parametrize("nan", [False, True])
    def test_returns_penalty_value_of_result(self, kind, lam, nan):
        # the returned penalty is penalty_value's to the bit, also where the
        # layer has a NaN (0 at lambda 0, else NaN)
        model = init_model(4, 3, Architecture(hidden_sizes=(5,), init_scale=1.0),
                           SeededRng(6))
        if nan:
            model.weight(0)[2, 5] = np.nan
        spec = PenaltySpec(kind, lam)
        got = apply_prox(spec, model, model.theta, step=0.1)
        want = penalty_value(spec, model)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_step_must_be_positive(self):
        model = ComponentMLP(2, 1, Architecture(hidden_sizes=()))
        with pytest.raises(ValueError):
            apply_prox(PenaltySpec("group", 1.0), model, model.theta, step=0.0)
