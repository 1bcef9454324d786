import numpy as np
import pytest

from ngcausal.datasets import VarGenConfig, standardize
from ngcausal.evaluation import (DegenerateTruthError, assemble_graph, auc,
                                 edge_rates, lag_profile, lambda_grid,
                                 lambda_max_linear, roc_points,
                                 roc_points_scores, run_experiment, sweep_path)
from ngcausal.model import (Architecture, ComponentMLP, build_lagged,
                            granger_weights, init_model)
from ngcausal.numerics import SeededRng
from ngcausal.optim import OptimizerConfig, fit
from ngcausal.penalties import PenaltySpec


def models_with_norms(norm_rows):
    """One linear model per output row, first layer set to give those norms."""
    p = len(norm_rows)
    models = []
    for row in norm_rows:
        m = ComponentMLP(p=p, K=1, hidden_sizes=())
        m.weight(0)[0] = row
        models.append(m)
    return models


class TestAssembleGraph:
    def test_zero_models_give_zero_graph(self):
        models = [ComponentMLP(p=3, K=2, hidden_sizes=(2,)) for _ in range(3)]
        assert np.array_equal(assemble_graph(models), np.zeros((3, 3)))

    def test_direct_placement(self):
        models = models_with_norms([[1.0, 0.0], [0.0, -2.0]])
        assert np.array_equal(assemble_graph(models), [[1.0, 0.0], [0.0, 2.0]])

    def test_shape_mismatch_rejected(self):
        models = [ComponentMLP(p=2, K=1, hidden_sizes=()),
                  ComponentMLP(p=2, K=2, hidden_sizes=())]
        with pytest.raises(ValueError):
            assemble_graph(models)

    def test_wrong_model_count_rejected(self):
        with pytest.raises(ValueError):
            assemble_graph([ComponentMLP(p=3, K=1, hidden_sizes=())])

    def test_zeroed_column_zeroes_graph_column(self):
        rng = SeededRng(0)
        models = [init_model(4, 2, Architecture(hidden_sizes=(3,), init_scale=1.0),
                             rng.child(i)) for i in range(4)]
        for m in models:
            m.column_group(2)[...] = 0.0
        graph = assemble_graph(models)
        assert np.array_equal(graph[:, 2], np.zeros(4))
        assert np.all(graph[:, [0, 1, 3]] > 0)


class TestLagProfile:
    def test_zero_model(self):
        m = ComponentMLP(p=3, K=4, hidden_sizes=(2,))
        assert np.array_equal(lag_profile(m), np.zeros((3, 4)))

    def test_row_sums_match_granger_weights(self):
        m = init_model(4, 3, Architecture(hidden_sizes=(5,), init_scale=1.0),
                       SeededRng(1))
        lp = lag_profile(m)
        gw = granger_weights(m)
        assert np.allclose((lp ** 2).sum(axis=1), gw ** 2, rtol=1e-12)

    def test_known_entries(self):
        m = ComponentMLP(p=2, K=2, hidden_sizes=(1,))
        m.weight(0)[0] = [3.0, 0.0, 4.0, 0.0]  # series 0: lag1=3, lag2=4
        lp = lag_profile(m)
        assert np.array_equal(lp, [[3.0, 4.0], [0.0, 0.0]])


class TestRocPoints:
    def setup_method(self):
        self.truth = np.array([[1.0, 0.0, 1.0],
                               [0.0, 1.0, 0.0],
                               [1.0, 0.0, 1.0]])

    def test_perfect_estimate_gives_corner(self):
        pts = roc_points(self.truth, [self.truth.copy()])
        assert [0.0, 1.0] in pts.tolist()

    def test_all_zero_gives_origin_only(self):
        pts = roc_points(self.truth, [np.zeros((3, 3))])
        assert pts.tolist().count([0.0, 0.0]) == 2  # estimate + augmentation

    def test_dense_gives_top_corner(self):
        pts = roc_points(self.truth, [np.ones((3, 3))])
        assert pts.tolist().count([1.0, 1.0]) == 2

    def test_degenerate_truth_rejected(self):
        with pytest.raises(DegenerateTruthError):
            roc_points(np.ones((2, 2)), [np.ones((2, 2))])
        with pytest.raises(DegenerateTruthError):
            roc_points(np.zeros((2, 2)), [np.ones((2, 2))])

    def test_diagonal_excluded_mode(self):
        truth = np.eye(3)
        truth[0, 1] = 1.0
        fpr, tpr = edge_rates(truth, truth.copy(), include_diagonal=False)
        assert (fpr, tpr) == (0.0, 1.0)
        # with the diagonal excluded, an all-diag truth is degenerate
        with pytest.raises(DegenerateTruthError):
            edge_rates(np.eye(3), np.eye(3), include_diagonal=False)

    def test_scale_invariance(self):
        graphs = [np.array([[0.0, 2.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]]),
                  np.array([[1.0, 2.0, 0.0], [0.5, 1.0, 4.0], [0.0, 1.0, 3.0]])]
        base = roc_points(self.truth, graphs)
        scaled = roc_points(self.truth, [37.5 * g for g in graphs])
        assert np.array_equal(base, scaled)
        assert auc(base) == auc(scaled)


class TestAuc:
    def test_perfect(self):
        assert auc([(0, 0), (0, 1), (1, 1)]) == 1.0

    def test_chance_diagonal(self):
        assert auc([(0, 0), (1, 1)]) == 0.5

    def test_hand_trapezoid(self):
        assert auc([(0, 0), (0.5, 0.5), (1, 1)]) == 0.5

    def test_staircase_hand_case(self):
        # trapezoid over (0,0) -> (0.2, 0.8) -> (1,1): hand value 0.86
        pts = [(0, 0), (0.2, 0.8), (1, 1)]
        expected = 0.5 * 0.2 * 0.8 + 0.5 * 0.8 * (0.8 + 1.0)
        assert np.isclose(auc(pts), expected, rtol=1e-12)
        assert np.isclose(auc(pts), 0.8, rtol=1e-12)

    def test_ties_keep_max_tpr(self):
        assert auc([(0, 0), (0, 0.9), (0, 0.2), (1, 1)]) == pytest.approx(0.95)

    def test_requires_endpoints(self):
        with pytest.raises(ValueError):
            auc([(0.1, 0.2), (1, 1)])

    def test_complement_symmetry_on_staircases(self):
        # reversing a classifier mirrors its curve through (1/2, 1/2), so the
        # two areas must sum to one on any strictly increasing staircase
        gen = np.random.default_rng(5)
        for _ in range(10):
            n = int(gen.integers(1, 8))
            fpr = np.sort(gen.uniform(0.01, 0.99, size=n))
            tpr = np.sort(gen.uniform(0.01, 0.99, size=n))
            pts = [(0.0, 0.0), *zip(fpr, tpr), (1.0, 1.0)]
            reversed_pts = [(1.0 - f, 1.0 - t) for f, t in pts]
            assert np.isclose(auc(pts) + auc(reversed_pts), 1.0, atol=1e-12)

    def test_score_mode_ranks_by_weight(self):
        truth = np.array([[1.0, 0.0], [0.0, 1.0]])
        graph = np.array([[0.9, 0.1], [0.2, 0.8]])  # true edges score highest
        assert auc(roc_points_scores(truth, graph)) == 1.0


class TestLambdaGrid:
    def test_descending_log_spaced(self):
        grid = lambda_grid(100.0, size=5, ratio=100.0)
        assert np.allclose(grid, [100.0, 31.6227766, 10.0, 3.16227766, 1.0])
        assert np.all(np.diff(grid) < 0)

    def test_lambda_max_zeroes_linear_fit(self):
        # at the computed lambda_max the converged linear fit has no groups
        ts = standardize(VarGenConfig(p=5, K=2, burn_in=100).generate(400, 9)[0])[0]
        lam_max = lambda_max_linear(ts, 2)
        opt = OptimizerConfig(rel_tol=1e-12, max_iters=50_000)
        for i in range(5):
            data = build_lagged(ts, 2, i)
            res = fit(data, PenaltySpec("group", lam_max),
                      Architecture(hidden_sizes=()), opt, seed=i)
            assert np.array_equal(granger_weights(res.model), np.zeros(5))

    def test_slightly_below_lambda_max_activates(self):
        ts = standardize(VarGenConfig(p=5, K=2, burn_in=100).generate(400, 9)[0])[0]
        lam_max = lambda_max_linear(ts, 2)
        opt = OptimizerConfig(rel_tol=1e-12, max_iters=50_000)
        active = 0
        for i in range(5):
            data = build_lagged(ts, 2, i)
            res = fit(data, PenaltySpec("group", 0.98 * lam_max),
                      Architecture(hidden_sizes=()), opt, seed=i)
            active += int((granger_weights(res.model) > 0).sum())
        assert active >= 1

    @pytest.mark.parametrize("seed", range(5))
    def test_lambda_max_same_bits_for_c_and_f_ordered_design(self, seed, monkeypatch):
        # a plain X.T @ R can round differently for the two memory orders;
        # with x86-64 OpenBLAS it does on each of these seeds
        ts = np.random.default_rng(seed).normal(size=(200, 3))
        assert build_lagged(ts, 2, 0).inputs.flags.f_contiguous
        from_f = lambda_max_linear(ts, 2)

        def c_ordered(ts, K, i):
            data = build_lagged(ts, K, i)
            data.inputs = np.ascontiguousarray(data.inputs)
            return data

        monkeypatch.setattr("ngcausal.evaluation.build_lagged", c_ordered)
        assert lambda_max_linear(ts, 2).hex() == from_f.hex()

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            lambda_grid(0.0)
        with pytest.raises(ValueError):
            lambda_grid(1.0, size=1)
        with pytest.raises(ValueError):
            lambda_grid(1.0, ratio=1.0)


class TestSweepPath:
    def test_parallel_matches_serial(self):
        ts = standardize(VarGenConfig(p=4, K=2, burn_in=100).generate(150, 2)[0])[0]
        lams = lambda_grid(lambda_max_linear(ts, 2), 5, 50.0)
        arch = Architecture(hidden_sizes=(4,))
        opt = OptimizerConfig(max_iters=300)
        a = sweep_path(ts, 2, "group", lams, arch, opt, seed=3, jobs=1)
        b = sweep_path(ts, 2, "group", lams, arch, opt, seed=3, jobs=2)
        for ga, gb in zip(a.graphs, b.graphs):
            assert np.array_equal(ga, gb)
        assert np.array_equal(a.iterations, b.iterations)

    def test_grid_must_descend(self):
        ts = standardize(VarGenConfig(p=4, K=1, burn_in=50).generate(80, 0)[0])[0]
        with pytest.raises(ValueError):
            sweep_path(ts, 1, "group", np.array([1.0, 2.0]),
                       Architecture(hidden_sizes=()), OptimizerConfig(), seed=0)

    def test_active_counts_monotone_on_linear_path(self):
        ts = standardize(VarGenConfig(p=5, K=2, burn_in=100).generate(300, 4)[0])[0]
        lams = lambda_grid(lambda_max_linear(ts, 2), 10, 100.0)
        sw = sweep_path(ts, 2, "group", lams, Architecture(hidden_sizes=()),
                        OptimizerConfig(), seed=1)
        counts = sw.active_edges()
        assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestRunExperiment:
    def test_deterministic_across_calls_and_jobs(self):
        gen = VarGenConfig(p=4, K=1, burn_in=50)
        arch = Architecture(hidden_sizes=())
        opt = OptimizerConfig(max_iters=500)
        kwargs = dict(T=120, K=1, arch=arch, opt=opt, penalty_kind="group",
                      seeds=[0, 1], grid_size=5)
        a = run_experiment(gen, jobs=1, **kwargs)
        b = run_experiment(gen, jobs=2, **kwargs)
        assert np.array_equal(a.aucs, b.aucs)
        assert np.array_equal(a.aucs_excl_diag, b.aucs_excl_diag)
        for sa, sb in zip(a.sweeps, b.sweeps):
            for ga, gb in zip(sa.graphs, sb.graphs):
                assert np.array_equal(ga, gb)

    def test_explicit_lambda_grid_respected(self):
        gen = VarGenConfig(p=4, K=1, burn_in=50)
        res = run_experiment(gen, T=100, K=1, arch=Architecture(hidden_sizes=()),
                             opt=OptimizerConfig(max_iters=200),
                             penalty_kind="group", seeds=[0],
                             lambdas=[50.0, 5.0, 0.5])
        assert np.array_equal(res.sweeps[0].lambdas, [50.0, 5.0, 0.5])
        assert len(res.sweeps[0].graphs) == 3
