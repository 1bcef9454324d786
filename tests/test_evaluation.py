import concurrent.futures
import dataclasses
import functools
import multiprocessing
import re

import numpy as np
import pytest

from ngcausal import _kernels as kernels
from ngcausal import evaluation, optim
from ngcausal.datasets import VarGenConfig, standardize
from ngcausal.evaluation import (DegenerateTruthError, auc, edge_rates,
                                 lambda_grid, lambda_max_linear, roc_points,
                                 sweep_path)
from ngcausal.model import (Architecture, ComponentMLP, DataError, build_lagged,
                            init_model)
from ngcausal.datasets import SeededRng, child_seed
from ngcausal.optim import OptimizerConfig, fit
from ngcausal.penalties import PenaltySpec
from oracles import reference_fit


def models_with_norms(norm_rows):
    """One linear model per output row, first layer set to give those norms."""
    p = len(norm_rows)
    models = []
    for row in norm_rows:
        m = ComponentMLP(p=p, K=1, arch=Architecture(hidden_sizes=()))
        m.weight(0)[0] = row
        models.append(m)
    return models


def group_norms(model):
    """Norm of each input series' first-layer column group, length p."""
    return kernels.group_norms(model.weight(0), model.p, model.K)


def lag_profile(model):
    """Per-(input series, lag) first-layer block norms, shape (p, K)."""
    return kernels.lag_norms(model.weight(0), model.p, model.K)


def stack_graph(models):
    """The (p, p) weight graph: row i is the group norms of series i's model."""
    return np.array([group_norms(m) for m in models])


def assert_graph_of_lag_profile(graph, lags, models):
    """Graph entry (i, j) is the norm of lag-profile row (i, j), and is
    positive exactly when model i's column group j is nonzero."""
    assert np.array_equal(graph, np.sqrt((lags ** 2).sum(-1)))
    assert np.array_equal(graph > 0, stack_graph(models) > 0)


class TestAssembleGraph:
    def test_zero_models_give_zero_graph(self):
        models = [ComponentMLP(p=3, K=2, arch=Architecture(hidden_sizes=(2,))) for _ in range(3)]
        assert np.array_equal(stack_graph(models), np.zeros((3, 3)))

    def test_direct_placement(self):
        models = models_with_norms([[1.0, 0.0], [0.0, -2.0]])
        assert np.array_equal(stack_graph(models), [[1.0, 0.0], [0.0, 2.0]])

    def test_zeroed_column_zeroes_graph_column(self):
        models = [init_model(4, 2, Architecture(hidden_sizes=(3,), init_scale=1.0),
                             SeededRng(child_seed(0, i))) for i in range(4)]
        for m in models:
            m.weight(0)[:, 2::4] = 0.0
        graph = stack_graph(models)
        assert np.array_equal(graph[:, 2], np.zeros(4))
        assert np.all(graph[:, [0, 1, 3]] > 0)


class TestLagProfile:
    def test_zero_model(self):
        m = ComponentMLP(p=3, K=4, arch=Architecture(hidden_sizes=(2,)))
        assert np.array_equal(lag_profile(m), np.zeros((3, 4)))

    def test_row_sums_match_group_norms(self):
        m = init_model(4, 3, Architecture(hidden_sizes=(5,), init_scale=1.0),
                       SeededRng(1))
        lp = lag_profile(m)
        gw = group_norms(m)
        assert np.allclose((lp ** 2).sum(axis=1), gw ** 2, rtol=1e-12)

    def test_known_entries(self):
        m = ComponentMLP(p=2, K=2, arch=Architecture(hidden_sizes=(1,)))
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

    @pytest.mark.parametrize("entry,shown", [(np.nan, "nan"), (7.0, "7")])
    def test_non_binary_truth_rejected(self, entry, shown):
        # a NaN edge would be scored as a negative and a 7 as a positive
        truth = np.array([[1.0, entry], [0.0, 0.0]])
        message = f"^truth graph entries must be 0 or 1, got {shown}$"
        with pytest.raises(DataError, match=message):
            edge_rates(truth, np.ones((2, 2)))
        with pytest.raises(DataError, match=message):
            roc_points(truth, [np.ones((2, 2))])

    def test_graph_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^graph shape \(3, 3\) does not match truth \(2, 2\)$"):
            edge_rates(np.eye(2), np.ones((3, 3)))

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
        for i, data in enumerate(build_lagged(ts, 2)):
            model = init_model(5, 2, Architecture(hidden_sizes=()), SeededRng(i))
            res = fit(data, PenaltySpec("group", lam_max), model, opt)
            assert np.array_equal(group_norms(res.model), np.zeros(5))

    def test_slightly_below_lambda_max_activates(self):
        ts = standardize(VarGenConfig(p=5, K=2, burn_in=100).generate(400, 9)[0])[0]
        lam_max = lambda_max_linear(ts, 2)
        opt = OptimizerConfig(rel_tol=1e-12, max_iters=50_000)
        active = 0
        for i, data in enumerate(build_lagged(ts, 2)):
            model = init_model(5, 2, Architecture(hidden_sizes=()), SeededRng(i))
            res = fit(data, PenaltySpec("group", 0.98 * lam_max), model, opt)
            active += int((group_norms(res.model) > 0).sum())
        assert active >= 1

    @pytest.mark.parametrize("seed", range(5))
    def test_lambda_max_same_bits_for_c_and_f_ordered_design(self, seed, monkeypatch):
        # a plain X.T @ R can round differently for the two memory orders;
        # with x86-64 OpenBLAS it does on each of these seeds
        ts = np.random.default_rng(seed).normal(size=(200, 3))
        assert build_lagged(ts, 2)[0].inputs.flags.f_contiguous
        from_f = lambda_max_linear(ts, 2)

        def c_ordered(ts, K):
            return [dataclasses.replace(data, design=np.ascontiguousarray(data.design))
                    for data in build_lagged(ts, K)]

        monkeypatch.setattr("ngcausal.evaluation.build_lagged", c_ordered)
        assert lambda_max_linear(ts, 2).hex() == from_f.hex()

    def test_lambda_max_rejects_unbounded_scale(self):
        ts = np.random.default_rng(0).normal(size=(100, 3))
        ts[:, 1] *= 1e200
        with pytest.raises(ValueError, match="not finite"):
            lambda_max_linear(ts, 2)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            lambda_grid(0.0)
        with pytest.raises(ValueError):
            lambda_grid(1.0, size=1)
        with pytest.raises(ValueError):
            lambda_grid(1.0, ratio=1.0)

    @pytest.mark.parametrize("args,message", [
        # each would give a grid holding NaN
        ((float("nan"),), "lam_max must be finite and > 0, got nan"),
        ((float("inf"),), "lam_max must be finite and > 0, got inf"),
        ((1.0, 3, float("nan")), "grid_ratio must be finite and > 1, got nan"),
        ((1.0, 3, float("inf")), "grid_ratio must be finite and > 1, got inf"),
        ((-1.0,), "lam_max must be finite and > 0, got -1.0"),
        ((1.0, 2.5), "grid_size must be an integer, got 2.5"),
        ((1.0, True), "grid_size must be an integer, got True"),
        ((1.0, 1), "grid_size must be >= 2, got 1")])
    def test_bad_grid_named(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lambda_grid(*args)

    def test_lambda_max_rejects_k_below_one(self):
        # K=0 would build an empty design and read as constant data
        ts = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(ValueError, match="^K must be >= 1, got 0$"):
            lambda_max_linear(ts, 0)


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
        assert np.array_equal(a.backtracks, b.backtracks)
        # models are each series' fit at the last lambda
        assert len(a.models) == len(b.models) == 4
        for i, (ma, mb) in enumerate(zip(a.models, b.models)):
            assert np.array_equal(ma.theta, mb.theta)
            assert np.array_equal(lag_profile(ma), a.lag_profiles[-1][i])
        assert_graph_of_lag_profile(a.graphs[-1], a.lag_profiles[-1], a.models)

    def test_spawned_pool_matches_serial(self, monkeypatch):
        # a spawned (or forkserver) worker gets its datasets by pickle, not
        # by fork: its sweep must give the serial sweep's bits all the same
        ts = standardize(VarGenConfig(p=4, K=2, burn_in=100).generate(200, 5)[0])[0]
        lams = lambda_grid(lambda_max_linear(ts, 2), 4, 50.0)
        arch = Architecture(hidden_sizes=(4,))
        a = sweep_path(ts, 2, "hierarchical", lams, arch, OptimizerConfig(), seed=6, jobs=1)
        spawned = functools.partial(concurrent.futures.ProcessPoolExecutor,
                                    mp_context=multiprocessing.get_context("spawn"))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawned)
        b = sweep_path(ts, 2, "hierarchical", lams, arch, OptimizerConfig(), seed=6, jobs=2)
        for name in ("lag_profiles", "iterations", "backtracks", "converged", "objectives"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        for ma, mb in zip(a.models, b.models):
            assert ma.theta.tobytes() == mb.theta.tobytes()

    @pytest.mark.parametrize("p,expected", [(10, [10]), (1, [])])
    def test_pool_has_at_most_one_worker_per_series(self, monkeypatch, p, expected):
        # a forked pool starts all its workers at once: this fake starts none;
        # each worker gets the datasets once, and each task is a series index
        pools, tasks = [], []

        class FakePool:
            def __init__(self, max_workers, initializer, initargs):
                pools.append(max_workers)
                initializer(*initargs)      # what each worker runs first

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                tasks.extend(zip(*iterables))
                return map(fn, *iterables)

        monkeypatch.setattr(evaluation.concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(evaluation, "_WORK", None)
        ts = standardize(VarGenConfig(p=p, K=1, burn_in=50).generate(60, 0)[0])[0]
        sw = sweep_path(ts, 1, "group", [1.0], Architecture(hidden_sizes=()),
                        OptimizerConfig(max_iters=50), seed=0, jobs=500)
        assert pools == expected
        assert tasks == [(i,) for i in range(p)] if expected else tasks == []
        assert len(sw.models) == p

    @pytest.mark.parametrize("kind", ["group", "hierarchical"])
    def test_equals_chain_of_cold_fits(self, kind):
        # sweep_path starts each fit warm from the one before; the reference
        # loop from the previous model, first trying its final step, runs
        # every forward pass afresh and matches it
        ts = standardize(VarGenConfig(p=3, K=2, burn_in=100).generate(200, 5)[0])[0]
        lams = lambda_grid(lambda_max_linear(ts, 2), 3, 20.0)
        arch = Architecture(hidden_sizes=(4,))
        opt = OptimizerConfig()
        sw = sweep_path(ts, 2, kind, lams, arch, opt, seed=4)
        models = [[None] * 3 for _ in lams]
        for i, data in enumerate(build_lagged(ts, 2)):
            model = init_model(3, 2, arch, SeededRng(child_seed(4, i)))
            step = opt.initial_step
            for li, lam in enumerate(lams):
                ref = reference_fit(data, PenaltySpec(kind, lam), model, opt, step)
                model = models[li][i] = ref.model
                step = min(ref.step, opt.initial_step)
                assert np.array_equal(lag_profile(model), sw.lag_profiles[li][i])
                assert len(ref.log) == sw.iterations[li, i]
                assert ref.backtracks == sw.backtracks[li, i]
                assert ref.converged == sw.converged[li, i]
                assert ref.trace[-1] == sw.objectives[li, i]
            assert np.array_equal(model.theta, sw.models[i].theta)
        for li in range(len(lams)):
            assert_graph_of_lag_profile(sw.graphs[li], sw.lag_profiles[li], models[li])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_models_keep_no_forward_pass(self, jobs):
        ts = standardize(VarGenConfig(p=3, K=2, burn_in=100).generate(200, 5)[0])[0]
        lams = lambda_grid(lambda_max_linear(ts, 2), 3, 20.0)
        arch = Architecture(hidden_sizes=(4,))
        sw = sweep_path(ts, 2, "group", lams, arch, OptimizerConfig(), seed=4, jobs=jobs)
        fresh = vars(ComponentMLP(3, 2, Architecture(hidden_sizes=(4,))))
        for model in sw.models:
            assert vars(model).keys() == fresh.keys()

    def test_grid_must_descend(self):
        ts = standardize(VarGenConfig(p=4, K=1, burn_in=50).generate(80, 0)[0])[0]
        for grid in ([1.0, 2.0], [np.inf, 1.0], [1.0, np.nan]):
            with pytest.raises(ValueError):
                sweep_path(ts, 1, "group", np.array(grid),
                           Architecture(hidden_sizes=()), OptimizerConfig(), seed=0)

    @pytest.mark.parametrize("jobs", [0, -3, True, 2.0, "2", None])
    def test_jobs_must_be_a_positive_int(self, jobs):
        ts = standardize(VarGenConfig(p=2, K=1, burn_in=50).generate(40, 0)[0])[0]
        with pytest.raises(ValueError, match="jobs must be"):
            sweep_path(ts, 1, "group", [1.0], Architecture(hidden_sizes=()),
                       OptimizerConfig(), seed=0, jobs=jobs)

    def test_seed_follows_numpys_seed_rule(self, monkeypatch):
        # a float seed is not truncated to an int: numpy rejects it, as
        # SeededRng does, before any fit; numpy integers key the same streams
        def unreachable(*args, **kwargs):
            raise AssertionError("a fit ran")

        assert child_seed(np.int64(1), np.int64(2)) == child_seed(1, 2)
        monkeypatch.setattr(optim, "fit", unreachable)
        ts = standardize(VarGenConfig(p=2, K=1, burn_in=50).generate(40, 0)[0])[0]
        with pytest.raises(TypeError, match="1.5"):
            sweep_path(ts, 1, "group", [1.0], Architecture(hidden_sizes=()),
                       OptimizerConfig(), seed=1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_series_is_a_value_error(self, bad):
        # not an OptimizationError: the data is at fault, not the optimizer
        ts = standardize(VarGenConfig(p=3, K=1, burn_in=50).generate(40, 0)[0])[0]
        ts[7, 0] = bad
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="series must be finite"):
                sweep_path(ts, 1, "group", [1.0], Architecture(hidden_sizes=()),
                           OptimizerConfig(), seed=0, jobs=jobs)

    def test_active_counts_monotone_on_linear_path(self):
        ts = standardize(VarGenConfig(p=5, K=2, burn_in=100).generate(300, 4)[0])[0]
        lams = lambda_grid(lambda_max_linear(ts, 2), 10, 100.0)
        sw = sweep_path(ts, 2, "group", lams, Architecture(hidden_sizes=()),
                        OptimizerConfig(), seed=1)
        counts = sw.active_edges()
        assert all(b >= a for a, b in zip(counts, counts[1:]))

