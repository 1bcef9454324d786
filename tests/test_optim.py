import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from ngcausal import _kernels as kernels
from ngcausal import optim
from ngcausal.datasets import VarGenConfig, standardize
from ngcausal.model import (Architecture, ComponentMLP, build_lagged,
                            init_model, loss_and_grad)
from ngcausal.datasets import SeededRng
from ngcausal.optim import (MIN_STEP, SLACK, FitResult, OptimizationError,
                            OptimizerConfig, fit, fit_path)
from ngcausal.penalties import PenaltySpec, apply_prox, penalty_value
from oracles import hand_made, reference_fit


def assert_monotone_trace(res, data):
    """The objective never rises by more than the line search's slack, which
    follows the dtype of the design the fit's model reads."""
    trace = res.objective_trace
    slack = SLACK[data.design_for(res.model).dtype] * np.maximum(1.0, np.abs(trace[:-1]))
    assert np.all(np.diff(trace) <= slack), "objective trace increased"


def small_dataset(seed, p=3, K=2, T=60):
    ts = VarGenConfig(p=p, K=K, burn_in=50).generate(T, seed)[0]
    return build_lagged(standardize(ts)[0], K)[0]


def seeded_model(data, arch, seed):
    """The seeded initial model of data's series, as sweep_path builds it."""
    return init_model(data.p, data.K, arch, SeededRng(seed))


def patch_path_fits(monkeypatch, opts, handed_step=None):
    """Run fit_path's k-th fit with opts[k] and, when handed_step is given,
    hand each next fit that step in place of the last fit's final step."""
    real_fit = optim.fit
    opts = iter(opts)

    def path_fit(data, spec, start, _):
        res = real_fit(data, spec, start, next(opts))
        if handed_step is not None:
            start.step = handed_step
        return res
    monkeypatch.setattr(optim, "fit", path_fit)


def fit_objective(model, data, spec):
    """The penalized objective fit records for model: its trace's first entry."""
    return fit(data, spec, model, OptimizerConfig(max_iters=1)).objective_trace[0]


def one_prox_step(model, data, spec, step):
    """One proximal gradient step at a fixed step size: one iteration of fit
    whose first trial step is accepted.  Returns (new model, new objective)."""
    res = fit(data, spec, model, OptimizerConfig(initial_step=step, max_iters=1))
    assert res.final_step == step, "the step backtracked"
    return res.model, res.objective_trace[-1]


class TestObjective:
    def test_lambda_zero_equals_loss(self):
        data = small_dataset(0)
        model = init_model(3, 2, Architecture(hidden_sizes=(4,)), SeededRng(1))
        assert (fit_objective(model, data, PenaltySpec("group", 0.0))
                == loss_and_grad(model, data)[0])

    def test_zero_model_zero_targets(self):
        model = ComponentMLP(2, 1, Architecture(hidden_sizes=(3,)))
        data = hand_made(np.ones((4, 2)), np.zeros(4), 2, 1)
        assert fit_objective(model, data, PenaltySpec("group", 3.0)) == 0.0

    def test_recomposition(self):
        data = small_dataset(2)
        model = init_model(3, 2, Architecture(hidden_sizes=(5,), init_scale=1.0),
                           SeededRng(3))
        spec = PenaltySpec("hierarchical", 0.8)
        assert np.isclose(fit_objective(model, data, spec),
                          loss_and_grad(model, data)[0] + penalty_value(spec, model),
                          rtol=1e-10)


class TestProxStep:
    def test_descends_on_convex_quadratic(self):
        data = small_dataset(4)
        model = init_model(3, 2, Architecture(hidden_sizes=()), SeededRng(5))
        spec = PenaltySpec("group", 0.0)
        before = loss_and_grad(model, data)[0] + penalty_value(spec, model)
        _, after = one_prox_step(model, data, spec, step=1e-4)
        assert after < before

    def test_fixed_point_when_gradient_zero(self):
        # zero network on zero targets is an exact stationary point
        data = small_dataset(6)
        # build_lagged's targets are read-only
        data = dataclasses.replace(data, targets=np.zeros(len(data.targets)))
        model = ComponentMLP(3, 2, Architecture(hidden_sizes=(3,)))
        new_model, _ = one_prox_step(model, data, PenaltySpec("group", 0.0), step=1e-3)
        assert np.array_equal(new_model.theta, model.theta)

    def test_scalar_soft_threshold_hand_computation(self):
        # p=1, K=1, linear: one weight w and bias b
        X = np.array([[1.0], [2.0], [-1.0]])
        y = np.array([0.5, 1.5, -0.2])
        data = hand_made(X, y, 1, 1)
        model = ComponentMLP(1, 1, Architecture(hidden_sizes=()))
        w, b, step, lam = 0.3, 0.1, 0.05, 2.0
        model.weight(0)[0, 0] = w
        model.bias(0)[0] = b
        r = X[:, 0] * w + b - y
        gw = 2.0 * float(X[:, 0] @ r)
        gb = 2.0 * float(r.sum())
        pre = w - step * gw
        shrunk = max(0.0, 1.0 - step * lam / abs(pre)) * pre
        new_model, _ = one_prox_step(model, data, PenaltySpec("group", lam), step)
        assert np.isclose(new_model.weight(0)[0, 0], shrunk, rtol=1e-12)
        assert np.isclose(new_model.bias(0)[0], b - step * gb, rtol=1e-12)

    def test_original_model_untouched(self):
        data = small_dataset(8)
        model = init_model(3, 2, Architecture(hidden_sizes=(2,)), SeededRng(9))
        before = model.theta.copy()
        one_prox_step(model, data, PenaltySpec("group", 1.0), step=1e-3)
        assert np.array_equal(model.theta, before)


class TestFit:
    def test_huge_lambda_gives_empty_row(self):
        data = small_dataset(10)
        res = fit(data, PenaltySpec("group", 1e8),
                  seeded_model(data, Architecture(hidden_sizes=(4,)), 0),
                  OptimizerConfig())
        assert np.array_equal(res.model.weight(0), np.zeros((4, 6)))
        assert_monotone_trace(res, data)

    def test_linear_noiseless_recovers_coefficient(self):
        # x_t = 0.5 x_{t-1} noise-free: the unpenalized linear fit finds 0.5
        from ngcausal.datasets import VarProcess, simulate_var
        proc = VarProcess(coeffs=np.array([[[0.5]]]), noise_sigma=0.0,
                          truth=np.array([[1.0]]))
        ts = simulate_var(proc, 60, SeededRng(0), burn_in=0,
                          init=np.array([[1.0]]))
        data = build_lagged(ts, 1)[0]
        # least-squares oracle for the same design
        A = np.column_stack([data.inputs[:, 0], np.ones(len(data.targets))])
        coef_ref = np.linalg.lstsq(A, data.targets, rcond=None)[0]
        res = fit(data, PenaltySpec("group", 0.0),
                  seeded_model(data, Architecture(hidden_sizes=()), 0),
                  OptimizerConfig(rel_tol=1e-14, max_iters=100_000))
        assert abs(res.model.weight(0)[0, 0] - coef_ref[0]) < 1e-3
        assert abs(res.model.weight(0)[0, 0] - 0.5) < 1e-3

    def test_deterministic_given_seed(self):
        data = small_dataset(11)
        arch = Architecture(hidden_sizes=(3,))
        opt = OptimizerConfig(max_iters=200)
        a = fit(data, PenaltySpec("group", 2.0), seeded_model(data, arch, 42), opt)
        b = fit(data, PenaltySpec("group", 2.0), seeded_model(data, arch, 42), opt)
        assert np.array_equal(a.model.theta, b.model.theta)
        assert np.array_equal(a.objective_trace, b.objective_trace)
        assert a.iterations_run == b.iterations_run
        assert a.converged == b.converged
        assert a.final_step == b.final_step

    def test_monotone_descent_various_penalties(self):
        data = small_dataset(12)
        for activation in ("tanh", "relu"):
            for kind, lam, hidden in [("group", 0.0, (4,)), ("hierarchical", 0.0, (4,)),
                                      ("group", 1.0, (4,)),
                                      ("hierarchical", 2.0, (3, 2)), ("group", 5.0, ())]:
                arch = Architecture(hidden_sizes=hidden, activation=activation)
                res = fit(data, PenaltySpec(kind, lam), seeded_model(data, arch, 13),
                          OptimizerConfig(max_iters=500))
                assert_monotone_trace(res, data)

    def test_relu_fit_runs_and_descends(self):
        data = small_dataset(17)
        arch = Architecture(hidden_sizes=(4,), activation="relu")
        res = fit(data, PenaltySpec("group", 1.0), seeded_model(data, arch, 3),
                  OptimizerConfig(max_iters=300))
        assert_monotone_trace(res, data)

    def test_step_underflow_raises(self):
        # curvature (about 8e16) so large that every step above MIN_STEP
        # fails the sufficient-decrease test
        X = np.full((4, 1), 1e8)
        y = np.array([1.0, -1.0, 2.0, 0.5])
        data = hand_made(X, y, 1, 1)
        opt = OptimizerConfig(initial_step=1e-2)
        with pytest.raises(OptimizationError, match="below MIN_STEP=1e-12 at iteration 1$"):
            fit(data, PenaltySpec("group", 0.0),
                seeded_model(data, Architecture(hidden_sizes=()), 0), opt)

    def test_overflow_is_an_optimization_error_without_warnings(self):
        # fit raises on every non-finite value, so numpy's overflow warnings
        # stay inside it: a direct call needs no errstate of its own
        ts = VarGenConfig(p=3, K=2, burn_in=50).generate(60, 0)[0] * 1e160
        data = build_lagged(ts, 2)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OptimizationError,
                               match="^non-finite objective at initialization$"):
                fit(data, PenaltySpec("group", 1.0), seeded_model(data, Architecture(), 0),
                    OptimizerConfig())

    def test_lambda_zero_matches_plain_gradient_descent(self):
        # the prox at lambda = 0 is the identity, so the trace must equal an
        # independently coded gradient-descent loop with the same step policy
        data = small_dataset(15)
        arch = Architecture(hidden_sizes=(3,))
        opt = OptimizerConfig(max_iters=60, rel_tol=1e-15)
        model = seeded_model(data, arch, 21)
        res = fit(data, PenaltySpec("group", 0.0), model, opt)

        step = opt.initial_step
        trace = [loss_and_grad(model, data)[0]]
        prev = trace[0]
        g_prev = delta = None
        for _ in range(opt.max_iters):
            val, g = loss_and_grad(model, data)
            if delta is not None:
                y = g - g_prev
                if delta @ y > 0:
                    step = max((delta @ y) / (y @ y), MIN_STEP)
                else:
                    step = opt.initial_step
            g_prev = g
            while True:
                cand = model.theta - step * g
                probe = ComponentMLP(3, 2, arch, theta=cand.copy())
                new_loss = loss_and_grad(probe, data)[0]
                delta = cand - model.theta
                if new_loss <= (val + g @ delta + (delta @ delta) / (2 * step)
                                + SLACK[np.dtype(np.float32)] * max(1.0, abs(val))):
                    break
                step *= 0.5
            model.theta[:] = cand
            trace.append(new_loss)
            if abs(prev - new_loss) < opt.rel_tol * max(1.0, abs(prev)):
                break
            prev = new_loss
        assert np.array_equal(res.objective_trace, trace)

    @pytest.mark.parametrize("kind,lam", [("group", 0.0), ("hierarchical", 0.0),
                                          ("group", 3.0), ("hierarchical", 3.0)])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("hidden", [(5, 3), (5,), ()])
    def test_trace_equals_loop_with_fresh_gradients(self, kind, lam, activation, hidden):
        # fit reuses each accepted candidate's forward pass and builds every
        # trial step in its chain's other slot; a loop that runs
        # loss_and_grad afresh every iteration must give the same bits.
        # hidden () is a linear model on the float64 design; at (5,) the
        # output weight becomes the row scale of the first layer's gradient
        data = small_dataset(17, T=120)
        arch = Architecture(hidden_sizes=hidden, activation=activation, init_scale=1.0)
        spec = PenaltySpec(kind, lam)
        opt = OptimizerConfig(max_iters=150, initial_step=0.05, rel_tol=1e-9)
        res = fit(data, spec, seeded_model(data, arch, 22), opt)

        ref = reference_fit(data, spec, seeded_model(data, arch, 22), opt)
        assert ref.backtracks > 0
        assert np.array_equal(res.objective_trace, ref.trace)
        assert np.array_equal(res.model.theta, ref.model.theta)
        assert res.final_step == ref.step
        assert res.backtracks == ref.backtracks
        assert res.converged == ref.converged

    def test_nonpositive_curvature_restarts_at_initial_step(self, monkeypatch):
        # where s.y <= 0 along the last move (tanh is nonconvex) the first
        # trial step is initial_step, not a Barzilai-Borwein step; fit must
        # try every step the reference loop tries, in the same order
        data = small_dataset(17, T=120)
        arch = Architecture(hidden_sizes=(5, 3), init_scale=1.0)
        spec = PenaltySpec("group", 3.0)
        opt = OptimizerConfig(max_iters=150, initial_step=0.05, rel_tol=1e-9)
        tried = []

        def recording_prox(spec, model, theta, step):
            tried.append(step)
            return apply_prox(spec, model, theta, step)

        monkeypatch.setattr(optim, "apply_prox", recording_prox)
        res = fit(data, spec, seeded_model(data, arch, 22), opt)
        ref = reference_fit(data, spec, seeded_model(data, arch, 22), opt)
        assert tried == [step for _, trials in ref.log for step in trials]
        assert np.array_equal(res.objective_trace, ref.trace)
        assert res.backtracks == ref.backtracks
        restarts = [trials for rule, trials in ref.log if rule == "restart"]
        assert any(len(trials) == 1 for trials in restarts)
        assert any(len(trials) > 1 for trials in restarts)
        assert any(rule == "bb" for rule, _ in ref.log)
        for trials in restarts:
            assert trials[0] == opt.initial_step

    def test_fit_one_iteration_equals_prox_step(self):
        data = small_dataset(16)
        arch = Architecture(hidden_sizes=(3,))
        spec = PenaltySpec("group", 0.5)
        model = seeded_model(data, arch, 5)
        opt = OptimizerConfig(max_iters=1, initial_step=1e-4)
        res = fit(data, spec, model, opt)
        assert res.final_step == 1e-4, "the step backtracked"
        _, g = loss_and_grad(model, data)
        stepped = model.theta - 1e-4 * g
        apply_prox(spec, model, stepped, 1e-4)
        assert np.array_equal(res.model.theta, stepped)


class TestFloat32Slack:
    def test_tight_tolerance_path_does_not_raise(self, monkeypatch):
        # a hidden model's float32 loss carries rounding that a 1e-12
        # relative slack does not absorb: near a converged point every trial
        # step fails the test and the step falls below MIN_STEP.  Series 2
        # of the seed-0 VAR sweep (p=10, T=1000, group, 6 lambdas, width 10)
        # at rel_tol 1e-8 raises there with it, and runs with the float32 slack
        from ngcausal.datasets import child_seed
        from ngcausal.evaluation import lambda_grid, lambda_max_linear
        ts = standardize(VarGenConfig(p=10, K=3).generate(1000, 0)[0])[0]
        specs = [PenaltySpec("group", float(lam))
                 for lam in lambda_grid(lambda_max_linear(ts, 3), 6, 100.0)]
        data = build_lagged(ts, 3)[2]
        assert data.design_for(seeded_model(data, Architecture(), 0)).dtype == np.float32
        opt = OptimizerConfig(rel_tol=1e-8, max_iters=3000)

        def path():
            model = seeded_model(data, Architecture(hidden_sizes=(10,)), child_seed(0, 2))
            return fit_path(data, specs, model, opt)
        assert len(path()) == 6
        monkeypatch.setitem(SLACK, np.dtype(np.float32), 1e-12)
        with pytest.raises(OptimizationError, match="below MIN_STEP"):
            path()


class TestWarmStart:
    def test_converged_restart_takes_one_iteration(self):
        data = small_dataset(20)
        spec = PenaltySpec("group", 3.0)
        first, again = fit_path(data, [spec, spec],
                                seeded_model(data, Architecture(hidden_sizes=(3,)), 1),
                                OptimizerConfig())
        assert first.converged
        assert again.iterations_run == 1
        assert again.converged

    @pytest.mark.parametrize("previous_step, first_step",
                             [(1e-5, 1e-5), (1.0, 1e-4), (None, 1e-4)])
    def test_first_step_is_previous_final_step_capped(self, monkeypatch,
                                                      previous_step, first_step):
        # steps small enough that the first iteration does not backtrack, so
        # a one-iteration fit ends on its first trial step; None starts from
        # the model itself, at initial_step
        data = small_dataset(23)
        spec = PenaltySpec("group", 1.0)
        opt = OptimizerConfig(initial_step=1e-4, max_iters=30)
        one = dataclasses.replace(opt, max_iters=1)
        model = seeded_model(data, Architecture(hidden_sizes=(3,)), 1)
        if previous_step is None:
            first = fit(data, spec, model, opt)
            assert fit(data, spec, first.model, one).final_step == first_step
            return
        patch_path_fits(monkeypatch, [opt, one], handed_step=previous_step)
        assert fit_path(data, [spec, spec], model, opt)[1].final_step == first_step

    def test_matches_cold_start_objective(self):
        # run both to tight convergence on a convex (linear) instance, where
        # the optimum is unique and the comparison is well posed
        data = small_dataset(21)
        opt = OptimizerConfig(rel_tol=1e-12, max_iters=100_000)
        arch = Architecture(hidden_sizes=())
        _, lo_warm = fit_path(data, [PenaltySpec("group", 4.0), PenaltySpec("group", 2.0)],
                              seeded_model(data, arch, 2), opt)
        lo_cold = fit(data, PenaltySpec("group", 2.0), seeded_model(data, arch, 2), opt)
        a, b = lo_warm.objective_trace[-1], lo_cold.objective_trace[-1]
        assert abs(a - b) / max(1.0, abs(b)) < 1e-4

    @pytest.mark.parametrize("kind,lam", [("group", 0.0), ("hierarchical", 0.0),
                                          ("group", 1.5), ("hierarchical", 1.5)])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("hidden", [(5, 3), (5,), ()])
    def test_handed_over_forward_pass_changes_no_bit(self, monkeypatch, kind, lam,
                                                     activation, hidden):
        # the warm start takes the previous fit's last forward pass; the
        # reference loop from the same model at the same first step runs
        # every pass afresh, and restarts at opt.initial_step, not at the
        # first step, after a move with s.y <= 0.  An accepted step swaps
        # the chain's two slots, and the middle fit takes an odd number of
        # steps, so the two warm fits start from different slots
        data = small_dataset(24, T=120)
        arch = Architecture(hidden_sizes=hidden, activation=activation, init_scale=1.0)
        opt = OptimizerConfig()
        opts = [OptimizerConfig(max_iters=40), OptimizerConfig(max_iters=7, rel_tol=1e-15), opt]
        patch_path_fits(monkeypatch, opts)
        specs = [PenaltySpec(kind, scale * lam) for scale in (4, 2, 1)]
        path = fit_path(data, specs, seeded_model(data, arch, 3), opt)
        assert path[1].iterations_run == 7
        for before, warm, spec, warm_opt in zip(path, path[1:], specs[1:], opts[1:]):
            ref = reference_fit(data, spec, before.model, warm_opt,
                                step=min(before.final_step, opt.initial_step))
            assert np.array_equal(warm.objective_trace, ref.trace)
            assert np.array_equal(warm.model.theta, ref.model.theta)
            assert warm.final_step == ref.step
            assert warm.iterations_run == len(ref.log)
            assert warm.backtracks == ref.backtracks

    def test_fit_result_start_rejected(self):
        # a warm start is fit_path's: fit takes only a model
        data = small_dataset(22)
        res = fit(data, PenaltySpec("group", 1.0),
                  seeded_model(data, Architecture(hidden_sizes=(2,)), 0),
                  OptimizerConfig(max_iters=20))
        with pytest.raises(TypeError, match="^start must be a ComponentMLP, got FitResult$"):
            fit(data, PenaltySpec("group", 1.0), res, OptimizerConfig())

    def _mismatch(self, p, K):
        data = small_dataset(22)
        res = fit(data, PenaltySpec("group", 1.0),
                  seeded_model(data, Architecture(hidden_sizes=(2,)), 0),
                  OptimizerConfig(max_iters=20))
        other = build_lagged(standardize(
            VarGenConfig(p=p, K=K, burn_in=20).generate(40, 0)[0])[0], K)[0]
        with pytest.raises(ValueError, match=f"model expects p=3, K=2 but data has "
                                             f"p={p}, K={K}"):
            fit(other, PenaltySpec("group", 1.0), res.model, OptimizerConfig())

    def test_architecture_mismatch_rejected(self):
        self._mismatch(p=4, K=2)

    def test_lag_order_mismatch_rejected(self):
        self._mismatch(p=3, K=3)

    def test_sparsity_monotone_on_linear_path(self):
        # convex case: active group count never grows as lambda rises
        ts = standardize(VarGenConfig(p=5, K=2, burn_in=100).generate(300, 3)[0])[0]
        data = build_lagged(ts, 2)[0]
        from ngcausal.evaluation import lambda_max_linear, lambda_grid
        lams = lambda_grid(lambda_max_linear(ts, 2), 8, 50.0)
        path = fit_path(data, [PenaltySpec("group", float(lam)) for lam in lams],
                        seeded_model(data, Architecture(hidden_sizes=()), 0),
                        OptimizerConfig())
        counts = [int((kernels.group_norms(res.model.weight(0), 5, 2) > 0).sum())
                  for res in path]
        # lams descend, so counts must be non-decreasing along the sweep
        assert all(b >= a for a, b in zip(counts, counts[1:]))


def chain_arrays(chain):
    """Every array the two slots of a chain hold: each model's theta and
    the kernels' buffers of each."""
    for model, bufs in chain.slots:
        yield model.theta
        yield from (*bufs.weights, *bufs.outputs, bufs.output, *bufs.backward)


class TestSlots:
    def record(self, monkeypatch):
        """The chains fit_path makes, and per fit its result with a copy of
        its theta taken as it was returned."""
        chains, returned = [], []
        real_chain, real_fit = optim._Chain, optim.fit

        class Recorded(real_chain):
            def __init__(self, *args):
                super().__init__(*args)
                chains.append(self)

        def recording_fit(*args):
            res = real_fit(*args)
            returned.append((res, res.model.theta.copy()))
            return res
        monkeypatch.setattr(optim, "_Chain", Recorded)
        monkeypatch.setattr(optim, "fit", recording_fit)
        return chains, returned

    def test_path_results_share_no_memory_with_the_chain(self, monkeypatch):
        # every later fit rewrites both slots; a returned model is its own copy
        chains, returned = self.record(monkeypatch)
        data = small_dataset(25, T=120)
        specs = [PenaltySpec("hierarchical", lam) for lam in (4.0, 2.0, 1.0, 0.5)]
        path = fit_path(data, specs, seeded_model(data, Architecture(hidden_sizes=(5,)), 4),
                        OptimizerConfig())
        (chain,) = chains
        assert all(res is fitted for (res, _), fitted in zip(returned, path))
        assert not np.array_equal(path[0].model.theta, path[-1].model.theta)
        for res, theta in returned:
            assert not any(np.shares_memory(res.model.theta, a) for a in chain_arrays(chain))
            assert np.array_equal(res.model.theta, theta)

    def test_sweep_models_share_no_memory_with_the_chains(self, monkeypatch):
        from ngcausal.evaluation import sweep_path
        chains, returned = self.record(monkeypatch)
        ts = standardize(VarGenConfig(p=3, K=2, burn_in=50).generate(120, 26)[0])[0]
        sw = sweep_path(ts, 2, "group", [2.0, 1.0], Architecture(hidden_sizes=(5,)),
                        OptimizerConfig(), 0)
        assert len(chains) == len(sw.models) == 3
        arrays = [a for chain in chains for a in chain_arrays(chain)]
        for model, (_, theta) in zip(sw.models, returned[1::2]):
            assert not any(np.shares_memory(model.theta, a) for a in arrays)
            assert np.array_equal(model.theta, theta)

    @pytest.mark.parametrize("made_by", ["build_lagged", "hand"])
    def test_warm_fit_allocates_no_array_of_the_data_size(self, made_by):
        # a trial step is built in the chain's free slot, and the chain holds
        # the float32 design: a warm fit of width 10 on N = 3,997 float32
        # rows peaks below one (10, N) float32 array, where a fresh forward
        # pass makes several, on a writeable design as on a read-only one
        import tracemalloc
        data = build_lagged(standardize(VarGenConfig(p=10, K=3).generate(4000, 0)[0])[0], 3)[0]
        if made_by == "hand":
            data = hand_made(data.inputs, data.targets, data.p, data.K)
            assert data.design.flags.writeable
        model = seeded_model(data, Architecture(hidden_sizes=(10,)), 0)
        N = data.design.shape[0]
        assert N == 3997 and data.design_for(model).dtype == np.float32
        chain = optim._Chain(model, data)
        opt = OptimizerConfig(max_iters=30)
        fit(data, PenaltySpec("hierarchical", 400.0), chain, opt)
        tracemalloc.start()
        try:
            res = fit(data, PenaltySpec("hierarchical", 200.0), chain, opt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.iterations_run > 1 and res.backtracks > 0
        assert peak < 10 * N * np.dtype(np.float32).itemsize


def exact_lasso(X, y, lam):
    """Exact minimizer (w, b) of ||X w + b - y||^2 + lam * ||w||_1 for a few
    columns, without ngcausal: centring removes the intercept, then each sign
    pattern of w fixes the stationarity system 2 Xc_A' (Xc_A w_A - yc) =
    -lam sign(w_A) on its support A; the pattern whose solution has those
    signs and leaves |2 Xc_j' r| <= lam off the support satisfies KKT."""
    xm, ym = X.mean(axis=0), y.mean()
    Xc, yc = X - xm, y - ym
    best = None
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=X.shape[1]):
        signs = np.array(signs)
        act = signs != 0
        w = np.zeros(X.shape[1])
        if act.any():
            A = Xc[:, act]
            w[act] = np.linalg.solve(2.0 * A.T @ A, 2.0 * A.T @ yc - lam * signs[act])
        corr = 2.0 * Xc.T @ (Xc @ w - yc)
        if (np.all(np.sign(w[act]) == signs[act])
                and np.all(np.abs(corr[~act]) <= lam * (1 + 1e-9))):
            obj = float((Xc @ w - yc) @ (Xc @ w - yc)) + lam * np.abs(w).sum()
            if best is None or obj < best[0]:
                best = (obj, w)
    assert best is not None
    w = best[1]
    return w, ym - xm @ w


class TestKktLinearCase:
    def test_group_lasso_optimality_conditions(self):
        # K=1, no hidden layers: compare against an exact independent solve,
        # then check the stationarity structure of both
        ts = standardize(VarGenConfig(p=4, K=1, burn_in=100).generate(250, 5)[0])[0]
        data = build_lagged(ts, 1)[0]
        X, y = data.inputs, data.targets
        lam = 0.25 * 2.0 * max(np.linalg.norm(X[:, [j]].T @ (y - y.mean()))
                               for j in range(4))

        res = fit(data, PenaltySpec("group", lam),
                  seeded_model(data, Architecture(hidden_sizes=()), 0),
                  OptimizerConfig(rel_tol=1e-14, max_iters=200_000))

        w, b = exact_lasso(X, y, lam)
        ref_obj = float((X @ w + b - y) @ (X @ w + b - y)) + lam * np.abs(w).sum()

        assert abs(res.objective_trace[-1] - ref_obj) <= 1e-6 * max(1.0, ref_obj)
        fitted_w = res.model.weight(0)[0]
        assert np.array_equal(fitted_w != 0, w != 0)

        # KKT: inactive groups have |correlation| <= lam; active ones equal lam
        r = X @ fitted_w + res.model.bias(0)[0] - y
        corr = 2.0 * X.T @ r
        for j in range(4):
            if fitted_w[j] == 0:
                assert abs(corr[j]) <= lam * (1 + 1e-3)
            else:
                assert abs(abs(corr[j]) - lam) <= 1e-3 * lam

    def test_group_lasso_kkt_with_two_lag_groups(self):
        # K=2: each series' group holds two lags, so stationarity is a vector
        # condition.  Inactive groups need ||2 X_g' r|| <= lam; active ones
        # need 2 X_g' r = -lam w_g / ||w_g||, met here within 1.9e-7 * lam
        p, K = 4, 2
        ts = standardize(VarGenConfig(p=p, K=K, burn_in=100).generate(250, 1)[0])[0]
        data = build_lagged(ts, K)[0]
        X, y = data.inputs, data.targets
        lam = 0.25 * 2.0 * max(np.linalg.norm(X[:, j::p].T @ (y - y.mean()))
                               for j in range(p))

        res = fit(data, PenaltySpec("group", lam),
                  seeded_model(data, Architecture(hidden_sizes=()), 0),
                  OptimizerConfig(rel_tol=1e-14, max_iters=200_000))
        assert res.converged

        w, b = res.model.weight(0)[0], res.model.bias(0)[0]
        corr = 2.0 * X.T @ (X @ w + b - y)
        active = [j for j in range(p) if np.any(w[j::p] != 0)]
        assert 0 < len(active) < p
        for j in range(p):
            w_g, c_g = w[j::p], corr[j::p]
            if j in active:
                assert np.all(w_g != 0)
                assert np.linalg.norm(c_g + lam * w_g / np.linalg.norm(w_g)) <= 1e-5 * lam
            else:
                assert np.linalg.norm(c_g) <= lam * (1 + 1e-9)


class TestOptimizerConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            OptimizerConfig(initial_step=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(initial_step=MIN_STEP)
        with pytest.raises(ValueError):
            OptimizerConfig(rel_tol=0.0)

    @pytest.mark.parametrize("kwargs,message", [
        # checked at construction: a fit with an infinite step never returns
        ({"initial_step": float("inf")}, "initial_step must be finite and > 1e-12, got inf"),
        ({"rel_tol": float("nan")}, "rel_tol must be finite and > 0, got nan"),
        ({"rel_tol": float("inf")}, "rel_tol must be finite and > 0, got inf"),
        ({"max_iters": 0}, "max_iters must be >= 1, got 0"),
        ({"max_iters": -3}, "max_iters must be >= 1, got -3"),
        # a float would fail the first fit with a TypeError from range
        ({"max_iters": 2.5}, "max_iters must be an integer, got 2.5"),
        ({"max_iters": True}, "max_iters must be an integer, got True")])
    def test_rejects_settings_that_hang_or_skip_the_fit(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            OptimizerConfig(**kwargs)

    def test_fit_result_fields(self):
        data = small_dataset(30)
        res = fit(data, PenaltySpec("group", 0.0),
                  seeded_model(data, Architecture(hidden_sizes=()), 0),
                  OptimizerConfig(max_iters=10))
        assert isinstance(res, FitResult)
        assert res.objective_trace.shape == (res.iterations_run + 1,)
        assert res.final_step > 0
        assert isinstance(res.backtracks, int) and res.backtracks >= 0
