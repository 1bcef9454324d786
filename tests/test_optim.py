import dataclasses
import itertools

import numpy as np
import pytest

from ngcausal import _kernels as kernels
from ngcausal.datasets import VarGenConfig, standardize
from ngcausal.model import (Architecture, ComponentMLP, LaggedDataset,
                            build_lagged, init_model, loss_and_grad)
from ngcausal.numerics import SeededRng
from ngcausal.optim import FitResult, OptimizationError, OptimizerConfig, fit
from ngcausal.penalties import PenaltySpec, apply_prox, penalty_value


def assert_monotone_trace(trace):
    trace = np.asarray(trace)
    slack = 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))
    assert np.all(np.diff(trace) <= slack), "objective trace increased"


def small_dataset(seed, p=3, K=2, T=60):
    ts = VarGenConfig(p=p, K=K, burn_in=50).generate(T, seed)[0]
    return build_lagged(standardize(ts)[0], K)[0]


def seeded_model(data, arch, seed):
    """The seeded initial model of data's series, as sweep_path builds it."""
    return init_model(data.p, data.K, arch, SeededRng(seed))


def reference_fit(data, spec, arch, opt, seed):
    """Proximal gradient with a short Barzilai-Borwein start and backtracking,
    running loss_and_grad afresh every iteration.

    Returns (trace, model, final step, log); log holds one (rule, backtracks,
    accepted step) per iteration, rule being None on the first iteration,
    "bb" when s.y > 0 set the trial step and "kept" when it did not.
    """
    model = seeded_model(data, arch, seed)
    step = opt.initial_step
    obj = loss_and_grad(model, data)[0] + penalty_value(spec, model)
    trace = [obj]
    log = []
    g_prev = s = None
    for _ in range(opt.max_iters):
        val, g = loss_and_grad(model, data)
        rule = None
        if s is not None:
            y = g - g_prev
            sy = s @ y
            rule = "kept"
            if sy > 0:
                step = max(sy / (y @ y), opt.min_step)
                rule = "bb"
        g_prev = g
        backtracks = 0
        while True:
            probe = model.copy()
            probe.theta[:] = model.theta - step * g
            apply_prox(spec, probe, probe.theta, step)
            new_loss = loss_and_grad(probe, data)[0]
            s = probe.theta - model.theta
            if new_loss <= (val + g @ s + (s @ s) / (2.0 * step)
                            + 1e-12 * max(1.0, abs(val))):
                break
            step *= 0.5
            backtracks += 1
        model = probe
        new_obj = new_loss + penalty_value(spec, model)
        trace.append(new_obj)
        log.append((rule, backtracks, step))
        if abs(obj - new_obj) < opt.rel_tol * max(1.0, abs(obj)):
            break
        obj = new_obj
    return np.asarray(trace), model, step, log


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
        data = LaggedDataset(inputs=np.ones((4, 2)), targets=np.zeros(4), p=2, K=1)
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
        data.targets = np.zeros(data.n_rows)    # build_lagged's targets are read-only
        model = ComponentMLP(3, 2, Architecture(hidden_sizes=(3,)))
        new_model, _ = one_prox_step(model, data, PenaltySpec("group", 0.0), step=1e-3)
        assert np.array_equal(new_model.theta, model.theta)

    def test_scalar_soft_threshold_hand_computation(self):
        # p=1, K=1, linear: one weight w and bias b
        X = np.array([[1.0], [2.0], [-1.0]])
        y = np.array([0.5, 1.5, -0.2])
        data = LaggedDataset(inputs=X, targets=y, p=1, K=1)
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
        assert_monotone_trace(res.objective_trace)

    def test_linear_noiseless_recovers_coefficient(self):
        # x_t = 0.5 x_{t-1} noise-free: the unpenalized linear fit finds 0.5
        from ngcausal.datasets import VarProcess, simulate_var
        proc = VarProcess(coeffs=np.array([[[0.5]]]), noise_sigma=0.0,
                          truth=np.array([[1.0]]))
        ts = simulate_var(proc, 60, SeededRng(0), burn_in=0,
                          init=np.array([[1.0]]))
        data = build_lagged(ts, 1)[0]
        # least-squares oracle for the same design
        A = np.column_stack([data.inputs[:, 0], np.ones(data.n_rows)])
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
                assert_monotone_trace(res.objective_trace)

    def test_relu_fit_runs_and_descends(self):
        data = small_dataset(17)
        arch = Architecture(hidden_sizes=(4,), activation="relu")
        res = fit(data, PenaltySpec("group", 1.0), seeded_model(data, arch, 3),
                  OptimizerConfig(max_iters=300))
        assert_monotone_trace(res.objective_trace)

    def test_step_underflow_raises(self):
        # curvature so large that the accepted step sits below min_step
        X = np.full((4, 1), 100.0)
        y = np.array([1.0, -1.0, 2.0, 0.5])
        data = LaggedDataset(inputs=X, targets=y, p=1, K=1)
        opt = OptimizerConfig(initial_step=1e-2, min_step=9e-3)
        with pytest.raises(OptimizationError, match="min_step"):
            fit(data, PenaltySpec("group", 0.0),
                seeded_model(data, Architecture(hidden_sizes=()), 0), opt)

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
                    step = max((delta @ y) / (y @ y), opt.min_step)
            g_prev = g
            while True:
                cand = model.theta - step * g
                probe = ComponentMLP(3, 2, arch, theta=cand.copy())
                new_loss = loss_and_grad(probe, data)[0]
                delta = cand - model.theta
                if new_loss <= (val + g @ delta + (delta @ delta) / (2 * step)
                                + 1e-12 * max(1.0, abs(val))):
                    break
                step *= 0.5
            model.theta[:] = cand
            trace.append(new_loss)
            if abs(prev - new_loss) < opt.rel_tol * max(1.0, abs(prev)):
                break
            prev = new_loss
        n = min(len(trace), len(res.objective_trace))
        assert np.allclose(res.objective_trace[:n], trace[:n], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind,lam", [("group", 0.0), ("hierarchical", 0.0),
                                          ("group", 3.0), ("hierarchical", 3.0)])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_trace_equals_loop_with_fresh_gradients(self, kind, lam, activation):
        # fit reuses each accepted candidate's forward pass; a loop that runs
        # loss_and_grad afresh every iteration must give the same bits
        data = small_dataset(17, T=120)
        arch = Architecture(hidden_sizes=(5, 3), activation=activation, init_scale=1.0)
        spec = PenaltySpec(kind, lam)
        opt = OptimizerConfig(max_iters=150, initial_step=0.05, rel_tol=1e-9)
        res = fit(data, spec, seeded_model(data, arch, 22), opt)

        trace, model, step, log = reference_fit(data, spec, arch, opt, seed=22)
        assert sum(backtracks for _, backtracks, _ in log) > 0
        assert np.array_equal(res.objective_trace, trace)
        assert np.array_equal(res.model.theta, model.theta)
        assert res.final_step == step

    def test_nonpositive_curvature_keeps_previous_step(self):
        # where s.y <= 0 along the last move (tanh is nonconvex) the trial
        # step is the last accepted one, not a Barzilai-Borwein step; fit is
        # held to this reference loop bit for bit, so its steps are the log's
        data = small_dataset(17, T=120)
        arch = Architecture(hidden_sizes=(5, 3), init_scale=1.0)
        spec = PenaltySpec("group", 3.0)
        opt = OptimizerConfig(max_iters=150, initial_step=0.05, rel_tol=1e-9)
        res = fit(data, spec, seeded_model(data, arch, 22), opt)
        trace, model, step, log = reference_fit(data, spec, arch, opt, seed=22)
        assert np.array_equal(res.objective_trace, trace)
        assert np.array_equal(res.model.theta, model.theta)
        assert res.final_step == step
        kept = [k for k, (rule, backtracks, _) in enumerate(log)
                if rule == "kept" and backtracks == 0]
        assert len(kept) > 0
        assert any(rule == "bb" for rule, _, _ in log)
        for k in kept:
            assert log[k][2] == log[k - 1][2]

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


class TestWarmStart:
    def test_converged_restart_takes_one_iteration(self):
        data = small_dataset(20)
        spec = PenaltySpec("group", 3.0)
        opt = OptimizerConfig()
        first = fit(data, spec, seeded_model(data, Architecture(hidden_sizes=(3,)), 1), opt)
        assert first.converged
        again = fit(data, spec, first, opt)
        assert again.iterations_run == 1
        assert again.converged

    @pytest.mark.parametrize("previous_step, first_step",
                             [(1e-5, 1e-5), (1.0, 1e-4), (1e-20, 1e-12), (None, 1e-4)])
    def test_first_step_is_previous_final_step_capped(self, previous_step, first_step):
        # steps small enough that the first iteration does not backtrack, so
        # a one-iteration fit ends on its first trial step; None starts from
        # the model itself, at initial_step
        data = small_dataset(23)
        spec = PenaltySpec("group", 1.0)
        opt = OptimizerConfig(initial_step=1e-4, max_iters=30)
        first = fit(data, spec, seeded_model(data, Architecture(hidden_sizes=(3,)), 1), opt)
        start = (first.model if previous_step is None
                 else dataclasses.replace(first, final_step=previous_step))
        one = dataclasses.replace(opt, max_iters=1)
        assert fit(data, spec, start, one).final_step == first_step

    def test_matches_cold_start_objective(self):
        # run both to tight convergence on a convex (linear) instance, where
        # the optimum is unique and the comparison is well posed
        data = small_dataset(21)
        opt = OptimizerConfig(rel_tol=1e-12, max_iters=100_000)
        arch = Architecture(hidden_sizes=())
        hi = fit(data, PenaltySpec("group", 4.0), seeded_model(data, arch, 2), opt)
        lo_warm = fit(data, PenaltySpec("group", 2.0), hi, opt)
        lo_cold = fit(data, PenaltySpec("group", 2.0), seeded_model(data, arch, 2), opt)
        a, b = lo_warm.objective_trace[-1], lo_cold.objective_trace[-1]
        assert abs(a - b) / max(1.0, abs(b)) < 1e-4

    @pytest.mark.parametrize("kind,lam", [("group", 0.0), ("hierarchical", 0.0),
                                          ("group", 1.5), ("hierarchical", 1.5)])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_handed_over_forward_pass_changes_no_bit(self, kind, lam, activation):
        # the warm start takes the previous fit's last forward pass; a fit
        # from the same model at the same first step runs that pass afresh
        data = small_dataset(24, T=120)
        arch = Architecture(hidden_sizes=(5, 3), activation=activation, init_scale=1.0)
        first = fit(data, PenaltySpec(kind, 2 * lam), seeded_model(data, arch, 3),
                    OptimizerConfig(max_iters=40))
        spec, opt = PenaltySpec(kind, lam), OptimizerConfig()
        warm = fit(data, spec, first, opt)
        same_step = dataclasses.replace(
            opt, initial_step=min(first.final_step, opt.initial_step))
        cold = fit(data, spec, first.model, same_step)
        assert np.array_equal(warm.objective_trace, cold.objective_trace)
        assert np.array_equal(warm.model.theta, cold.model.theta)
        assert warm.final_step == cold.final_step
        assert warm.iterations_run == cold.iterations_run

    def test_forward_pass_of_other_data_or_model_rejected(self):
        ts = standardize(VarGenConfig(p=3, K=2, burn_in=50).generate(120, 24)[0])[0]
        data, other_series = build_lagged(ts, 2)[:2]
        equal_copy = build_lagged(ts, 2)[0]
        res = fit(data, PenaltySpec("group", 1.0),
                  seeded_model(data, Architecture(hidden_sizes=(2,)), 0),
                  OptimizerConfig(max_iters=20))
        for other in (other_series, equal_copy, small_dataset(24, T=100)):
            with pytest.raises(ValueError, match="start is a fit on another dataset"):
                fit(other, PenaltySpec("group", 1.0), res, OptimizerConfig())
        res.model.theta[0] += 1.0      # changed in place after the fit
        with pytest.raises(ValueError, match="start's model was changed since its fit"):
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
        opt = OptimizerConfig()
        counts = []
        start = seeded_model(data, Architecture(hidden_sizes=()), 0)
        for lam in lams:
            start = fit(data, PenaltySpec("group", float(lam)), start, opt)
            w1 = start.model.weight(0)
            counts.append(int((kernels.group_norms(w1, 5, 2) > 0).sum()))
        # lams descend, so counts must be non-decreasing along the sweep
        assert all(b >= a for a, b in zip(counts, counts[1:]))


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
            OptimizerConfig(min_step=1.0, initial_step=0.5)
        with pytest.raises(ValueError):
            OptimizerConfig(rel_tol=0.0)

    @pytest.mark.parametrize("kwargs,message", [
        # checked at construction: a fit with an infinite step never returns
        ({"initial_step": float("inf")}, "initial_step must be finite and > 0, got inf"),
        ({"rel_tol": float("nan")}, "rel_tol must be finite and > 0, got nan"),
        ({"rel_tol": float("inf")}, "rel_tol must be finite and > 0, got inf"),
        ({"max_iters": 0}, "max_iters must be >= 1, got 0"),
        ({"max_iters": -3}, "max_iters must be >= 1, got -3")])
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
