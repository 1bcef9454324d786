import numpy as np
import pytest
from scipy import stats

from ngcausal.datasets import (LorenzGenConfig, SeededRng, SimulationError,
                               VarGenConfig, child_seed, companion_matrix,
                               lorenz_derivative, lorenz_truth, make_sparse_var,
                               simulate_lorenz, simulate_var, spectral_radius,
                               standardize)


def power_iteration_radius(M, iters=600, block=8, seed=0):
    """Independent spectral-radius estimate: block power iteration + Ritz values.

    Orthonormalized subspace iteration; the dominant eigenvalue magnitude is
    read off the projected small matrix, which handles complex leading pairs.
    """
    gen = np.random.default_rng(seed)
    n = M.shape[0]
    Q = np.linalg.qr(gen.normal(size=(n, min(block, n))))[0]
    for _ in range(iters):
        Q = np.linalg.qr(M @ Q)[0]
    H = Q.T @ M @ Q
    return float(np.max(np.abs(np.linalg.eigvals(H))))


class TestSeededRng:
    def test_identical_seeds_identical_streams(self):
        a = SeededRng(123).normal(size=100)
        b = SeededRng(123).normal(size=100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SeededRng(1).normal(size=16)
        b = SeededRng(2).normal(size=16)
        assert not np.array_equal(a, b)

    def test_child_streams_reproducible_and_distinct(self):
        # the per-series streams of sweep_path: SeededRng(child_seed(seed, i))
        c0 = SeededRng(child_seed(9, 0)).normal(size=8)
        c1 = SeededRng(child_seed(9, 1)).normal(size=8)
        again = SeededRng(child_seed(9, 0)).normal(size=8)
        parent = SeededRng(9).normal(size=8)
        assert np.array_equal(c0, again)
        assert not np.array_equal(c0, c1)
        assert not np.array_equal(c0, parent)

    def test_child_seed_deterministic(self):
        assert child_seed(42, 3) == child_seed(42, 3)
        assert child_seed(42, 3) != child_seed(42, 4)

    def test_is_the_numpy_pcg64_generator_of_its_seed(self):
        rng = SeededRng(7)
        assert isinstance(rng, np.random.Generator)
        plain = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
        assert np.array_equal(rng.normal(size=8), plain.normal(size=8))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            SeededRng(-1)


class TestMakeSparseVar:
    def test_edge_prob_tiny_gives_identity_truth(self):
        proc = make_sparse_var(SeededRng(0), p=6, K=2, edge_prob=1e-12)
        assert np.array_equal(proc.truth, np.eye(6))

    def test_offdiagonal_density_binomial_bounds(self):
        # 99% two-sided binomial bounds on the number of active edges among
        # the p*(p-1) off-diagonal slots
        p, edge_prob = 10, 0.2
        proc = make_sparse_var(SeededRng(3), p=p, K=3, edge_prob=edge_prob)
        assert np.all(np.diag(proc.truth) == 1)
        off = proc.truth[~np.eye(p, dtype=bool)]
        count = int(off.sum())
        n = p * (p - 1)
        lo = stats.binom.ppf(0.005, n, edge_prob)
        hi = stats.binom.ppf(0.995, n, edge_prob)
        assert lo <= count <= hi

    @pytest.mark.parametrize("seed,target", [(0, 0.95), (1, 0.8), (2, 0.5)])
    def test_companion_radius_hits_target(self, seed, target):
        proc = make_sparse_var(SeededRng(seed), p=8, K=3, target_radius=target)
        # recompute the companion form independently of the library helper
        K, p = proc.K, proc.p
        C = np.zeros((p * K, p * K))
        for k in range(K):
            C[:p, k * p:(k + 1) * p] = proc.coeffs[k]
        if K > 1:
            C[p:, :p * (K - 1)] = np.eye(p * (K - 1))
        rho = np.max(np.abs(np.linalg.eigvals(C)))
        assert abs(rho - target) <= 1e-8
        # iterative oracle agrees (looser: subspace iteration accuracy)
        assert abs(power_iteration_radius(C) - target) <= 1e-6

    @pytest.mark.parametrize("p,K", [(10, 3), (8, 3), (6, 2), (7, 4)])
    def test_radius_within_eigvals_accuracy_of_target(self, p, K):
        # The scale is bisected to adjacent floats around the target as
        # spectral_radius computes it, but eigvals of these companion forms
        # (equal coefficients at every lag, near-repeated eigenvalues) is
        # accurate to ~1e-5 only.  Worst miss over these 80 systems: 2.4e-5
        # (p=10, K=3, seed 15).
        for seed in range(20):
            proc = make_sparse_var(SeededRng(seed), p=p, K=K)
            rho = spectral_radius(companion_matrix(proc.coeffs))
            assert abs(rho - 0.95) <= 5e-5, seed

    def test_truth_consistent_with_coefficients(self):
        proc = make_sparse_var(SeededRng(11), p=7, K=4, edge_prob=0.3)
        for i in range(7):
            for j in range(7):
                has_coeff = any(proc.coeffs[k][i, j] != 0 for k in range(4))
                assert (proc.truth[i, j] == 1) == has_coeff

    def test_bad_parameters_rejected(self):
        rng = SeededRng(0)
        with pytest.raises(ValueError):
            make_sparse_var(rng, 4, 2, edge_prob=0.0)
        with pytest.raises(ValueError):
            make_sparse_var(rng, 4, 2, target_radius=1.0)

    @pytest.mark.parametrize("K,kwargs,message", [
        (0, {}, "K must be >= 1, got 0"),
        (2.5, {}, "K must be an integer, got 2.5"),
        (True, {}, "K must be an integer, got True"),
        (2, {"noise_sigma": float("nan")}, "noise_sigma must be finite and > 0, got nan"),
        (2, {"noise_sigma": float("inf")}, "noise_sigma must be finite and > 0, got inf")])
    def test_out_of_range_setting_named(self, K, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_sparse_var(SeededRng(0), 4, K, **kwargs)


class TestSimulateVar:
    def test_zero_noise_zero_history_all_zero(self):
        proc = make_sparse_var(SeededRng(0), p=4, K=2)
        proc.noise_sigma = 0.0
        ts = simulate_var(proc, 50, SeededRng(1), burn_in=0)
        assert np.array_equal(ts, np.zeros((50, 4)))

    def test_scalar_halving_hand_iteration(self):
        # x_{t+1} = 0.5 x_t from x_0 = 1 gives 1, 0.5, 0.25, ...
        proc = VarProcessFactory.scalar(0.5)
        ts = simulate_var(proc, 5, SeededRng(0), burn_in=0, init=np.array([[1.0]]))
        assert np.allclose(ts[:, 0], [1.0, 0.5, 0.25, 0.125, 0.0625], rtol=0, atol=0)

    def test_stable_process_bounded_variance(self):
        proc = make_sparse_var(SeededRng(5), p=6, K=2, target_radius=0.9)
        ts = simulate_var(proc, 10_000, SeededRng(6))
        assert np.all(np.isfinite(ts))
        assert np.all(ts.var(axis=0) < 1e3)

    def test_deterministic_in_seed(self):
        proc = make_sparse_var(SeededRng(2), p=5, K=2)
        a = simulate_var(proc, 100, SeededRng(4))
        b = simulate_var(proc, 100, SeededRng(4))
        assert np.array_equal(a, b)

    def test_unstable_process_overflows(self):
        from ngcausal.datasets import VarProcess
        proc = VarProcess(coeffs=np.array([[[2.0]]]), noise_sigma=1.0,
                          truth=np.array([[1.0]]))
        with pytest.raises(SimulationError):
            simulate_var(proc, 300, SeededRng(0), burn_in=0)

    @pytest.mark.parametrize("coeff,noise_sigma", [(float("nan"), 1.0),
                                                   (0.5, float("nan"))])
    def test_non_finite_trajectory_stops(self, coeff, noise_sigma):
        from ngcausal.datasets import VarProcess
        proc = VarProcess(coeffs=np.array([[[coeff]]]), noise_sigma=noise_sigma,
                          truth=np.array([[1.0]]))
        with pytest.raises(SimulationError, match="non-finite at step 1$"):
            simulate_var(proc, 50, SeededRng(0), burn_in=0)

    def test_negative_burn_in_rejected(self):
        # x[burn_in:] would keep |burn_in| rows from the end
        proc = make_sparse_var(SeededRng(0), p=3, K=1)
        with pytest.raises(ValueError, match="^burn_in must be >= 0, got -10$"):
            simulate_var(proc, 50, SeededRng(1), burn_in=-10)

    def test_no_row_after_the_history_rejected(self):
        proc = make_sparse_var(SeededRng(0), p=3, K=3)
        with pytest.raises(ValueError, match="must exceed the lag order 3"):
            simulate_var(proc, 1, SeededRng(1), burn_in=2)


class VarProcessFactory:
    @staticmethod
    def scalar(a):
        from ngcausal.datasets import VarProcess
        return VarProcess(coeffs=np.array([[[a]]]), noise_sigma=0.0,
                          truth=np.array([[1.0]]))


class TestLorenzDerivative:
    def test_equilibrium_is_fixed_point(self):
        F = 5.0
        d = lorenz_derivative(F * np.ones(7), F)
        assert np.allclose(d, 0.0, atol=1e-12)

    def test_hand_case_p5(self):
        # per-coordinate hand evaluation of the ring drift
        d = lorenz_derivative(np.array([1.0, 0, 0, 0, 0]), 5.0)
        assert np.array_equal(d, [4.0, 5.0, 5.0, 5.0, 5.0])

    def test_zero_state(self):
        assert np.array_equal(lorenz_derivative(np.zeros(6), 5.0), 5.0 * np.ones(6))

    def test_small_p_rejected(self):
        with pytest.raises(ValueError):
            lorenz_derivative(np.zeros(3), 5.0)


class TestSimulateLorenz:
    def test_equilibrium_init_stays_constant(self):
        cfg = LorenzGenConfig(p=6, F=5.0, noise_sigma=0.0, burn_in=0)
        ts, _ = simulate_lorenz(cfg, 20, SeededRng(0), init=5.0 * np.ones(6))
        assert np.allclose(ts, 5.0, atol=1e-12)

    def test_truth_row_pattern_p10(self):
        truth = lorenz_truth(10)
        assert np.array_equal(np.flatnonzero(truth[0]), [0, 1, 8, 9])
        ones = truth.sum(axis=1)
        assert np.all(ones == 4)

    def test_truth_is_circulant(self):
        truth = lorenz_truth(9)
        p = 9
        for i in range(p):
            for j in range(p):
                assert truth[i, j] == truth[(i + 1) % p, (j + 1) % p]

    def test_trajectory_bounded_and_nonconstant(self):
        cfg = LorenzGenConfig(p=10, F=5.0, dt=0.01, noise_sigma=0.01, burn_in=1000)
        ts, truth = simulate_lorenz(cfg, 1000, SeededRng(1))
        assert np.all(np.abs(ts) < 50)
        assert ts.std(axis=0).min() > 1e-3
        assert np.array_equal(truth, lorenz_truth(10))

    def test_deterministic_in_seed(self):
        cfg = LorenzGenConfig(p=5, burn_in=10)
        a, _ = simulate_lorenz(cfg, 50, SeededRng(3))
        b, _ = simulate_lorenz(cfg, 50, SeededRng(3))
        assert np.array_equal(a, b)

    def test_divergence_raises(self):
        cfg = LorenzGenConfig(p=5, F=5.0, dt=50.0, noise_sigma=0.0, burn_in=0)
        with pytest.raises(SimulationError):
            simulate_lorenz(cfg, 2000, SeededRng(0))

    def test_non_finite_state_stops(self):
        cfg = LorenzGenConfig(p=5, burn_in=0)
        init = np.array([5.0, 5.0, np.nan, 5.0, 5.0])
        with pytest.raises(SimulationError, match="at step 0$"):
            simulate_lorenz(cfg, 20, SeededRng(0), init=init)

    @pytest.mark.parametrize("setting,message", [
        ({"F": float("nan")}, "F must be finite, got nan"),
        ({"F": float("inf")}, "F must be finite, got inf"),
        ({"dt": float("nan")}, "dt must be finite and > 0, got nan"),
        ({"dt": float("inf")}, "dt must be finite and > 0, got inf"),
        ({"noise_sigma": float("nan")}, "noise_sigma must be finite and >= 0, got nan"),
        ({"noise_sigma": float("inf")}, "noise_sigma must be finite and >= 0, got inf"),
        ({"burn_in": -10}, "burn_in must be >= 0, got -10"),
        ({"burn_in": 2.5}, "burn_in must be an integer, got 2.5")])
    def test_out_of_range_setting_named(self, setting, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cfg = LorenzGenConfig(p=5, **{"burn_in": 10, **setting})
            simulate_lorenz(cfg, 20, SeededRng(0))

    def test_euler_halving_dt_halves_error(self):
        # global error over a short noiseless horizon is first order in dt
        F, p, horizon = 5.0, 6, 0.4
        init = F + 0.05 * np.cos(np.arange(p))

        def integrate(dt):
            cfg = LorenzGenConfig(p=p, F=F, dt=dt, noise_sigma=0.0, burn_in=0)
            ts, _ = simulate_lorenz(cfg, int(round(horizon / dt)), SeededRng(0), init=init)
            return ts[-1]

        ref = integrate(1e-5)
        err1 = np.linalg.norm(integrate(0.01) - ref)
        err2 = np.linalg.norm(integrate(0.005) - ref)
        assert 1.7 < err1 / err2 < 2.3


class TestStandardize:
    def test_idempotent(self):
        ts = SeededRng(0).normal(size=(200, 3))
        once = standardize(ts)[0]
        twice = standardize(once)[0]
        assert np.allclose(once, twice, atol=1e-12)

    def test_hand_case_population_std(self):
        # column (1,2,3): mean 2, population std sqrt(2/3)
        ts = np.array([[1.0], [2.0], [3.0]])
        out, mean, std = standardize(ts)
        expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)
        assert np.allclose(out[:, 0], expected, atol=1e-12)
        assert np.allclose(expected[0], -1.224744871391589, atol=1e-12)
        assert mean[0] == 2.0 and np.isclose(std[0], np.sqrt(2.0 / 3.0))

    def test_output_means_are_zero(self):
        ts = SeededRng(1).normal(size=(100, 4)) * 3.0 + 7.0
        out, _, _ = standardize(ts)
        assert np.all(np.abs(out.mean(axis=0)) < 1e-12)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_zero_variance_column_named(self):
        ts = np.column_stack([np.arange(5.0), np.ones(5)])
        with pytest.raises(ValueError, match=r"\[1\]"):
            standardize(ts)

    def test_inversion(self):
        ts = SeededRng(2).normal(size=(50, 3)) * 2.0 + 5.0
        out, mean, std = standardize(ts)
        assert np.allclose(out * std + mean, ts, atol=1e-12)


class TestGenConfigs:
    def test_var_generator_deterministic(self):
        gen = VarGenConfig(p=5, K=2, burn_in=50)
        a, ta = gen.generate(100, 7)
        b, tb = gen.generate(100, 7)
        assert np.array_equal(a, b) and np.array_equal(ta, tb)
        assert a.shape == (100, 5) and ta.shape == (5, 5)

    def test_lorenz_generator_deterministic(self):
        gen = LorenzGenConfig(p=6, burn_in=100)
        a, ta = gen.generate(80, 3)
        b, tb = gen.generate(80, 3)
        assert np.array_equal(a, b) and np.array_equal(ta, tb)

    def test_var_truth_zero_entries_have_zero_coeffs(self):
        # non-causality scan: truth 0 at (i, j) means every lag is exactly 0
        rng = SeededRng(13)
        proc = make_sparse_var(rng, p=8, K=3, edge_prob=0.25)
        zero_mask = proc.truth == 0
        for k in range(3):
            assert np.all(proc.coeffs[k][zero_mask] == 0)


class TestCounts:
    """The VAR generator's counts are checked by ``model._count``: a float is
    rejected, not truncated."""

    @pytest.mark.parametrize("make,message", [
        (lambda: make_sparse_var(SeededRng(0), 0, 2), "p must be >= 1, got 0"),
        (lambda: simulate_var(make_sparse_var(SeededRng(0), 4, 2), 2.5, SeededRng(1)),
         "T must be an integer, got 2.5"),
        (lambda: VarGenConfig().generate(2.5, 0), "T must be an integer, got 2.5")],
        ids=["p zero", "simulate_var T", "VarGenConfig T"])
    def test_count_rejected_in_count_wording(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()
