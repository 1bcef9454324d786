"""Synthetic ground-truthed time series: sparse stable VAR and Lorenz-96.

Time series are plain (T, p) float64 arrays, row t = observation at time t.
Causal ground truth is a (p, p) 0/1 array with entry (i, j) = 1 when series j
drives series i.  Every draw comes from a stream seeded by ``SeededRng``.
A generator's settings are checked once, when its ``VarGenConfig`` or
``LorenzGenConfig`` is built, by ``model._count`` and ``model._real``;
``standardize`` raises ``DataError`` for a series it cannot scale.
"""

from dataclasses import dataclass

import numpy as np

from .model import DataError, _count, _real


def SeededRng(seed):
    """numpy's PCG64 ``Generator`` keyed by ``seed``: identical seeds give
    identical draws on every platform, and numpy rejects a negative seed.
    A stream is single-owner; parallel work seeds its own with child_seed."""
    return np.random.default_rng(seed)


def child_seed(seed, index):
    """Integer child seed of (parent seed, stream index), by numpy's seed rule."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


class SimulationError(RuntimeError):
    """A generator produced a diverging or otherwise unusable trajectory."""


# --------------------------------------------------------------------- VAR


@dataclass
class VarProcess:
    """A linear autoregressive system with known sparsity structure.

    coeffs has shape (K, p, p): coeffs[k] maps the state k+1 steps back onto
    the present.  truth(i, j) = 1 iff coeffs[k][i, j] != 0 for some k.
    """

    coeffs: np.ndarray
    noise_sigma: float
    truth: np.ndarray

    @property
    def p(self):
        return self.coeffs.shape[1]

    @property
    def K(self):
        return self.coeffs.shape[0]


def companion_matrix(coeffs):
    """Stack lag matrices into the (p*K, p*K) one-step companion form."""
    K, p, _ = coeffs.shape
    C = np.zeros((p * K, p * K))
    C[:p, :] = np.concatenate(list(coeffs), axis=1)
    if K > 1:
        C[p:, :-p] = np.eye(p * (K - 1))
    return C


def spectral_radius(M):
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def make_sparse_var(rng, p, K, edge_prob=0.2, target_radius=0.95, noise_sigma=0.1):
    """Draw a sparse stable VAR system with a known causal graph.

    Every diagonal entry is active (self-dependence); each off-diagonal edge
    (i, j) is active with probability edge_prob.  An active edge carries the
    same coefficient at all K lags (one sign flip per edge).  All
    coefficients are then rescaled by a common factor, bisected to adjacent
    floats around target_radius as spectral_radius computes it; eigvals is
    accurate to ~1e-5 only on these near-repeated eigenvalues.
    """
    cfg = VarGenConfig(p, K, edge_prob, target_radius, noise_sigma)
    p, K = cfg.p, cfg.K
    adjacency = (rng.random((p, p)) < cfg.edge_prob).astype(np.float64)
    np.fill_diagonal(adjacency, 1.0)
    signs = np.where(rng.random((p, p)) < 0.5, -1.0, 1.0)
    # the bisection cancels any common scale; 0.1 keeps older systems bit-identical
    base = adjacency * signs * 0.1
    coeffs = np.repeat(base[np.newaxis, :, :], K, axis=0)

    def radius_at(scale):
        return spectral_radius(companion_matrix(scale * coeffs)) - cfg.target_radius

    hi = 1.0
    while radius_at(hi) < 0:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("failed to bracket the target spectral radius")
    lo = 0.0  # bisect [0, hi] until lo and hi are adjacent floats
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if radius_at(mid) < 0 else (lo, mid)
    coeffs = hi * coeffs

    truth = (np.abs(coeffs) > 0).any(axis=0).astype(np.float64)
    return VarProcess(coeffs=coeffs, noise_sigma=cfg.noise_sigma, truth=truth)


def _var_rows(T, burn_in, K):
    """burn_in + T, the rows a VAR trajectory generates; it must exceed K."""
    if burn_in + T <= K:
        raise ValueError(f"burn_in + T = {burn_in + T} must exceed the lag order {K}")
    return burn_in + T


def simulate_var(proc, T, rng, burn_in=200, init=None):
    """Iterate the VAR recursion and return the last T rows.

    The raw trajectory starts from K history rows (zeros, or ``init`` with
    shape (K, p) as a test hook), generates burn_in + T rows total, and
    drops the first burn_in.  Requires burn_in + T > K.  Stops with a
    SimulationError once a value is non-finite or above 1e8 in magnitude.
    """
    T, burn_in = _count("T", T), _count("burn_in", burn_in, least=0)
    p, K = proc.p, proc.K
    total = _var_rows(T, burn_in, K)
    x = np.zeros((total, p))
    if init is not None:
        init = np.asarray(init, dtype=np.float64)
        if init.shape != (K, p):
            raise ValueError(f"init must have shape ({K}, {p}), got {init.shape}")
        x[:K] = init
    noise = rng.normal(0.0, proc.noise_sigma, size=(total - K, p))
    for t in range(K, total):
        acc = noise[t - K]
        for k in range(K):
            acc = acc + proc.coeffs[k] @ x[t - 1 - k]
        x[t] = acc
        if not np.all(np.abs(acc) <= 1e8):
            raise SimulationError(
                f"VAR trajectory left [-1e8, 1e8] or became non-finite at step {t}")
    return x[burn_in:]


# ----------------------------------------------------------------- Lorenz-96


def lorenz_derivative(x, F):
    """Ring-coupled drift d_i = (x_{i+1} - x_{i-2}) * x_{i-1} - x_i + F."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < 4:
        raise ValueError(f"need at least 4 coordinates, got {x.shape[0]}")
    return (np.roll(x, -1) - np.roll(x, 2)) * np.roll(x, 1) - x + F


def lorenz_truth(p):
    """Causal graph of the ring dynamics: row i links to i-2, i-1, i, i+1."""
    truth = np.zeros((p, p))
    for i in range(p):
        for j in (i - 2, i - 1, i, i + 1):
            truth[i, j % p] = 1.0
    return truth


def simulate_lorenz(cfg, T, rng, init=None):
    """Euler-step the Lorenz-96 ring set up by ``cfg`` (a LorenzGenConfig,
    checked when it was built) and return (series, truth graph).

    x_{t+1} = x_t + dt * drift(x_t) + e_t with e_t ~ Normal(0, sigma^2 I).
    The initial state is the equilibrium F plus a small seeded perturbation
    (std 0.01); ``init`` overrides it as a test hook.  burn_in rows are
    discarded before the T returned rows.  A state that is non-finite or
    above 1e8 in magnitude raises SimulationError.
    """
    T, p = _count("T", T), cfg.p
    if init is not None:
        state = np.asarray(init, dtype=np.float64).copy()
        if state.shape != (p,):
            raise ValueError(f"init must have shape ({p},), got {state.shape}")
    else:
        state = cfg.F + rng.normal(0.0, 0.01, size=p)

    total = cfg.burn_in + T
    out = np.empty((total, p))
    noise = rng.normal(0.0, cfg.noise_sigma, size=(total, p))
    for t in range(total):
        state = state + cfg.dt * lorenz_derivative(state, cfg.F) + noise[t]
        if not np.all(np.abs(state) <= 1e8):
            raise SimulationError(f"Lorenz trajectory diverged at step {t}")
        out[t] = state
    return out[cfg.burn_in:], lorenz_truth(p)


# ------------------------------------------------------------ preprocessing


def standardize(ts):
    """Center each column and scale to unit population std.

    Returns (standardized, mean, std) so the transform can be inverted.
    """
    ts = np.asarray(ts, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # raised on below
        mean = ts.mean(axis=0)
        std = ts.std(axis=0)
    bad = np.flatnonzero(std == 0)
    if bad.size:
        raise DataError(f"zero-variance column(s) {bad.tolist()}: cannot standardize")
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:  # non-finite entries, or an overflow: the fits would see NaN or 0
        raise DataError(f"non-finite mean or std in column(s) {bad.tolist()}: cannot standardize")
    return (ts - mean) / std, mean, std


# ------------------------------------------------- experiment-facing configs


@dataclass
class VarGenConfig:
    """VAR generator settings for experiment runs (seed supplied per run)."""

    p: int = 10
    K: int = 3
    edge_prob: float = 0.2
    target_radius: float = 0.95
    noise_sigma: float = 0.1
    burn_in: int = 200

    def __post_init__(self):
        self.p, self.K = _count("p", self.p), _count("K", self.K)
        self.edge_prob = _real("edge_prob", self.edge_prob)
        if not 0 < self.edge_prob <= 1:
            raise ValueError(f"edge_prob must be in (0, 1], got {self.edge_prob}")
        self.target_radius = _real("target_radius", self.target_radius)
        if not 0 < self.target_radius < 1:
            raise ValueError(f"target_radius must be in (0, 1), got {self.target_radius}")
        self.noise_sigma = _real("noise_sigma", self.noise_sigma, 0)
        self.burn_in = _count("burn_in", self.burn_in, least=0)

    def generate(self, T, seed):
        rng = SeededRng(seed)
        proc = make_sparse_var(rng, self.p, self.K, self.edge_prob,
                               self.target_radius, self.noise_sigma)
        ts = simulate_var(proc, T, rng, burn_in=self.burn_in)
        return ts, proc.truth


@dataclass
class LorenzGenConfig:
    """Euler-discretized Lorenz-96 generator settings for experiment runs."""

    p: int = 10
    F: float = 5.0
    dt: float = 0.01
    noise_sigma: float = 0.01
    burn_in: int = 1000

    def __post_init__(self):
        self.p = _count("p", self.p, least=4)
        self.burn_in = _count("burn_in", self.burn_in, least=0)
        self.F, self.dt = _real("F", self.F), _real("dt", self.dt, 0)
        self.noise_sigma = _real("noise_sigma", self.noise_sigma, 0, strict=False)

    def generate(self, T, seed):
        return simulate_lorenz(self, T, SeededRng(seed))
