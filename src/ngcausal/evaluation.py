"""Assemble per-series fits into causal graphs and score them with ROC/AUC.

A causal graph is a (p, p) nonnegative array: entry (i, j) is the strength
of "series j drives series i", the norm of series j's first-layer column
group in the model fit to series i.  Because the prox writes exact zeros,
an edge is predicted iff its weight is strictly positive; ROC curves come
from sweeping a descending lambda grid (score-threshold ROC on a single
fit's weights is available as an alternative mode).
"""

import concurrent.futures
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .datasets import standardize
from .model import build_lagged, granger_weights
from .numerics import child_seed
from .optim import fit, warm_start_fit
from .penalties import PenaltySpec


class DegenerateTruthError(ValueError):
    """Ground truth has no positives or no negatives among scored entries."""


# ------------------------------------------------------------ graph building


def assemble_graph(models):
    """Stack per-series input-group norms into the (p, p) weight graph."""
    if not models:
        raise ValueError("no models given")
    p, K = models[0].p, models[0].K
    if len(models) != p:
        raise ValueError(f"need one model per series: got {len(models)} for p={p}")
    graph = np.empty((p, p))
    for i, m in enumerate(models):
        if m.p != p or m.K != K:
            raise ValueError(f"model {i} has (p={m.p}, K={m.K}), expected (p={p}, K={K})")
        graph[i] = granger_weights(m)
    return graph


def lag_profile(model):
    """Per-(input series, lag) first-layer block norms, shape (p, K)."""
    return kernels.lag_norms(model.first_layer_packed, model.p, model.K)


# --------------------------------------------------------------- ROC and AUC


def _considered_mask(p, include_diagonal):
    mask = np.ones((p, p), dtype=bool)
    if not include_diagonal:
        np.fill_diagonal(mask, False)
    return mask


def edge_rates(truth, graph, include_diagonal=True):
    """(FPR, TPR) of the strict-positivity edge decision against binary truth."""
    truth = np.asarray(truth)
    graph = np.asarray(graph)
    if graph.shape != truth.shape:
        raise ValueError(f"graph shape {graph.shape} does not match truth {truth.shape}")
    mask = _considered_mask(truth.shape[0], include_diagonal)
    actual = truth[mask] > 0
    pred = graph[mask] > 0
    n_pos = int(actual.sum())
    n_neg = int((~actual).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateTruthError(
            f"truth needs at least one positive and one negative edge "
            f"(got {n_pos} positives, {n_neg} negatives)")
    tpr = float((pred & actual).sum() / n_pos)
    fpr = float((pred & ~actual).sum() / n_neg)
    return fpr, tpr


def roc_points(truth, estimates, include_diagonal=True):
    """ROC points of a family of estimated graphs, endpoints included.

    One point per estimate, augmented with (0, 0) and (1, 1), sorted by FPR
    (then TPR).  Returns an (n, 2) array of (FPR, TPR) rows.
    """
    pts = [(0.0, 0.0), (1.0, 1.0)]
    for g in estimates:
        pts.append(edge_rates(truth, g, include_diagonal))
    pts.sort()
    return np.asarray(pts)


def roc_points_scores(truth, graph, include_diagonal=True):
    """Alternative mode: ROC by sweeping a threshold over one graph's weights."""
    graph = np.asarray(graph)
    mask = _considered_mask(np.asarray(truth).shape[0], include_diagonal)
    thresholds = np.unique(graph[mask])
    pts = [(0.0, 0.0), (1.0, 1.0)]
    for thr in thresholds:
        pred = np.where(graph > thr, 1.0, 0.0)
        pts.append(edge_rates(truth, pred, include_diagonal))
    pts.sort()
    return np.asarray(pts)


def auc(points):
    """Trapezoidal area under ROC points; ties keep the max TPR per FPR."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (n, 2) points, got shape {pts.shape}")
    have = {tuple(q) for q in pts.tolist()}
    if (0.0, 0.0) not in have or (1.0, 1.0) not in have:
        raise ValueError("points must include (0, 0) and (1, 1)")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    fpr, idx = np.unique(pts[:, 0], return_index=True)
    # sorted ties put the max TPR last within each FPR
    last = np.append(idx[1:], pts.shape[0]) - 1
    tpr = pts[last, 1]
    return float(np.trapezoid(tpr, fpr))


# ------------------------------------------------------------- lambda grids


def lambda_max_linear(ts, K, center=True):
    """Smallest penalty that zeroes every group on the linear proxy problem.

    For the linear model, the all-zero first layer is optimal once lambda
    reaches max over (series, input group) of 2 * ||X_g^T (y - mean(y))||;
    used as the top anchor of sweep grids (approximate for MLP fits).
    """
    ts = np.asarray(ts, dtype=np.float64)
    p = ts.shape[1]
    # A C-ordered copy keeps the grid bit-equal to the one computed before
    # build_lagged returned Fortran order: X.T @ R rounds differently for the
    # two memory orders.  It costs one copy of the design.
    X = np.ascontiguousarray(build_lagged(ts, K, 0).inputs)
    Y = ts[K:]
    R = Y - Y.mean(axis=0) if center else Y
    G = X.T @ R                      # (p*K, p)
    norms = np.sqrt((G.reshape(K, p, p) ** 2).sum(axis=0))  # (input j, output i)
    lam_max = 2.0 * float(norms.max())
    if lam_max <= 0:
        raise ValueError("data is constant: no usable penalty scale")
    return lam_max


def lambda_grid(lam_max, size=20, ratio=100.0):
    """Descending log-spaced grid from lam_max down to lam_max / ratio."""
    if lam_max <= 0:
        raise ValueError(f"lam_max must be > 0, got {lam_max}")
    if size < 2 or ratio <= 1:
        raise ValueError(f"need size >= 2 and ratio > 1, got size={size}, ratio={ratio}")
    return np.geomspace(lam_max, lam_max / ratio, size)


# ------------------------------------------------------------- lambda sweeps


@dataclass
class SweepResult:
    """Per-lambda graphs and lag norms along one descending penalty path."""

    lambdas: np.ndarray
    graphs: list            # per lambda: (p, p) weights
    lag_profiles: list      # per lambda: (p, p, K), [output i, input j, lag k]
    iterations: np.ndarray  # (n_lambda, p)
    converged: np.ndarray   # (n_lambda, p) bool
    objectives: np.ndarray  # (n_lambda, p) final penalized objective

    def active_edges(self):
        return np.array([int(np.count_nonzero(g > 0)) for g in self.graphs])

    def active_lag_pairs(self):
        return np.array([int(np.count_nonzero(lp > 0)) for lp in self.lag_profiles])


def _series_path(ts, K, i, kind, lambdas, arch, opt, seed, progress=None):
    """Warm-started descent of one series' model down the lambda grid."""
    data = build_lagged(ts, K, i)
    out = []
    prev = None
    for li, lam in enumerate(lambdas):
        spec = PenaltySpec(kind=kind, lam=float(lam))
        if prev is None:
            res = fit(data, spec, arch, opt, seed=child_seed(seed, i))
        else:
            res = warm_start_fit(prev, data, spec, opt)
        prev = res
        out.append((granger_weights(res.model), lag_profile(res.model),
                    res.iterations_run, res.converged,
                    float(res.objective_trace[-1])))
        if progress is not None:
            progress(f"series {i}: lambda {li + 1}/{len(lambdas)} "
                     f"({res.iterations_run} iters, objective {res.objective_trace[-1]:.6g})")
    return out


def _series_path_task(args):
    return _series_path(*args)


def sweep_path(ts, K, kind, lambdas, arch, opt, seed, jobs=1, progress=None):
    """Fit every series down a descending lambda grid; assemble per-lambda graphs.

    Fits for different series are independent and run on a process pool when
    jobs > 1.  Results are deterministic in (ts, configs, seed) regardless
    of jobs.
    """
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise ValueError("lambda grid must be a nonempty 1-d array")
    if np.any(np.diff(lambdas) >= 0):
        raise ValueError("lambda grid must be strictly decreasing")
    p = ts.shape[1]

    if jobs > 1:
        tasks = [(ts, K, i, kind, lambdas, arch, opt, seed) for i in range(p)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            per_series = list(pool.map(_series_path_task, tasks))
        if progress is not None:
            progress(f"finished {p} series x {lambdas.size} lambdas on {jobs} workers")
    else:
        per_series = [_series_path(ts, K, i, kind, lambdas, arch, opt, seed,
                                   progress=progress)
                      for i in range(p)]

    n_lam = lambdas.size
    graphs = [np.empty((p, p)) for _ in range(n_lam)]
    lag_profiles = [np.empty((p, p, K)) for _ in range(n_lam)]
    iterations = np.empty((n_lam, p), dtype=np.int64)
    converged = np.empty((n_lam, p), dtype=bool)
    objectives = np.empty((n_lam, p))
    for i, path in enumerate(per_series):
        for li, (gw, lp, iters, conv, obj) in enumerate(path):
            graphs[li][i] = gw
            lag_profiles[li][i] = lp
            iterations[li, i] = iters
            converged[li, i] = conv
            objectives[li, i] = obj
    return SweepResult(lambdas=lambdas, graphs=graphs, lag_profiles=lag_profiles,
                       iterations=iterations, converged=converged,
                       objectives=objectives)


# --------------------------------------------------------------- experiments


@dataclass
class ExperimentResult:
    """Per-seed AUC table plus the full sweeps behind it."""

    seeds: list
    aucs: np.ndarray            # diagonal included in scoring
    aucs_excl_diag: np.ndarray  # NaN when off-diagonal truth is degenerate
    sweeps: list
    truths: list

    def mean_auc(self):
        return float(self.aucs.mean())


def run_experiment(generator, T, K, arch, opt, penalty_kind, seeds,
                   lambdas=None, grid_size=20, grid_ratio=100.0,
                   standardize_data=True, jobs=1, progress=None):
    """Generate -> standardize -> sweep -> score, once per seed.

    When ``lambdas`` is None a fresh grid is anchored at each seed's own
    linear-proxy lambda_max.  Everything is deterministic in (configs, seeds).
    """
    seeds = list(seeds)
    aucs = np.empty(len(seeds))
    aucs_nd = np.empty(len(seeds))
    sweeps = []
    truths = []
    for si, seed in enumerate(seeds):
        ts, truth = generator.generate(T, seed)
        if standardize_data:
            ts = standardize(ts)[0]
        lams = (np.asarray(lambdas, dtype=np.float64) if lambdas is not None
                else lambda_grid(lambda_max_linear(ts, K), grid_size, grid_ratio))
        if progress is not None:
            progress(f"seed {seed}: lambda grid [{lams[-1]:.4g}, {lams[0]:.4g}]")
        sw = sweep_path(ts, K, penalty_kind, lams, arch, opt, seed,
                        jobs=jobs, progress=progress)
        aucs[si] = auc(roc_points(truth, sw.graphs, include_diagonal=True))
        try:
            aucs_nd[si] = auc(roc_points(truth, sw.graphs, include_diagonal=False))
        except DegenerateTruthError:
            aucs_nd[si] = np.nan
        sweeps.append(sw)
        truths.append(truth)
        if progress is not None:
            progress(f"seed {seed}: auc {aucs[si]:.4f} "
                     f"(excl. diagonal {aucs_nd[si]:.4f})")
    return ExperimentResult(seeds=seeds, aucs=aucs, aucs_excl_diag=aucs_nd,
                            sweeps=sweeps, truths=truths)
