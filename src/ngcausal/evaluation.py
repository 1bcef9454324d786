"""Assemble per-series fits into causal graphs and score them with ROC/AUC.

A causal graph is a (p, p) nonnegative array: entry (i, j) is the strength
of "series j drives series i", the norm of series j's first-layer column
group in the model fit to series i, which is the norm of the (i, j) row of
the fit's lag profile.  Because the prox writes exact zeros, an edge is
predicted iff its weight is strictly positive; ROC curves come from
sweeping a descending lambda grid.
"""

import concurrent.futures
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .datasets import SeededRng, child_seed
from .model import DataError, _count, _real, build_lagged, init_model
from .optim import OptimizationError, fit_path
from .penalties import penalty_path


class DegenerateTruthError(DataError):
    """Ground truth has no positives or no negatives among scored entries."""


# --------------------------------------------------------------- ROC and AUC


def judge_truth(truth, include_diagonal=True):
    """The mask of a truth graph's scored entries and those entries as
    booleans.  Raises DataError unless every entry is 0 or 1, and
    DegenerateTruthError unless the scored entries hold both edge classes."""
    truth = np.asarray(truth)
    binary = np.isin(truth, (0.0, 1.0))
    if not binary.all():
        raise DataError(f"truth graph entries must be 0 or 1, got {truth[~binary][0]:g}")
    mask = np.ones(truth.shape, dtype=bool) if include_diagonal else ~np.eye(*truth.shape, dtype=bool)
    actual = truth[mask] > 0
    n_pos = int(actual.sum())
    n_neg = actual.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateTruthError(
            f"truth needs at least one positive and one negative edge "
            f"(got {n_pos} positives, {n_neg} negatives)")
    return mask, actual


def edge_rates(truth, graph, include_diagonal=True):
    """(FPR, TPR) of the strict-positivity edge decision; see judge_truth."""
    mask, actual = judge_truth(truth, include_diagonal)
    graph = np.asarray(graph)
    if graph.shape != mask.shape:
        raise ValueError(f"graph shape {graph.shape} does not match truth {mask.shape}")
    pred = graph[mask] > 0
    return float(pred[~actual].mean()), float(pred[actual].mean())


def roc_points(truth, estimates, include_diagonal=True):
    """ROC points of a family of estimated graphs, endpoints included.

    One point per estimate, augmented with (0, 0) and (1, 1), sorted by FPR
    (then TPR).  Returns an (n, 2) array of (FPR, TPR) rows.
    """
    pts = [(0.0, 0.0), (1.0, 1.0)]
    pts += [edge_rates(truth, g, include_diagonal) for g in estimates]
    return np.asarray(sorted(pts))


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


def lambda_max_linear(ts, K):
    """Smallest penalty that zeroes every group on the linear proxy problem.

    For the linear model, the all-zero first layer is optimal once lambda
    reaches max over (series, input group) of 2 * ||X_g^T (y - mean(y))||;
    used as the top anchor of sweep grids (approximate for MLP fits).  The
    returned value is that bound times (1 + 1e-9): at exactly the bound,
    rounding can leave the argmax group's gradient norm at a converged fit
    a few ulps above it, and that group keeps a tiny nonzero weight.
    """
    ts = np.asarray(ts, dtype=np.float64)
    X = build_lagged(ts, K)[0].inputs
    p = ts.shape[1]
    Y = ts[K:]
    R = Y - Y.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # raised on below
        G = kernels.sum_rows(R.T, X)     # (p, K*p): [output i, lag k * p + input j]
        norms = np.sqrt((G.reshape(p, K, p) ** 2).sum(axis=1))  # (output i, input j)
    lam_max = 2.0 * float(norms.max()) * (1.0 + 1e-9)
    if not np.isfinite(lam_max):
        raise DataError(f"penalty scale of the data is not finite ({lam_max}); "
                        "rescale or standardize the series")
    if lam_max <= 0:
        raise DataError("data is constant: no usable penalty scale")
    return lam_max


def _grid_shape(size, ratio):
    """(size, ratio) checked: size an integer >= 2, ratio finite and > 1;
    shared with the config."""
    return _count("grid_size", size, least=2), _real("grid_ratio", ratio, 1)


def lambda_grid(lam_max, size=20, ratio=100.0):
    """Descending log-spaced grid from a finite lam_max > 0 down to lam_max / ratio."""
    _real("lam_max", lam_max, 0)
    _grid_shape(size, ratio)
    return np.geomspace(lam_max, lam_max / ratio, size)


# ------------------------------------------------------------- lambda sweeps


@dataclass
class SweepResult:
    """Per-lambda graphs and lag norms along one descending penalty path,
    plus each series' model at the last lambda."""

    lambdas: np.ndarray
    graphs: list              # per lambda: (p, p) lag-profile row norms
    lag_profiles: np.ndarray  # (n_lambda, p, p, K): [lambda, output i, input j, lag k]
    iterations: np.ndarray    # (n_lambda, p)
    backtracks: np.ndarray    # (n_lambda, p) rejected trial steps
    converged: np.ndarray     # (n_lambda, p) bool
    objectives: np.ndarray    # (n_lambda, p) final penalized objective
    models: list              # per series: ComponentMLP fit at lambdas[-1]

    def active_edges(self):
        return np.array([int(np.count_nonzero(g > 0)) for g in self.graphs])

    def active_lag_pairs(self):
        return np.array([int(np.count_nonzero(lp > 0)) for lp in self.lag_profiles])


def _series_path(data, i, specs, arch, opt, seed):
    """Series i's ``fit_path`` down ``specs`` from its seeded initial model:
    its fits' (n_lambda, p, K) lag profiles and (n_lambda,) iterations,
    backtracks, converged flags and final objectives, and its last model."""
    model = init_model(data.p, data.K, arch, SeededRng(child_seed(seed, i)))
    try:
        path = fit_path(data, specs, model, opt)
    except OptimizationError as exc:
        raise OptimizationError(f"series {i} {exc}") from exc
    fits = [(kernels.lag_norms(res.model.weight(0), data.p, data.K), res.iterations_run,
             res.backtracks, res.converged, res.objective_trace[-1]) for res in path]
    return (*(np.array(column) for column in zip(*fits)), path[-1].model)


# the sweep a pool worker fits: (datasets, specs, arch, opt, seed), set once
# per worker by _init_worker so that tasks carry only a series index
_WORK = None


def _init_worker(*work):
    global _WORK
    _WORK = work


def _pooled_series_path(i):
    datasets, specs, arch, opt, seed = _WORK
    return _series_path(datasets[i], i, specs, arch, opt, seed)


def sweep_path(ts, K, kind, lambdas, arch, opt, seed, jobs=1):
    """Fit every series down a descending lambda grid; assemble per-lambda graphs.

    The penalty path is checked (``penalty_path``) and the lagged design
    built once, before any fit; the float32 copy that hidden layers read is
    made once per process, by its first fit with hidden layers.  Series'
    paths are independent and run on a pool of min(jobs, p) processes when
    that is more than one; each worker receives the datasets once, and each
    task is a series index.  Results
    depend on (ts, configs, seed), not on jobs; the README's Outputs
    paragraph states when they do not depend on the BLAS thread count.
    Graph entry (i, j) is the norm of lag-profile row (i, j): zero exactly
    when every first-layer weight series j feeds into model i is zero.
    ``models`` holds each series' model at the last lambda, so a one-lambda
    sweep is a plain fit of every series.  A failing fit raises
    OptimizationError naming its series and lambda; with several failures,
    the lowest series index is reported whatever jobs is.
    """
    lambdas, specs = penalty_path(kind, lambdas)
    jobs = _count("jobs", jobs)
    datasets = build_lagged(ts, K)
    workers = min(jobs, len(datasets))  # a forked pool starts every worker at once
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker,
                initargs=(datasets, specs, arch, opt, seed)) as pool:
            per_series = list(pool.map(_pooled_series_path, range(len(datasets))))
    else:
        per_series = [_series_path(data, i, specs, arch, opt, seed)
                      for i, data in enumerate(datasets)]

    lags, iterations, backtracks, converged, objectives, models = zip(*per_series)
    lag_profiles = np.stack(lags, axis=1)
    return SweepResult(lambdas=lambdas,
                       graphs=list(np.sqrt((lag_profiles ** 2).sum(axis=3))),
                       lag_profiles=lag_profiles,
                       iterations=np.stack(iterations, axis=1),
                       backtracks=np.stack(backtracks, axis=1),
                       converged=np.stack(converged, axis=1),
                       objectives=np.stack(objectives, axis=1),
                       models=list(models))
