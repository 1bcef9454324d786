"""Output checks made apart from the program: the benchmark's own ROC/AUC,
graph and lag-profile properties, and a CSV reader.

Each check returns a list of problems (empty when the output is right), so
a run reports every fault it sees instead of stopping at the first one.
"""

import glob
import os

import numpy as np

AUC_TOL = 1e-12
NORM_RTOL = 1e-10


def _scored(truth, include_diagonal):
    keep = np.ones(np.shape(truth), dtype=bool)
    if not include_diagonal:
        np.fill_diagonal(keep, False)
    return keep, np.asarray(truth)[keep] > 0


def rate_point(truth, graph, include_diagonal=True):
    """(FPR, TPR) of predicting an edge iff its weight is > 0."""
    keep, actual = _scored(truth, include_diagonal)
    pred = np.asarray(graph)[keep] > 0
    fpr = float((pred & ~actual).sum()) / float((~actual).sum())
    tpr = float((pred & actual).sum()) / float(actual.sum())
    return fpr, tpr


def roc_auc(truth, graphs, include_diagonal=True):
    """Area under the lambda-sweep ROC: one rate point per graph plus (0, 0)
    and (1, 1); the highest TPR is kept at each FPR and the points are
    joined by straight lines."""
    best = {0.0: 0.0, 1.0: 1.0}
    for g in graphs:
        fpr, tpr = rate_point(truth, g, include_diagonal)
        best[fpr] = max(best.get(fpr, 0.0), tpr)
    xs = sorted(best)
    area = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        area += (x1 - x0) * (best[x0] + best[x1]) / 2.0
    return area


def check_auc(program_auc, truth, graphs, floor):
    own = roc_auc(truth, graphs)
    problems = []
    if not abs(own - program_auc) <= AUC_TOL:
        problems.append(f"program auc {program_auc!r} != own ROC/trapezoid auc {own!r}")
    if not program_auc >= floor:
        problems.append(f"auc {program_auc:.4f} below the floor {floor}")
    return problems


def check_graphs(graphs, n_lambdas, p):
    """Every graph is (p, p), finite, and each entry exactly 0 or > 0."""
    if len(graphs) != n_lambdas:
        return [f"{len(graphs)} graphs for {n_lambdas} lambdas"]
    problems = []
    for li, g in enumerate(graphs):
        g = np.asarray(g)
        if g.shape != (p, p):
            problems.append(f"graph {li} has shape {g.shape}, expected ({p}, {p})")
        elif not (np.all(np.isfinite(g)) and np.all(g >= 0)):
            problems.append(f"graph {li} has negative or non-finite entries")
    return problems


def check_lag_profiles(graphs, lag_profiles, suffix_zeros):
    """Each graph entry is the norm of its (p, p, K) lag-profile row, and with
    the hierarchical penalty the zero lags of every (i, j) form a suffix."""
    problems = []
    for li, (g, lp) in enumerate(zip(graphs, lag_profiles)):
        row_norm = np.sqrt((np.asarray(lp) ** 2).sum(axis=2))
        if not np.array_equal(g > 0, row_norm > 0):
            problems.append(f"graph {li}: zero pattern differs from its lag profile")
        elif not np.allclose(g, row_norm, rtol=NORM_RTOL, atol=0.0):
            problems.append(f"graph {li}: entries differ from lag-profile row norms")
        if suffix_zeros:
            nz = np.asarray(lp) > 0
            if np.any(nz[:, :, 1:] & ~nz[:, :, :-1]):
                problems.append(f"graph {li}: a nonzero lag follows a zero lag")
    return problems


def check_counts(graphs, active_edges):
    """Reported active-edge counts match the nonzeros of each graph."""
    nonzeros = [int(np.count_nonzero(np.asarray(g) > 0)) for g in graphs]
    if [int(e) for e in active_edges] != nonzeros:
        return [f"active edges {list(active_edges)} != graph nonzeros {nonzeros}"]
    return []


def check_lag_pairs(graphs, active_lag_pairs, K):
    """Each graph's active edges carry between one and K active lags:
    edges <= reported active (i, j, lag) triples <= K * edges."""
    problems = []
    for li, (g, n_pairs) in enumerate(zip(graphs, active_lag_pairs)):
        n_edges = int(np.count_nonzero(np.asarray(g) > 0))
        if not n_edges <= int(n_pairs) <= K * n_edges:
            problems.append(f"graph {li}: {n_pairs} active lag pairs for {n_edges} active edges")
    return problems


def check_fits(n_fits, p, n_lambdas):
    """One fit per (lambda, series)."""
    if n_fits != p * n_lambdas:
        return [f"{n_fits} fits for p={p} x {n_lambdas} lambdas"]
    return []


def library_sweep_problems(sw, truth, program_auc, n_lambdas, K, hierarchical, auc_floor):
    """All output checks of a ``sweep_path`` result (an ngcausal SweepResult);
    the caller counts the fits."""
    return (check_graphs(sw.graphs, n_lambdas, len(truth))
            + check_lag_profiles(sw.graphs, sw.lag_profiles, suffix_zeros=hierarchical)
            + check_lag_pairs(sw.graphs, sw.active_lag_pairs(), K)
            + check_auc(program_auc, truth, sw.graphs, auc_floor))


def cli_sweep_problems(out, truth_path, K, n_lambdas, auc_floor):
    """All checks of a CLI ``sweep`` output directory, read with this module's
    own parser; returns (problems, the auc the program wrote)."""
    truth = read_matrix(truth_path)
    graphs = [read_matrix(path)
              for path in sorted(glob.glob(os.path.join(out, "graphs", "graph_*.csv")))]
    edges = read_csv_rows(os.path.join(out, "edges.csv"), skip_header=True)
    roc = read_csv_rows(os.path.join(out, "roc.csv"), skip_header=True)
    program_auc = float(read_csv_rows(os.path.join(out, "auc.csv"), skip_header=True)[0][4])
    problems = check_graphs(graphs, n_lambdas, len(truth))
    problems += check_counts(graphs, [row[1] for row in edges])
    problems += check_lag_pairs(graphs, [row[2] for row in edges], K)
    if [rate_point(truth, g) for g in graphs] != [(float(r[1]), float(r[2])) for r in roc]:
        problems.append("roc.csv points differ from the graphs' own (FPR, TPR)")
    problems += check_auc(program_auc, truth, graphs, auc_floor)
    return problems, program_auc


def read_csv_rows(path, skip_header=False):
    """Rows of a comma-separated file as lists of strings."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if skip_header:
        lines = lines[1:]
    return [line.split(",") for line in lines if line]


def read_matrix(path):
    return np.array([[float(v) for v in row] for row in read_csv_rows(path)])
