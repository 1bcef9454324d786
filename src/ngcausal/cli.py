"""Command-line interface: simulate, fit, sweep, report.

Exit codes: 0 success, 2 config error, 3 data error, 4 optimization
failure, 5 I/O failure; ``main`` maps each error class the library raises
to its code and judges no data itself.  Outputs are deterministic byte
streams given config and seed, independent of --jobs; the README's Outputs
paragraph states when they are independent of the BLAS thread count too.
"""

import argparse
import os
import sys

import numpy as np

from .datasets import SimulationError, standardize
from .evaluation import (DegenerateTruthError, auc, edge_rates, judge_truth,
                         lambda_grid, lambda_max_linear, roc_points, sweep_path)
from .io import (ConfigError, DataError, load_config, read_dataset_csv,
                 read_matrix_csv, read_auc_csv, save_checkpoint, save_config,
                 write_auc_csv, write_dataset_csv, write_edges_csv,
                 write_matrix_csv, write_roc_csv)
from .optim import OptimizationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_OPTIM = 4
EXIT_IO = 5


def _say(args, msg):
    if not args.quiet:
        print(msg)


def _warn_capped(converged, lambdas, max_iters):
    """One stderr line when any fit stopped at max_iters; converged is
    (n_lambda, p) in grid order.  Printed even under --quiet."""
    capped = np.argwhere(~np.asarray(converged, dtype=bool))
    if capped.size:
        li, i = capped[0]
        print(f"warning: {len(capped)} fit(s) stopped at max_iters={max_iters} "
              f"before converging; first at lambda {lambdas[li]:.6g}, series {i}",
              file=sys.stderr)


def _report_fits(args, sweep):
    """One line per (series, lambda) fit, series outer, whatever --jobs was."""
    n_lam = sweep.lambdas.size
    for i in range(sweep.iterations.shape[1]):
        for li in range(n_lam):
            _say(args, f"series {i}: lambda {li + 1}/{n_lam} "
                       f"({sweep.iterations[li, i]} iters, "
                       f"{sweep.backtracks[li, i]} backtracks, "
                       f"objective {sweep.objectives[li, i]:.6g})")


def _resolved_seed(cfg, args):
    """--seed, or the config's seed (judged when the config was read)."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {args.seed}")
    return cfg.generator.seed if args.seed is None else args.seed


def _fit_ready(ts, cfg):
    """The series as the fits see them: standardized when configured."""
    return standardize(ts)[0] if cfg.evaluation.standardize else ts


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


# ---------------------------------------------------------------- simulate


def cmd_simulate(args):
    cfg = load_config(args.config)
    # the resolved config saved below records the seed drawn from
    seed = cfg.generator.seed = _resolved_seed(cfg, args)
    try:
        ts, truth = cfg.generator.instance().generate(cfg.generator.T, seed)
    except MemoryError as exc:  # T too large to hold
        raise ConfigError(f"generator: {exc}") from exc
    except SimulationError as exc:  # the settings give a diverging trajectory
        raise ConfigError(f"generator.{cfg.generator.kind}: {exc}") from exc
    out = _outdir(args)
    write_dataset_csv(os.path.join(out, "dataset.csv"), ts)
    write_matrix_csv(os.path.join(out, "truth.csv"), truth, ints=True)
    save_config(cfg, os.path.join(out, "resolved_config.yaml"))
    _say(args, f"wrote {out}/dataset.csv ({ts.shape[0]} rows x {ts.shape[1]} series) "
               f"and {out}/truth.csv (seed {seed})")
    return EXIT_OK


# --------------------------------------------------------------------- fit


def cmd_fit(args):
    cfg = load_config(args.config)
    seed = _resolved_seed(cfg, args)
    ts = _fit_ready(read_dataset_csv(args.data), cfg)
    kind, lam = cfg.penalty.kind, cfg.penalty.lam

    sweep = sweep_path(ts, cfg.model.K, kind, [lam], cfg.model.architecture(),
                       cfg.optimizer, seed, jobs=args.jobs)
    _report_fits(args, sweep)
    _warn_capped(sweep.converged, sweep.lambdas, cfg.optimizer.max_iters)

    out = _outdir(args)
    for i, model in enumerate(sweep.models):
        write_matrix_csv(os.path.join(out, f"lags_series_{i}.csv"), sweep.lag_profiles[0][i])
        save_checkpoint(model, os.path.join(out, f"checkpoint_series_{i}.json"),
                        metadata={"series_index": i, "penalty": kind, "lam": lam,
                                  "seed": seed, "iterations": int(sweep.iterations[0, i]),
                                  "converged": bool(sweep.converged[0, i])})
    write_matrix_csv(os.path.join(out, "graph.csv"), sweep.graphs[0])
    _say(args, f"wrote {out}/graph.csv and {len(sweep.models)} checkpoints")
    return EXIT_OK


# ------------------------------------------------------------------- sweep


def cmd_sweep(args):
    cfg = load_config(args.config)
    seed = _resolved_seed(cfg, args)
    ts = read_dataset_csv(args.data)
    truth = read_matrix_csv(args.truth)
    if truth.shape != (ts.shape[1], ts.shape[1]):
        raise DataError(f"truth graph {truth.shape} does not match dataset with "
                        f"p={ts.shape[1]}")
    include_diag = cfg.evaluation.include_diagonal
    judge_truth(truth, include_diag)  # before any fit: a bad truth wastes no sweep
    T = ts.shape[0]
    ts = _fit_ready(ts, cfg)
    K = cfg.model.K
    arch = cfg.model.architecture()
    kind = cfg.penalty.kind

    if cfg.penalty.lambdas:
        lams = np.asarray(cfg.penalty.lambdas, dtype=np.float64)
    else:
        lams = lambda_grid(lambda_max_linear(ts, K), cfg.penalty.grid_size,
                           cfg.penalty.grid_ratio)
    _say(args, f"sweeping {lams.size} lambdas in [{lams[-1]:.4g}, {lams[0]:.4g}]")

    sweep = sweep_path(ts, K, kind, lams, arch, cfg.optimizer, seed, jobs=args.jobs)
    _report_fits(args, sweep)
    _warn_capped(sweep.converged, sweep.lambdas, cfg.optimizer.max_iters)

    rates = [edge_rates(truth, g, include_diag) for g in sweep.graphs]
    auc_val = auc([(0.0, 0.0), (1.0, 1.0), *rates])
    try:
        auc_nd = auc(roc_points(truth, sweep.graphs, include_diagonal=False))
    except DegenerateTruthError:
        auc_nd = float("nan")

    out = _outdir(args)
    graph_dir = os.path.join(out, "graphs")
    os.makedirs(graph_dir, exist_ok=True)
    for li, g in enumerate(sweep.graphs):
        write_matrix_csv(os.path.join(graph_dir, f"graph_{li:02d}.csv"), g)
    write_roc_csv(os.path.join(out, "roc.csv"), sweep.lambdas, rates)
    write_auc_csv(os.path.join(out, "auc.csv"),
                  [{"generator": cfg.generator.kind, "T": T, "seed": seed,
                    "penalty": kind, "auc": auc_val, "auc_excl_diag": auc_nd}])
    write_edges_csv(os.path.join(out, "edges.csv"), sweep.lambdas,
                    sweep.active_edges(), sweep.active_lag_pairs())
    _say(args, f"auc {auc_val:.4f} (excl. diagonal {auc_nd:.4f}); "
               f"wrote {out}/roc.csv, {out}/auc.csv, {out}/edges.csv")
    return EXIT_OK


# ------------------------------------------------------------------ report


def cmd_report(args):
    rows, bad = [], 0
    for d in args.dirs:
        path = os.path.join(d, "auc.csv")
        try:
            rows.extend(read_auc_csv(path))
        except (DataError, OSError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            bad += 1
    if not rows:
        print("no readable sweep outputs; nothing to report", file=sys.stderr)
        return EXIT_DATA
    rows.sort(key=lambda r: (r["generator"], r["T"], r["seed"], r["penalty"]))
    write_auc_csv(args.out, rows)
    _say(args, f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_DATA if bad else EXIT_OK


# -------------------------------------------------------------------- main


def _positive_int(text):
    """argparse type of --jobs: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ngcausal",
        description="Nonlinear Granger-causal graph discovery with "
                    "sparsity-penalized per-series MLPs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, jobs=True):
        sp.add_argument("--config", required=True, help="YAML experiment config")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override generator.seed from the config")
        if jobs:
            sp.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1,
                            help="parallel fit workers (default: all cores)")
        sp.add_argument("--quiet", action="store_true", help="suppress progress output")

    sp = sub.add_parser("simulate", help="generate a dataset and its truth graph")
    common(sp, jobs=False)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("fit", help="fit all series at one penalty strength")
    common(sp)
    sp.add_argument("--data", required=True, help="dataset CSV")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("sweep", help="fit a descending lambda grid and score ROC/AUC")
    common(sp)
    sp.add_argument("--data", required=True, help="dataset CSV")
    sp.add_argument("--truth", required=True, help="ground-truth graph CSV")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("report", help="aggregate sweep AUC summaries into one table")
    sp.add_argument("dirs", nargs="+", help="sweep output directories")
    sp.add_argument("--out", required=True, help="aggregate CSV path")
    sp.add_argument("--quiet", action="store_true", help="suppress progress output")
    sp.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OptimizationError as exc:
        print(f"optimization error: {exc}", file=sys.stderr)
        return EXIT_OPTIM
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
