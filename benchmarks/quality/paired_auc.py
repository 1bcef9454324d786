"""Paired recovery quality of two source trees on the acceptance gate's sweeps.

    python3 benchmarks/quality/paired_auc.py --base SRC --change SRC [--label NAME]
        [--seeds 13] [--p 10] [--T 1000] [--out DIR]

SRC is a directory that holds the ``ngcausal`` package (a checkout's
``src``).  Each tree runs in its own subprocess with ngcausal imported from
it and BLAS pinned to one thread, the two at once.  Both sweep the gate's
three configurations, VAR with the group and with the hierarchical penalty
and Lorenz-96 (F=5) with the group penalty, with the gate's sweep,
``gate_sweep`` (which ``tests/test_acceptance.py`` runs too), on seeds
0..``--seeds``-1.  Seeds 0-4 are the gate's; seeds from 5 on are held out.

It prints, per configuration and seed, each tree's AUC, iterations,
backtracks and capped fits, and per configuration and seed group the mean
paired difference (change minus base) of each with a 95% bootstrap
interval over seeds.  Each sweep is also hashed (sha256 of its lambdas, lag
profiles, iterations, backtracks, objectives and last models' thetas), and
per configuration it prints whether the two trees agree bit for bit on
every seed.  It writes the same as ``BENCH_quality_<label>.json`` in
``--out`` (default: this directory).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import numpy as np

CONFIGS = {
    "var-group": ("var", "group"),
    "var-hierarchical": ("var", "hierarchical"),
    "lorenz-group": ("lorenz", "group"),
}
GATE_SEEDS = 5          # seeds below this are the gate's, the rest held out
METRICS = ("auc", "iterations", "backtracks", "capped")
BOOTSTRAP = 10_000


def gate_sweep(generator, kind, T, seed, jobs=1):
    """(AUC, sweep, truth) of the acceptance gate's sweep: ``generator``'s
    series of T rows at ``seed``, standardized and swept with penalty
    ``kind`` down a grid of 20 lambdas from its ``lambda_max_linear`` to
    1/100 of it, by a K=3 model with one tanh layer of width 10 and the
    default optimizer, initialized from ``seed``."""
    from ngcausal.datasets import standardize
    from ngcausal.evaluation import auc, lambda_grid, lambda_max_linear, roc_points, sweep_path
    from ngcausal.model import Architecture
    from ngcausal.optim import OptimizerConfig

    ts, truth = generator.generate(T, seed)
    ts = standardize(ts)[0]
    lams = lambda_grid(lambda_max_linear(ts, 3), 20, 100.0)
    sw = sweep_path(ts, 3, kind, lams, Architecture(hidden_sizes=(10,)),
                    OptimizerConfig(), seed, jobs=jobs)
    return auc(roc_points(truth, sw.graphs)), sw, truth


def sweep_digest(sw):
    """sha256 of a sweep's lambdas, lag profiles, iterations, backtracks,
    objectives and last models' thetas, as hex."""
    h = hashlib.sha256()
    for a in (sw.lambdas, sw.lag_profiles, sw.iterations, sw.backtracks, sw.objectives,
              *(m.theta for m in sw.models)):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def run_tree(args):
    """Child side: every configuration and seed on the ngcausal importable
    here; prints one JSON object {config: {metric: [per seed]}}."""
    from ngcausal.datasets import LorenzGenConfig, VarGenConfig

    generators = {"var": VarGenConfig(p=args.p, K=3), "lorenz": LorenzGenConfig(p=args.p, F=5.0)}
    results = {}
    for name, (data, kind) in CONFIGS.items():
        rows = {m: [] for m in (*METRICS, "sha256")}
        for seed in range(args.seeds):
            area, sw, _ = gate_sweep(generators[data], kind, args.T, seed)
            rows["auc"].append(area)
            rows["iterations"].append(int(sw.iterations.sum()))
            rows["backtracks"].append(int(sw.backtracks.sum()))
            rows["capped"].append(int((~sw.converged).sum()))
            rows["sha256"].append(sweep_digest(sw))
        results[name] = rows
    print(json.dumps(results))


def start_tree(src, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, os.path.abspath(__file__), "--run-tree", "--seeds", str(args.seeds),
            "--p", str(args.p), "--T", str(args.T)]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)


def finish_tree(proc, src):
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"the sweeps of {src} exited with {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def paired(base, change, rng):
    """Mean of the paired differences and its 95% bootstrap interval over seeds."""
    d = np.asarray(change, dtype=float) - np.asarray(base, dtype=float)
    means = d[rng.integers(0, d.size, size=(BOOTSTRAP, d.size))].mean(axis=1)
    return {"mean": float(d.mean()), "ci95": [float(np.percentile(means, 2.5)),
                                              float(np.percentile(means, 97.5))]}


def compare(base, change, seeds):
    """Per configuration: both trees' per-seed values, whether their sweeps
    agree bit for bit on every seed, and per seed group each tree's mean
    AUC and totals and the paired differences of each metric."""
    groups = {"gate": slice(0, GATE_SEEDS), "held_out": slice(GATE_SEEDS, seeds)}
    report = {}
    for name in CONFIGS:
        rng = np.random.default_rng(0)
        b, c = base[name], change[name]
        report[name] = {"base": b, "change": c, "identical": b["sha256"] == c["sha256"],
                        "groups": {}}
        for group, part in groups.items():
            if not b["auc"][part]:
                continue
            report[name]["groups"][group] = {
                "mean_auc": {"base": float(np.mean(b["auc"][part])),
                             "change": float(np.mean(c["auc"][part]))},
                "totals": {tree: {m: int(sum(res[m][part])) for m in METRICS[1:]}
                           for tree, res in (("base", b), ("change", c))},
                "differences": {m: paired(b[m][part], c[m][part], rng) for m in METRICS}}
    return report


def print_report(report, seeds):
    for name, res in report.items():
        differ = [s for s in range(seeds) if res["base"]["sha256"][s] != res["change"]["sha256"][s]]
        print(f"\n{name}: " + ("bit-identical on every seed" if res["identical"]
                               else f"sweeps differ on seeds {differ}"))
        print("seed   auc base  auc chg   iters base/chg   backtracks base/chg   capped")
        b, c = res["base"], res["change"]
        for s in range(seeds):
            print(f"{s:4d}   {b['auc'][s]:.4f}   {c['auc'][s]:.4f}   "
                  f"{b['iterations'][s]:6d}/{c['iterations'][s]:<6d}   "
                  f"{b['backtracks'][s]:6d}/{c['backtracks'][s]:<6d}          "
                  f"{b['capped'][s]}/{c['capped'][s]}")
        for group, g in res["groups"].items():
            tb, tc = g["totals"]["base"], g["totals"]["change"]
            print(f"  {group}: mean AUC {g['mean_auc']['base']:.4f} -> "
                  f"{g['mean_auc']['change']:.4f}; iterations {tb['iterations']} -> "
                  f"{tc['iterations']}, backtracks {tb['backtracks']} -> "
                  f"{tc['backtracks']}, capped {tb['capped']} -> {tc['capped']}")
            for m, d in g["differences"].items():
                print(f"    {m:10s} mean change - base {d['mean']:+.4f}, "
                      f"95% CI [{d['ci95'][0]:+.4f}, {d['ci95'][1]:+.4f}]")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base")
    ap.add_argument("--change")
    ap.add_argument("--label", default="paired")
    ap.add_argument("--seeds", type=int, default=13)
    ap.add_argument("--p", type=int, default=10)
    ap.add_argument("--T", type=int, default=1000)
    ap.add_argument("--out", default=os.path.dirname(os.path.abspath(__file__)))
    ap.add_argument("--run-tree", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run_tree:
        run_tree(args)
        return
    if not (args.base and args.change):
        ap.error("--base and --change are required")
    procs = [start_tree(src, args) for src in (args.base, args.change)]
    base, change = (finish_tree(proc, src) for proc, src in zip(procs, (args.base, args.change)))
    report = compare(base, change, args.seeds)
    print_report(report, args.seeds)
    doc = {"label": args.label,
           "settings": {"seeds": args.seeds, "gate_seeds": GATE_SEEDS, "p": args.p,
                        "T": args.T, "K": 3, "hidden": [10], "grid": 20},
           "configs": report}
    path = os.path.join(args.out, f"BENCH_quality_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
