"""Child process of the benchmark.  It imports ngcausal from the checkout's
``src`` (the parent sets PYTHONPATH and pins BLAS to one thread) and prints
one JSON object per line on stdout.

    worker.py setup WORKLOAD SEED DIR [--trace-out F]
        set the workload up once, print {"event": "ready"} and exit; for the
        CLI workload also write dataset.csv and truth.csv into DIR
    worker.py sweep WORKLOAD SEED DIR [--trace-out F]
        library workloads: set up and print ready, then run one sweep for
        each "sweep" line read on stdin and print one {"event": "sweep"}
    worker.py cli --trace-out F [--fits-only] -- ARGS...
        run ``ngcausal ARGS`` with the tracer installed, or with only the fit
        spans wrapped, to count the fits of an untraced sweep

With --trace-out the tracer's totals are written to F as JSON.  A traced
sweep worker alternates untraced and traced sweeps, so one process gives
both sides of the tracing overhead.  Untraced sweeps wrap the fit spans
alone, so every sweep's fit count is checked.
"""

import argparse
import json
import os
import sys
import time
import traceback

import numpy as np

import checks
import workloads
from tracing import FIT_TARGETS, TARGETS, Tracer


def emit(**event):
    print(json.dumps(event), flush=True)


def import_ngcausal(traced):
    """Import the package; a traced process imports the CLI module and times it."""
    t0 = time.perf_counter()
    if traced:
        import ngcausal.cli  # noqa: F401
    import ngcausal
    return ngcausal, time.perf_counter() - t0


def set_up(ng, name, seed, out_dir):
    """Inputs of one workload: standardized series, truth and lambda grid for
    the library workloads; dataset.csv and truth.csv in out_dir for the CLI one."""
    ts, truth = workloads.generate(ng, name, seed)
    if workloads.WORKLOADS[name]["via"] == "cli":
        from ngcausal import io
        io.write_dataset_csv(os.path.join(out_dir, "dataset.csv"), ts)
        io.write_matrix_csv(os.path.join(out_dir, "truth.csv"), truth, ints=True)
        return None
    ts = ng.datasets.standardize(ts)[0]
    ev = ng.evaluation
    lams = ev.lambda_grid(ev.lambda_max_linear(ts, workloads.K),
                          workloads.GRID_SIZE, workloads.GRID_RATIO)
    return ts, truth, lams


def write_trace(path, phases, import_s):
    with open(path, "w") as fh:
        json.dump({"phases": phases, "import_s": import_s}, fh)


def cmd_setup(args):
    tracer = Tracer() if args.trace_out else None
    ng, import_s = import_ngcausal(tracer is not None)
    if tracer:
        tracer.install()
    set_up(ng, args.workload, args.seed, args.dir)
    emit(event="ready")
    if tracer:
        tracer.uninstall()
        write_trace(args.trace_out, {"setup": [tracer.snapshot()]}, [import_s])


def roundtrip_problems(graphs, out_dir):
    """Graphs written with ngcausal.io and read back must be bit-identical."""
    from ngcausal import io
    problems = []
    for li, g in enumerate(graphs):
        path = os.path.join(out_dir, f"graph_{li:02d}.csv")
        io.write_matrix_csv(path, g)
        if not np.array_equal(io.read_matrix_csv(path), g):
            problems.append(f"graph {li} changed in the CSV round trip")
    return problems


def cmd_sweep(args):
    spec = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace_out else None
    ng, import_s = import_ngcausal(tracer is not None)
    if tracer:
        tracer.install()
    ts, truth, lams = set_up(ng, args.workload, args.seed, args.dir)
    if tracer:
        tracer.uninstall()
        setup_snapshot = tracer.snapshot()
        tracer.reset()
    emit(event="ready")

    ev = ng.evaluation
    arch = ng.Architecture(hidden_sizes=(workloads.HIDDEN,))
    opt = ng.OptimizerConfig()
    first_graphs = None
    counter = Tracer(FIT_TARGETS)
    rounds = traced_rounds = 0
    while sys.stdin.readline().strip() == "sweep":
        traced = tracer is not None and rounds % 2 == 1
        spans = tracer if traced else counter
        fits_before = spans.calls["optim.fit"]
        spans.install()
        t0 = time.perf_counter()
        try:
            sw = ev.sweep_path(ts, workloads.K, spec["penalty"], lams, arch, opt,
                               args.seed, jobs=1)
            program_auc = ev.auc(ev.roc_points(truth, sw.graphs, include_diagonal=True))
        except Exception:  # a failed sweep is counted and the run goes on
            seconds = time.perf_counter() - t0
            spans.uninstall()
            traceback.print_exc()
            emit(event="sweep", seconds=seconds, traced=traced, failed=True)
        else:
            seconds = time.perf_counter() - t0
            spans.uninstall()
            problems = checks.library_sweep_problems(
                sw, truth, program_auc, workloads.GRID_SIZE, workloads.K,
                spec["penalty"] == "hierarchical", spec["auc_floor"])
            problems += checks.check_fits(spans.calls["optim.fit"] - fits_before,
                                          workloads.P, len(sw.graphs))
            problems += roundtrip_problems(sw.graphs, args.dir)
            if first_graphs is None:
                first_graphs = sw.graphs
            elif not all(np.array_equal(a, b) for a, b in zip(first_graphs, sw.graphs)):
                problems.append("graphs differ from the first sweep of this run")
            emit(event="sweep", seconds=seconds, traced=traced, failed=False,
                 auc=program_auc, problems=problems)
        traced_rounds += traced
        rounds += 1
    if tracer:
        write_trace(args.trace_out,
                    {"setup": [setup_snapshot], "sweep": [tracer.snapshot()],
                     "sweep_rounds": traced_rounds}, [import_s])


def cmd_cli(args):
    tracer = Tracer(FIT_TARGETS if args.fits_only else TARGETS)
    ng, import_s = import_ngcausal(True)
    tracer.install()
    try:
        code = ng.cli.main(args.cli_args)
    finally:
        tracer.uninstall()
    write_trace(args.trace_out, {"sweep": [tracer.snapshot()], "sweep_rounds": 1},
                [import_s])
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in ("setup", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("workload", choices=sorted(workloads.WORKLOADS))
        sp.add_argument("seed", type=int)
        sp.add_argument("dir")
        sp.add_argument("--trace-out")
    sp = sub.add_parser("cli")
    sp.add_argument("--trace-out", required=True)
    sp.add_argument("--fits-only", action="store_true")
    sp.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.cmd == "cli":
        args.cli_args = [a for a in args.cli_args if a != "--"]
        return cmd_cli(args)
    if args.cmd == "setup":
        return cmd_setup(args)
    return cmd_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
