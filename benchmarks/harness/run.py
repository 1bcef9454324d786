"""Benchmark of ngcausal's lambda sweep, driven from outside the program.

    python3 benchmarks/harness/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src``; no
program file is changed.  Every child process runs one fit worker with BLAS
pinned to one thread.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
See benchmarks/harness/README.md for the workloads, metrics and reference figures.
"""

import argparse
import glob
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SETUPS = 5              # set-up samples per untraced run; setup_s is their median


class BenchError(Exception):
    """The benchmark could not run the workload at all."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_setup(name, seed, out_dir, trace_out=None):
    """One set-up child run to its end; seconds from spawn to its ready line."""
    os.makedirs(out_dir)
    argv = [sys.executable, WORKER, "setup", name, str(seed), out_dir]
    if trace_out:
        argv += ["--trace-out", trace_out]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT)
    with proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise BenchError(f"set-up of {name} exited with {proc.returncode}")
    return ready


def interleave(setup, sweep, n_setups, min_sweeps, deadline):
    """Alternate set-ups and whole sweeps (S W S W ...) until the next sweep
    would end after the deadline, then take the set-ups still owed.  Spread
    over the run, both kinds of sample see the same drift in host speed."""
    setup_times, sweep_times = [], []
    while True:
        if len(setup_times) < n_setups:
            setup_times.append(setup(len(setup_times)))
        if len(sweep_times) >= min_sweeps:
            owed = (n_setups - len(setup_times)) * statistics.median(setup_times or [0.0])
            if time.perf_counter() + sweep_times[-1] + owed > deadline:
                break
        sweep_times.append(sweep(len(sweep_times)))
    while len(setup_times) < n_setups:
        setup_times.append(setup(len(setup_times)))
    return setup_times, sweep_times


class Tally:
    """Sweeps attempted and failed, and every problem a check found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.sweeps = []         # per sweep: {"seconds", "traced"}

    def sweep(self, seconds, traced, failed, problems=()):
        self.attempted += 1
        self.failed += bool(failed)
        self.problems += list(problems)
        self.sweeps.append({"seconds": seconds, "traced": traced})
        return seconds


def end_to_end(tally, setup_times, auc):
    if auc is None:
        raise BenchError("every sweep failed")
    return {
        "sweep_s": statistics.median(s["seconds"] for s in tally.sweeps),
        "setup_s": statistics.median(setup_times),
        "auc": auc,
        "peak_rss_mb": peak_rss_mb(),
    }


# ------------------------------------------------------------ library workloads


def run_library(name, seed, trace, work, deadline):
    """Sweeps in one worker process, driven over its stdin; set-up children
    run while the worker waits."""
    tally = Tally()
    trace_out = os.path.join(work, "trace.json")
    argv = [sys.executable, WORKER, "sweep", name, str(seed), work]
    if trace:
        argv += ["--trace-out", trace_out]
    aucs = []
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    with proc:
        ready = proc.stdout.readline()
        worker_setup = time.perf_counter() - t0
        if not ready:
            raise BenchError("sweep worker failed during set-up")

        def sweep(_):
            proc.stdin.write("sweep\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            if not line:
                raise BenchError("sweep worker ended early")
            e = json.loads(line)
            if not e["failed"]:
                aucs.append(e["auc"])
            return tally.sweep(e["seconds"], e["traced"], e["failed"], e.get("problems", ()))

        def setup(k):
            return run_setup(name, seed, os.path.join(work, f"setup_{k}"))

        setup_times, _ = interleave(setup, sweep, 0 if trace else SETUPS - 1,
                                    2 if trace else 1, deadline)
        proc.stdin.close()
    if proc.returncode != 0:
        raise BenchError(f"sweep worker exited with {proc.returncode}")
    if trace:
        return tally, layer_metrics([trace_out], tally.sweeps)
    return tally, end_to_end(tally, [worker_setup] + setup_times, aucs[0] if aucs else None)


# --------------------------------------------------------------- CLI workload


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, os.path.dirname(paths[0])).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_cli(name, seed, trace, work, deadline):
    """Set-up children write the data files; each sweep is one CLI process."""
    spec = workloads.WORKLOADS[name]
    tally = Tally()
    config = os.path.join(work, "config.yaml")
    with open(config, "w") as fh:
        fh.write(workloads.cli_config(name, seed))
    data_dir = os.path.join(work, "setup_0")
    truth_path = os.path.join(data_dir, "truth.csv")
    out = os.path.join(work, "sweep")
    cli_args = ["sweep", "--config", config, "--data", os.path.join(data_dir, "dataset.csv"),
                "--truth", truth_path, "--out", out, "--seed", str(seed), "--jobs", "1",
                "--quiet"]
    trace_files, data_digests, out_digests, aucs = [], set(), set(), []

    def setup(k):
        d = os.path.join(work, f"setup_{k}")
        trace_out = os.path.join(work, "trace_setup.json") if trace else None
        seconds = run_setup(name, seed, d, trace_out)
        data_digests.add(digest([os.path.join(d, "dataset.csv"), os.path.join(d, "truth.csv")]))
        if trace:
            trace_files.append(trace_out)
        return seconds

    def sweep(k):
        traced = trace and k % 2 == 1
        trace_out = os.path.join(work, f"trace_sweep_{k}.json")
        argv = [sys.executable, WORKER, "cli", "--trace-out", trace_out]
        if not traced:
            argv.append("--fits-only")
        argv += ["--"] + cli_args
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        code = subprocess.run(argv, env=child_env(), cwd=ROOT, stdout=sys.stderr).returncode
        seconds = time.perf_counter() - t0
        if code != 0:
            print(f"sweep exited with {code}", file=sys.stderr)
            return tally.sweep(seconds, traced, True)
        problems, auc = checks.cli_sweep_problems(out, truth_path, workloads.K,
                                                  workloads.GRID_SIZE, spec["auc_floor"])
        aucs.append(auc)
        out_digests.add(digest(sorted(glob.glob(os.path.join(out, "**", "*.csv"),
                                                recursive=True))))
        if len(out_digests) > 1:
            problems.append("sweep outputs differ from the first sweep of this run")
        with open(trace_out) as fh:
            n_fits = json.load(fh)["phases"]["sweep"][0]["calls"].get("optim.fit", 0)
        problems += checks.check_fits(n_fits, workloads.P, workloads.GRID_SIZE)
        if traced:
            trace_files.append(trace_out)
        return tally.sweep(seconds, traced, False, problems)

    first = setup(0)        # the sweeps read the data files it writes
    setup_times, _ = interleave(lambda k: setup(k + 1), sweep, 0 if trace else SETUPS - 1,
                                2 if trace else 1, deadline)
    if len(data_digests) != 1:
        tally.problems.append("set-up runs wrote different dataset or truth files")
    if trace:
        return tally, layer_metrics(trace_files, tally.sweeps)
    return tally, end_to_end(tally, [first] + setup_times, aucs[0] if aucs else None)


# ------------------------------------------------------------------- metrics


def peak_rss_mb():
    """Largest resident set of any finished child (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def layer_metrics(trace_files, sweeps):
    """Per-layer figures for one set-up plus one sweep: set-up spans averaged
    over the traced set-ups, sweep spans over the traced sweeps."""
    setup, sweep, rounds, import_s = [], [], 0, []
    for path in trace_files:
        with open(path) as fh:
            doc = json.load(fh)
        setup += doc["phases"].get("setup", [])
        sweep += doc["phases"].get("sweep", [])
        rounds += doc["phases"].get("sweep_rounds", 0)
        import_s += doc["import_s"]

    def total(kind, key):
        per_setup = sum(s[kind].get(key, 0.0) for s in setup) / max(len(setup), 1)
        return per_setup + sum(s[kind].get(key, 0.0) for s in sweep) / rounds

    m = {}
    for layer in ("kernels.mlp_loss_grad", "kernels.mlp_loss", "kernels.prox",
                  "kernels.norms", "penalties.penalty_value", "model.build_lagged"):
        m[layer + ".calls"] = total("calls", layer)
        m[layer + ".s"] = total("seconds", layer)
    m["kernels.mlp.gflop"] = total("counts", "kernels.mlp.flop") / 1e9
    m["kernels.mlp.gflop_per_s"] = m["kernels.mlp.gflop"] / (
        m["kernels.mlp_loss_grad.s"] + m["kernels.mlp_loss.s"])
    m["optim.fits"] = total("calls", "optim.fit")
    m["optim.iterations"] = total("counts", "optim.iterations")
    m["optim.backtracks"] = m["kernels.prox.calls"] - m["optim.iterations"]
    m["optim.capped_fits"] = total("counts", "optim.capped_fits")
    m["optim.self_s"] = total("counts", "optim.self_s")
    m["optim.us_per_iter"] = 1e6 * total("seconds", "optim.fit") / m["optim.iterations"]
    m["evaluation.lambda_max_linear.s"] = total("seconds", "evaluation.lambda_max_linear")
    m["evaluation.scoring.s"] = total("seconds", "evaluation.scoring")
    m["datasets.generate.s"] = total("seconds", "datasets.generate")
    m["datasets.standardize.s"] = total("seconds", "datasets.standardize")
    m["io.read_s"] = total("seconds", "io.read")
    m["io.write_s"] = total("seconds", "io.write")
    m["io.bytes_written"] = total("counts", "io.bytes_written")
    m["cli.import_s"] = statistics.mean(import_s)
    untraced = [s["seconds"] for s in sweeps if not s["traced"]]
    traced = [s["seconds"] for s in sweeps if s["traced"]]
    base = statistics.median(untraced)
    m["trace.overhead_s"] = statistics.median(traced) - base
    m["trace.overhead_pct"] = 100.0 * m["trace.overhead_s"] / base
    return m


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    start = time.perf_counter()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "ngcausal", "__init__.py")):
        print(f"no program source at {SRC}/ngcausal: run from the root of a checkout",
              file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))

    work = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    run = run_cli if workloads.WORKLOADS[args.workload]["via"] == "cli" else run_library
    try:
        tally, values = run(args.workload, args.seed, bool(args.trace), work,
                            start + args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
