"""Fast self-test of the benchmark at tiny sizes: its own ROC/AUC routine on
hand-computed cases, every workload's output checks on tiny real sweeps and
on corrupted copies (which they must reject), the workload inputs, and the
tracer's counts.

    python3 benchmarks/harness/selftest.py        # from the root of a checkout, ~10 s

Exits 0 when every case passes.
"""

import copy
import json
import os
import re
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import ngcausal as ng  # noqa: E402
import ngcausal.cli  # noqa: E402,F401
import ngcausal.io  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import FIT_TARGETS, Tracer  # noqa: E402

TINY_P, TINY_K, TINY_T, TINY_GRID = 4, 2, 300, 5
WORK = os.path.join(HERE, "_work", "selftest")


class Failure(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise Failure(msg)


def expect_caught(problems, fragment):
    expect(any(fragment in p for p in problems),
           f"no problem mentioning {fragment!r} in {problems}")


def program_auc(truth, graphs, include_diagonal=True):
    return ng.auc(ng.roc_points(truth, graphs, include_diagonal=include_diagonal))


def test_auc_hand_cases():
    eye = np.eye(2)
    # points (0,0) (0,.5) (.5,1) (1,1): .5*(.5+1)/2 + .5*(1+1)/2
    graphs = [np.array([[1.0, 0], [0, 0]]), np.array([[1.0, 1], [0, 1]])]
    cases = [
        (eye, graphs, True, 0.875),
        (eye, [eye], True, 1.0),                       # perfect graph
        (eye, [], True, 0.5),                          # endpoints only
        (eye, [graphs[0], np.array([[0.0, 0], [0, 2]])], True, 0.75),  # FPR tie, max TPR
        (np.array([[1.0, 1], [0, 1]]), [np.array([[0.0, 1], [0, 0]])], True, 2 / 3),
        (np.array([[1.0, 1], [0, 1]]), [np.array([[0.0, 1], [0, 0]])], False, 1.0),
    ]
    for truth, gs, diag, want in cases:
        own = checks.roc_auc(truth, gs, include_diagonal=diag)
        expect(abs(own - want) < 1e-15, f"own auc {own} != hand value {want}")
        expect(abs(program_auc(truth, gs, diag) - want) < 1e-15,
               f"program auc differs from hand value {want}")
    expect(checks.rate_point(eye, graphs[1]) == (0.5, 1.0), "rate point of a 2x2 case")


def tiny_series(seed=0):
    ts, truth = ng.VarGenConfig(p=TINY_P, K=TINY_K).generate(TINY_T, seed)
    ts = ng.standardize(ts)[0]
    lams = ng.lambda_grid(ng.lambda_max_linear(ts, TINY_K), TINY_GRID, 100.0)
    return ts, truth, lams


def tiny_sweep(kind, seed=0):
    ts, truth, lams = tiny_series(seed)
    sw = ng.sweep_path(ts, TINY_K, kind, lams, ng.Architecture(hidden_sizes=(3,)),
                       ng.OptimizerConfig(), seed, jobs=1)
    return sw, truth


def test_library_checks():
    for kind in ("hierarchical", "group"):
        sw, truth = tiny_sweep(kind)
        auc = program_auc(truth, sw.graphs)
        hier = kind == "hierarchical"
        ok = checks.library_sweep_problems(sw, truth, auc, TINY_GRID, TINY_K, hier, 0.0)
        expect(ok == [], f"{kind}: clean tiny sweep reported {ok}")

        def problems(bad, auc=auc, floor=0.0):
            return checks.library_sweep_problems(bad, truth, auc, TINY_GRID, TINY_K, hier,
                                                 floor)

        li = len(sw.graphs) - 1
        i, j = map(int, np.argwhere(sw.graphs[li] > 0)[0])
        bad = copy.deepcopy(sw)
        bad.graphs[li][i, j] = -1.0
        expect_caught(problems(bad), "negative")
        bad = copy.deepcopy(sw)
        bad.graphs[li][i, j] *= 1.01
        expect_caught(problems(bad), "lag-profile row norms")
        bad = copy.deepcopy(sw)
        bad.lag_profiles[li][i, j, 0] = 0.0
        expect_caught(problems(bad), "lag")
        if hier:
            expect_caught(problems(bad), "a nonzero lag follows a zero lag")
        expect_caught(problems(sw, auc=auc + 0.01), "own ROC/trapezoid auc")
        expect_caught(problems(sw, floor=auc + 0.01), "below the floor")
        for forged in (0, TINY_K + 1):
            bad = copy.deepcopy(sw)
            bad.active_lag_pairs = lambda f=forged: f * sw.active_edges()
            expect_caught(problems(bad), "active lag pairs")
        bad = copy.deepcopy(sw)
        bad.graphs.pop()
        expect_caught(problems(bad), "graphs for")


def rewrite(path, edit):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(text))


def test_cli_checks():
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    config = os.path.join(WORK, "config.yaml")
    with open(config, "w") as fh:
        fh.write(f"generator: {{kind: var, p: {TINY_P}, T: {TINY_T}, seed: 3, "
                 f"var: {{K: {TINY_K}}}}}\n"
                 f"model: {{K: {TINY_K}, hidden: [3]}}\n"
                 f"penalty: {{kind: group, grid_size: {TINY_GRID}}}\n")
    code = ng.cli.main(["simulate", "--config", config, "--out", WORK, "--quiet"])
    expect(code == 0, f"simulate exited {code}")
    out = os.path.join(WORK, "sweep")
    truth = os.path.join(WORK, "truth.csv")
    code = ng.cli.main(["sweep", "--config", config, "--data", os.path.join(WORK, "dataset.csv"),
                        "--truth", truth, "--out", out, "--jobs", "1", "--quiet"])
    expect(code == 0, f"sweep exited {code}")

    def problems(floor=0.0):
        return checks.cli_sweep_problems(out, truth, TINY_K, TINY_GRID, floor)

    ok, auc = problems()
    expect(ok == [], f"clean tiny CLI sweep reported {ok}")
    expect(problems(floor=auc + 0.01)[0] != [], "auc floor not enforced")
    backup = os.path.join(WORK, "backup")
    shutil.copytree(out, backup)
    corruptions = [
        ("edges.csv", lambda t: t.replace(",", ",9", 4), "active edges"),
        ("edges.csv", lambda t: re.sub(r",\d+$", ",0", t, flags=re.M), "active lag pairs"),
        ("auc.csv", lambda t: t.replace(",0.", ",0.0", 1), "own ROC/trapezoid auc"),
        ("roc.csv", lambda t: t.replace(",0,", ",0.5,", 1) if ",0," in t else t + "1,0.5,0.5\n",
         "roc.csv points"),
        ("graphs/graph_04.csv", lambda t: "-" + t, "negative"),
    ]
    for name, edit, fragment in corruptions:
        rewrite(os.path.join(out, name), edit)
        expect_caught(problems()[0], fragment)
        shutil.rmtree(out)
        shutil.copytree(backup, out)
    os.remove(os.path.join(out, "graphs", "graph_00.csv"))
    expect_caught(problems()[0], "graphs for")
    shutil.rmtree(WORK)


def test_workload_inputs():
    for name, spec in workloads.WORKLOADS.items():
        a, truth_a = workloads.generate(ng, name, 5)
        b, _ = workloads.generate(ng, name, 5)
        c, truth_c = workloads.generate(ng, name, 6)
        expect(a.shape == (spec["T"], workloads.P), f"{name}: series shape {a.shape}")
        expect(np.array_equal(a, b), f"{name}: same seed gave different series")
        expect(not np.array_equal(a, c), f"{name}: another seed gave the same series")
        expect(np.array_equal(truth_a, truth_c), f"{name}: truth depends on the seed")
        cfg = ngcausal.io.config_from_dict(yaml.safe_load(workloads.cli_config(name, 5)))
        expect((cfg.generator.T, cfg.model.K, cfg.penalty.kind, cfg.penalty.grid_size)
               == (spec["T"], workloads.K, spec["penalty"], workloads.GRID_SIZE),
               f"{name}: CLI config does not match the workload")


def test_fit_counter():
    counter = Tracer(FIT_TARGETS)
    counter.install()
    try:
        tiny_sweep("group")
    finally:
        counter.uninstall()
    n_fits = counter.calls["optim.fit"]
    expect(checks.check_fits(n_fits, TINY_P, TINY_GRID) == [], f"{n_fits} fits counted")
    expect_caught(checks.check_fits(n_fits - 1, TINY_P, TINY_GRID), "fits for p=")
    expect(set(counter.calls) == {"optim.fit"}, "the fit counter wrapped other spans")


def test_tracer():
    original = ng._kernels.prox_hier
    tracer = Tracer()
    tracer.install()
    try:
        sw, truth = tiny_sweep("hierarchical")
    finally:
        tracer.uninstall()
    expect(ng._kernels.prox_hier is original, "uninstall did not restore the kernels")
    iters = int(sw.iterations.sum())
    expect(tracer.calls["optim.fit"] == TINY_P * TINY_GRID, "fit count")
    expect(tracer.counts["optim.iterations"] == iters, "iteration count")
    expect(tracer.calls["kernels.mlp_loss_grad"] == iters, "one gradient per iteration")
    expect(tracer.calls["kernels.prox"] >= iters, "a prox call per candidate")
    expect(tracer.calls["penalties.penalty_value"] == iters + TINY_P * TINY_GRID,
           "one penalty value per iteration and per fit start")
    expect(0 < tracer.counts["optim.self_s"] < tracer.seconds["optim.fit"], "fit self time")

    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "trace.json")
    with open(path, "w") as fh:
        json.dump({"phases": {"setup": [tracer.snapshot()], "sweep": [tracer.snapshot()],
                              "sweep_rounds": 1}, "import_s": [0.5]}, fh)
    sweeps = [{"seconds": 1.0, "traced": False}, {"seconds": 1.1, "traced": True}]
    metrics = run.layer_metrics([path], sweeps)
    declared = [m["name"] for m in run.declared_metrics(True)]
    expect(sorted(metrics) == sorted(declared), "layer metrics differ from BENCHMARK.json")
    expect(metrics["optim.fits"] == 2 * TINY_P * TINY_GRID, "setup plus sweep phases")
    shutil.rmtree(WORK)


def main():
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except Failure as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
