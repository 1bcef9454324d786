"""The package against what the lambda-sweep benchmark in benchmarks/harness
relies on: its self-test cases, and the call counts of one traced sweep,
which also need every name the tracer wraps and the argument positions it
reads from the MLP kernels.  A program change that breaks the benchmark fails
here, not in a benchmark run.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ngcausal as ng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join(ROOT, "benchmarks", "harness")
SELFTEST = os.path.join(HARNESS, "selftest.py")
# The self-test cases run here as they are.  Its test_tracer is left out: it
# requires one penalty_value call per iteration plus one per fit, a count of
# the loop before the prox returned its penalty (now one per fit).
# test_tracer_counts_of_a_sweep below makes every other check of test_tracer
# with the counts of the current loop.
SELFTEST_CASES = ["test_auc_hand_cases", "test_library_checks", "test_cli_checks",
                  "test_workload_inputs", "test_fit_counter"]
REPLACED_CASES = ["test_tracer"]
RUN_CASES = """
import sys
sys.path.insert(0, sys.argv[1])
import selftest
for name in sys.argv[2:]:
    getattr(selftest, name)()
"""


@pytest.fixture
def harness(monkeypatch):
    """Import a module of benchmarks/harness by name."""
    monkeypatch.syspath_prepend(HARNESS)
    return importlib.import_module


def test_selftest_cases_all_accounted_for():
    with open(SELFTEST) as fh:
        tree = ast.parse(fh.read())
    cases = [node.name for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")]
    assert sorted(cases) == sorted(SELFTEST_CASES + REPLACED_CASES)


def test_selftest_cases_pass():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", RUN_CASES, HARNESS, *SELFTEST_CASES],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr


def test_every_span_keeps_a_live_binding(harness):
    # the tracer skips a binding that no longer exists, so a span left with
    # none would read 0 in every traced run instead of failing
    targets = harness("tracing").TARGETS
    importlib.import_module("ngcausal.cli")
    live = {span: False for _, _, span in targets}
    for module, attr, span in targets:
        live[span] |= callable(getattr(sys.modules.get(module), attr, None))
    assert [span for span, ok in live.items() if not ok] == []


def test_tracer_counts_of_a_sweep(harness, tmp_path):
    tracing, run = harness("tracing"), harness("run")
    p, K, T, n_lam, hidden = 4, 2, 300, 5, 3
    ts = ng.standardize(ng.VarGenConfig(p=p, K=K).generate(T, 0)[0])[0]
    lams = ng.lambda_grid(ng.lambda_max_linear(ts, K), n_lam, 100.0)
    original = ng._kernels.prox_hier
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sw = ng.sweep_path(ts, K, "hierarchical", lams,
                           ng.Architecture(hidden_sizes=(hidden,)),
                           ng.OptimizerConfig(), 0, jobs=1)
    finally:
        tracer.uninstall()
    assert ng._kernels.prox_hier is original
    calls, counts = tracer.calls, tracer.counts
    iters = int(sw.iterations.sum())
    assert calls["optim.fit"] == p * n_lam
    # one lagged design for the whole sweep, shared by every series
    assert calls["model.build_lagged"] == 1
    assert counts["optim.iterations"] == iters
    assert calls["kernels.mlp_loss_grad"] == iters
    assert calls["kernels.prox"] > iters           # some candidates backtracked
    # one forward pass per candidate, plus one per series for its first fit:
    # every later fit starts from the last forward pass of the one before
    assert calls["kernels.mlp_loss"] == calls["kernels.prox"] + p
    # the prox returns each candidate's penalty; fit computes it only at its start
    assert calls["penalties.penalty_value"] == p * n_lam
    # per fit: the lag profile and the starting penalty_value
    assert calls["kernels.norms"] == 2 * p * n_lam
    assert 0 < counts["optim.self_s"] < tracer.seconds["optim.fit"]
    # the flop counter reads dims and X from the kernels' positional arguments
    pairs = (p * K) * hidden + hidden
    forward = 2 * (T - K) * pairs
    backprop = 2 * (T - K) * hidden
    assert counts["kernels.mlp.flop"] == (calls["kernels.mlp_loss"] * forward
                                         + iters * (2 * forward + backprop))

    # one set-up phase plus one sweep round, as a traced benchmark run writes them
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"phases": {"setup": [tracer.snapshot()],
                                           "sweep": [tracer.snapshot()],
                                           "sweep_rounds": 1}, "import_s": [0.5]}))
    metrics = run.layer_metrics([str(path)], [{"seconds": 1.0, "traced": False},
                                              {"seconds": 1.1, "traced": True}])
    assert sorted(metrics) == sorted(m["name"] for m in run.declared_metrics(True))
    assert metrics["optim.fits"] == 2 * p * n_lam
    assert metrics["optim.backtracks"] == 2 * (calls["kernels.prox"] - iters)
    assert metrics["penalties.penalty_value.calls"] == 2 * p * n_lam
    assert np.isfinite(metrics["optim.us_per_iter"])


def test_cli_sweep_reads_the_same_with_the_benchmark_parser(harness, tmp_path):
    # the benchmark reads a CLI sweep's files with its own parser: every value
    # it reads must be what ngcausal.io reads, or what the raw text says
    checks = harness("checks")
    from ngcausal import cli, io
    p, K, n_lam = 3, 1, 4
    ts, truth = ng.VarGenConfig(p=p, K=K).generate(150, 0)
    data, truth_path, out = tmp_path / "dataset.csv", tmp_path / "truth.csv", tmp_path / "sw"
    io.write_dataset_csv(data, ts)
    io.write_matrix_csv(truth_path, truth, ints=True)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"model: {{K: {K}, hidden: [2]}}\n"
                   f"penalty: {{kind: group, grid_size: {n_lam}}}\n")
    assert cli.main(["sweep", "--config", str(cfg), "--data", str(data), "--truth",
                     str(truth_path), "--out", str(out), "--jobs", "1", "--quiet"]) == 0

    graphs = [truth_path] + sorted((out / "graphs").iterdir())
    assert len(graphs) == 1 + n_lam
    for path in graphs:
        ours, theirs = io.read_matrix_csv(path), checks.read_matrix(path)
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()

    [auc] = io.read_auc_csv(out / "auc.csv")
    [row] = checks.read_csv_rows(out / "auc.csv", skip_header=True)
    # repr: auc_excl_diag may be nan
    assert [repr(typ(v)) for (_, typ), v in zip(io.AUC_COLUMNS, row, strict=True)] == [
        repr(auc[name]) for name, _ in io.AUC_COLUMNS]

    for name, types in [("roc.csv", (float, float, float)), ("edges.csv", (float, int, int))]:
        lines = (out / name).read_text().splitlines()
        assert len(lines) == 1 + n_lam and all(lines)
        rows = checks.read_csv_rows(out / name, skip_header=True)
        assert rows == [line.split(",") for line in lines[1:]]
        for r in rows:  # each field parses as the type the benchmark reads it with
            [t(v) for t, v in zip(types, r, strict=True)]

    problems, program_auc = checks.cli_sweep_problems(str(out), str(truth_path), K, n_lam, 0.0)
    assert problems == [] and program_auc == auc["auc"]
