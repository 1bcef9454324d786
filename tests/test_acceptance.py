"""Acceptance gate for the paper's recovery and determinism claims.

Fixed-seed sweeps at the README defaults: p=10 series, T=1000 rows, a model
with K=3 lags and one tanh hidden layer of width 10, a 20-point lambda grid
anchored at the data's lambda_max, the default optimizer, and
generator/initialization seeds 0-4, as ``gate_sweep`` of
``benchmarks/quality/paired_auc.py`` runs them.  VAR data is swept with
the group and the hierarchical penalty, Lorenz-96 data (F=5) with the
group penalty.  Each
mean AUC must stay above its floor: a measured mean minus 0.02 (the VAR
ones with the row-major MLP kernels, the Lorenz one with the shrink-only
step rule that preceded the Barzilai-Borwein start).  No fit may stop at
max_iters, and each VAR penalty's five sweeps must take at most 9,000
iterations in all.  On VAR(1) data under the same K=3 model, the
hierarchical penalty must also find the true lag order of the edges it
recovers more often than the group penalty does.  CLI ``sweep`` outputs
must not depend on --jobs, nor, at T=4000, on the BLAS thread count, and
neither may the grid anchor at p=30.
CHANGES.md records the measured values, and the README states the floors
and the ceiling as set here.

Run ``pytest tests/test_acceptance.py -v -s`` for one line per criterion.
"""

import os
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

import ngcausal
from ngcausal.cli import main
from ngcausal.datasets import LorenzGenConfig, VarGenConfig
from ngcausal.evaluation import edge_rates
from paired_auc import gate_sweep

SEEDS = range(5)
# measured means 0.9157 (group) and 0.8776 (hierarchical), minus 0.02
AUC_FLOORS = {"group": 0.8957, "hierarchical": 0.8575}
# measured mean 0.8640, minus 0.02
LORENZ_AUC_FLOOR = 0.8440
# total iterations of the five sweeps of one penalty, measured 6,818 (group)
# and 7,421 (hierarchical) with the first layer's bias in the design (6,795
# and 7,482 before, a change of rounding only), with the line search
# restarting at initial_step after a move with s.y <= 0; keeping the last
# accepted step there took 8,066 and 9,365, and the shrink-only step rule
# about 30,500 and 31,400
VAR_ITERATION_CEILING = 9_000
# VAR(1) truth, K=3 model: share of recovered true edges fit with lag order
# 1, measured 0.720, 0.536, 0.630, 0.577, 0.409 (mean 0.574) hierarchical
# and 0.0 group (which zeroes no single lag), minus 0.05
LAG_ORDER_FLOOR = 0.524


def _sweeps(generator, kind, jobs=1):
    """Per seed: (AUC, sweep, truth) of the gate's sweep of ``generator``'s
    series with penalty ``kind``."""
    return [gate_sweep(generator, kind, 1000, seed, jobs) for seed in SEEDS]


def _aucs(runs):
    return np.array([a for a, _, _ in runs])


def _capped_and_iterations(runs):
    capped = sum(int((~sw.converged).sum()) for _, sw, _ in runs)
    iters = sum(int(sw.iterations.sum()) for _, sw, _ in runs)
    return capped, iters


@pytest.fixture(scope="module", params=sorted(AUC_FLOORS))
def var_sweeps(request):
    kind = request.param
    return kind, _sweeps(VarGenConfig(p=10, K=3), kind)


@pytest.fixture(scope="module")
def lorenz_sweeps():
    return _sweeps(LorenzGenConfig(p=10, F=5.0), "group")


def test_var_mean_auc_floor(var_sweeps):
    kind, runs = var_sweeps
    aucs = _aucs(runs)
    mean = float(aucs.mean())
    print(f"\nVAR {kind}: mean AUC {mean:.4f} over seeds {list(SEEDS)} "
          f"(floor {AUC_FLOORS[kind]}); per seed "
          + ", ".join(f"{a:.4f}" for a in aucs))
    assert mean >= AUC_FLOORS[kind]


def test_var_fits_all_converge(var_sweeps):
    # early stopping sets graph quality: a fit capped at max_iters is a defect
    kind, runs = var_sweeps
    capped, iters = _capped_and_iterations(runs)
    print(f"\nVAR {kind}: {iters} iterations, {capped} capped fits")
    assert capped == 0


def test_var_iteration_ceiling(var_sweeps):
    kind, runs = var_sweeps
    _, iters = _capped_and_iterations(runs)
    print(f"\nVAR {kind}: {iters} iterations (ceiling {VAR_ITERATION_CEILING})")
    assert iters <= VAR_ITERATION_CEILING


def test_lorenz_mean_auc_floor(lorenz_sweeps):
    aucs = _aucs(lorenz_sweeps)
    mean = float(aucs.mean())
    print(f"\nLorenz group: mean AUC {mean:.4f} over seeds {list(SEEDS)} "
          f"(floor {LORENZ_AUC_FLOOR}); per seed "
          + ", ".join(f"{a:.4f}" for a in aucs))
    assert mean >= LORENZ_AUC_FLOOR


def test_lorenz_fits_all_converge(lorenz_sweeps):
    capped, iters = _capped_and_iterations(lorenz_sweeps)
    print(f"\nLorenz group: {iters} iterations, {capped} capped fits")
    assert capped == 0


def _lag_order_one_share(runs):
    """Per seed, at the lambda that maximizes TPR - FPR: the share of the
    recovered true edges whose lag profile is zero beyond lag 1."""
    shares = []
    for _, sw, truth in runs:
        rates = [edge_rates(truth, g) for g in sw.graphs]
        best = int(np.argmax([tpr - fpr for fpr, tpr in rates]))
        found = (truth > 0) & (sw.graphs[best] > 0)
        lags = sw.lag_profiles[best][found]          # (recovered edges, K)
        shares.append(float(np.mean(~lags[:, 1:].any(axis=1))))
    return shares


def test_hierarchical_finds_lag_order_below_model_k():
    # sweeps do not depend on jobs; two workers shorten the run
    shares = {kind: _lag_order_one_share(_sweeps(VarGenConfig(p=10, K=1), kind, jobs=2))
              for kind in ("hierarchical", "group")}
    means = {kind: float(np.mean(v)) for kind, v in shares.items()}
    for kind, v in shares.items():
        print(f"\nVAR(1), K=3 model, {kind}: lag-order-1 share {means[kind]:.3f}; "
              "per seed " + ", ".join(f"{x:.3f}" for x in v))
    assert means["hierarchical"] >= LAG_ORDER_FLOOR
    assert means["hierarchical"] > means["group"]


def test_readme_states_the_gate_constants():
    # the README's gate paragraph quotes every floor and the ceiling as set
    # here, so changing one of them without the README fails
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        text = fh.read()
    paragraph = re.search(r"The acceptance gate, `tests/test_acceptance.py`.*?\n\n",
                          text, re.S).group(0)
    paragraph = " ".join(paragraph.split())
    stated = {f"{AUC_FLOORS['group']:.4f} VAR group",
              f"{AUC_FLOORS['hierarchical']:.4f} VAR hierarchical",
              f"{LORENZ_AUC_FLOOR:.4f} Lorenz group",
              f"at most {VAR_ITERATION_CEILING:,} iterations"}
    assert {s for s in stated if s not in paragraph} == set()


def _tree_bytes(root):
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def test_cli_sweep_bytes_independent_of_jobs(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({
        "generator": {"kind": "var", "p": 10, "T": 400, "seed": 3},
        "model": {"K": 3, "hidden": [10]},
        "penalty": {"kind": "hierarchical", "grid_size": 6},
    }))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data), "--quiet"]) == 0
    outs = {}
    for jobs in (1, 2):
        out = tmp_path / f"sweep_jobs{jobs}"
        assert main(["sweep", "--config", str(cfg), "--data", str(data / "dataset.csv"),
                     "--truth", str(data / "truth.csv"), "--out", str(out),
                     "--jobs", str(jobs), "--quiet"]) == 0
        outs[jobs] = _tree_bytes(out)
    print(f"\nCLI sweep: {len(outs[1])} output files, byte-identical for --jobs 1 and 2")
    assert "graphs/graph_05.csv" in outs[1]
    assert outs[1] == outs[2]


def test_cli_sweep_bytes_independent_of_blas_threads(tmp_path):
    # at T=4000 an unblocked product over the data rows, such as the first
    # layer's, is past OpenBLAS's small-matrix limit, where it runs threaded
    # and its bits follow the thread count; unset means one thread per core
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({
        "generator": {"kind": "var", "p": 10, "T": 4000, "seed": 1},
        "model": {"K": 3, "hidden": [10]},
        "penalty": {"kind": "hierarchical", "grid_size": 4},
    }))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data), "--quiet"]) == 0
    src = os.path.dirname(os.path.dirname(ngcausal.__file__))
    outs = {}
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = src
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"sweep_threads_{threads}"
        subprocess.run([sys.executable, "-m", "ngcausal.cli", "sweep", "--config", str(cfg),
                        "--data", str(data / "dataset.csv"), "--truth", str(data / "truth.csv"),
                        "--out", str(out), "--jobs", "1", "--quiet"],
                       env=env, check=True, timeout=300)
        outs[threads] = _tree_bytes(out)
    assert "graphs/graph_03.csv" in outs[None]
    assert outs[None] == outs["1"] == outs["2"]


def test_grid_anchor_bits_independent_of_blas_threads():
    # at p=30, T=4000 the anchor's (p, p*K) correlation table sums 3,997
    # rows of 2,700 multiply-adds: as one product its bits followed the
    # thread count on OpenBLAS's SkylakeX and Haswell kernels alike
    code = ("import numpy as np\n"
            "from ngcausal.datasets import standardize\n"
            "from ngcausal.evaluation import lambda_max_linear\n"
            "ts = standardize(np.random.default_rng(0).normal(size=(4000, 30)))[0]\n"
            "print(float.hex(lambda_max_linear(ts, 3)))\n")
    src = os.path.dirname(os.path.dirname(ngcausal.__file__))
    anchors = {}
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = src
        env["OPENBLAS_NUM_THREADS"] = threads
        anchors[threads] = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                          capture_output=True, text=True, timeout=300).stdout
    assert anchors["1"].startswith("0x1.")
    assert anchors["1"] == anchors["2"]
