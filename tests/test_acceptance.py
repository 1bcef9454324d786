"""Acceptance gate for the paper's recovery and determinism claims.

Fixed-seed VAR sweeps at the README defaults: p=10 series, T=1000 rows, a
model with K=3 lags and one tanh hidden layer of width 10, a 20-point lambda
grid anchored at the data's lambda_max, the default optimizer, and
generator/initialization seeds 0-4.  Each penalty's mean AUC must stay
above its floor: the mean measured with the row-major MLP kernels, minus
0.02.  CHANGES.md records the measured means beside the floors.

Run ``pytest tests/test_acceptance.py -v -s`` for one line per criterion.
"""

import os

import pytest
import yaml

from ngcausal.cli import main
from ngcausal.datasets import VarGenConfig
from ngcausal.evaluation import run_experiment
from ngcausal.model import Architecture
from ngcausal.optim import OptimizerConfig

SEEDS = range(5)
# measured means 0.9157 (group) and 0.8776 (hierarchical), minus 0.02
AUC_FLOORS = {"group": 0.8957, "hierarchical": 0.8575}


@pytest.fixture(scope="module", params=sorted(AUC_FLOORS))
def var_sweeps(request):
    kind = request.param
    result = run_experiment(VarGenConfig(p=10, K=3), T=1000, K=3,
                            arch=Architecture(hidden_sizes=(10,)),
                            opt=OptimizerConfig(), penalty_kind=kind,
                            seeds=SEEDS, grid_size=20, grid_ratio=100.0)
    return kind, result


def test_var_mean_auc_floor(var_sweeps):
    kind, result = var_sweeps
    mean = result.mean_auc()
    print(f"\nVAR {kind}: mean AUC {mean:.4f} over seeds {list(SEEDS)} "
          f"(floor {AUC_FLOORS[kind]}); per seed "
          + ", ".join(f"{a:.4f}" for a in result.aucs))
    assert mean >= AUC_FLOORS[kind]


def test_var_fits_all_converge(var_sweeps):
    # early stopping sets graph quality: a fit capped at max_iters is a defect
    kind, result = var_sweeps
    capped = sum(int((~sw.converged).sum()) for sw in result.sweeps)
    iters = sum(int(sw.iterations.sum()) for sw in result.sweeps)
    print(f"\nVAR {kind}: {iters} iterations, {capped} capped fits")
    assert capped == 0


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
