"""The package's exported names: each one resolves, none twice, the README
documents each, and the test-only helpers that were folded into the
production code paths stay out.
The runtime loads numpy and PyYAML only."""

import dataclasses
import inspect
import os
import re
import subprocess
import sys

import pytest

import ngcausal

REMOVED = ["matvec", "finite_diff_grad", "prox_group_block",
           "prox_hierarchical_column", "prox_step", "objective", "forward",
           "grad", "LorenzConfig", "warm_start_fit", "roc_points_scores",
           "loss", "gauss_sample", "run_experiment", "ExperimentResult",
           "granger_weights", "lag_profile", "VarProcess", "companion_matrix",
           "spectral_radius", "lorenz_derivative", "lorenz_truth", "child_seed"]


def test_every_exported_name_resolves():
    for name in ngcausal.__all__:
        assert getattr(ngcausal, name) is not None, name


def test_no_duplicate_exports():
    assert len(ngcausal.__all__) == len(set(ngcausal.__all__))


def test_readme_documents_every_export():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        words = set(re.findall(r"\w+", fh.read()))
    assert [name for name in ngcausal.__all__ if name not in words] == []


@pytest.mark.parametrize("name", REMOVED)
def test_removed_helper_not_exported(name):
    assert name not in ngcausal.__all__
    assert not hasattr(ngcausal, name)


@pytest.mark.parametrize("owner,name", [
    ("ComponentMLP", "column_group"), ("ComponentMLP", "unpack"),
    ("ComponentMLP", "weights"), ("ComponentMLP", "biases"),
    ("ComponentMLP", "output_bias"), ("Architecture", "output_bias"),
    ("SeededRng", "child"),
    ("OptimizerConfig", "backtracking"), ("OptimizerConfig", "backtrack_factor"),
    ("optim", "ForwardPass"), ("ComponentMLP", "first_layer_packed"),
    ("ComponentMLP", "n_layers"), ("_kernels", "ACT_TANH"),
    ("_kernels", "ACT_RELU")])
def test_removed_method_absent(owner, name):
    assert not hasattr(getattr(ngcausal, owner), name)


@pytest.mark.parametrize("name", ["hidden_sizes", "activation",
                                  "use_output_bias", "act_code"])
def test_model_keeps_no_shape_copy(name):
    # the shape lives on model.arch alone
    model = ngcausal.ComponentMLP(2, 1, ngcausal.Architecture())
    assert not hasattr(model, name)


@pytest.mark.parametrize("func,params", [
    ("fit", ["data", "spec", "start", "opt"]),
    ("ComponentMLP", ["p", "K", "arch", "theta"]),
    ("build_lagged", ["ts", "K"])])
def test_parameters(func, params):
    assert list(inspect.signature(getattr(ngcausal, func)).parameters) == params


def test_architecture_is_frozen():
    arch = ngcausal.Architecture()
    with pytest.raises(dataclasses.FrozenInstanceError):
        arch.hidden_sizes = (0,)


def test_lagged_dataset_fields():
    # no series_index: nothing read the index that build_lagged stored
    assert [f.name for f in dataclasses.fields(ngcausal.LaggedDataset)] == [
        "inputs", "targets", "p", "K"]


@pytest.mark.parametrize("func,name", [("lambda_max_linear", "center")])
def test_removed_parameter_absent(func, name):
    assert name not in inspect.signature(getattr(ngcausal, func)).parameters


NO_SCIPY_SCRIPT = """
import sys
import ngcausal, ngcausal.cli
from ngcausal import LorenzGenConfig, VarGenConfig
VarGenConfig().generate(50, 0)
LorenzGenConfig(p=6, burn_in=20).generate(30, 0)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


NO_NUMPY_RANDOM_SCRIPT = """
import sys
import ngcausal, ngcausal.io, ngcausal.cli
print("numpy.random" in sys.modules)
"""


def test_import_leaves_numpy_random_unloaded():
    # numpy imports numpy.random on first use; a CSV-only run never draws
    src = os.path.dirname(os.path.dirname(ngcausal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", NO_NUMPY_RANDOM_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_runtime_never_loads_scipy():
    src = os.path.dirname(os.path.dirname(ngcausal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
