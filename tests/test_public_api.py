"""The package's exported names: each one resolves, none twice, the README
documents each, and the test-only helpers that were folded into the
production code paths stay out.  Data the library cannot use raises the one
exported ``DataError`` where it is judged.
The runtime loads numpy and PyYAML only."""

import dataclasses
import inspect
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import ngcausal
import ngcausal.io

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
    # no series_index: nothing read the index that build_lagged stored; the
    # design is the one array, and inputs a read-only view of it
    assert [f.name for f in dataclasses.fields(ngcausal.LaggedDataset)] == [
        "design", "targets", "p", "K"]
    assert ngcausal.LaggedDataset.__dataclass_params__.frozen
    assert ngcausal.LaggedDataset.inputs.fset is None


def _data_fault(case):
    """Call the library on data it cannot use."""
    ts = np.random.default_rng(0).normal(size=(60, 4))
    if case == "short":
        ngcausal.build_lagged(ts[:2], 2)
    elif case == "non-finite series":
        ts[5, 1] = np.nan
        ngcausal.build_lagged(ts, 2)
    elif case == "1-d series":
        ngcausal.build_lagged(ts[:, 0], 2)
    elif case == "3-d series":
        ngcausal.build_lagged(ts[:, :, None], 2)
    elif case == "no series":
        ngcausal.build_lagged(ts[:, :0], 2)
    elif case == "1-d series for a penalty scale":
        ngcausal.lambda_max_linear(ts[:, 0], 2)
    elif case == "no series for a penalty scale":
        ngcausal.lambda_max_linear(ts[:, :0], 2)
    elif case == "constant column":
        ts[:, 1] = 3.0
        ngcausal.standardize(ts)
    elif case == "overflowing mean":
        ts[:, 3] = (ts[:, 3] ** 2 + 1.0) * 1e307
        ngcausal.standardize(ts)
    elif case == "constant data":
        ngcausal.lambda_max_linear(np.ones_like(ts), 2)
    elif case == "non-finite scale":
        ts[:, 2] *= 1e200
        ngcausal.lambda_max_linear(ts, 2)
    else:
        ngcausal.edge_rates(np.ones((3, 3)), np.zeros((3, 3)))


@pytest.mark.parametrize("case,message", [
    ("short", "need T > K, got T=2, K=2"),
    ("non-finite series", "series must be finite"),
    ("1-d series", "series must be a (T, p) array with p >= 1, got shape (60,)"),
    ("3-d series", "series must be a (T, p) array with p >= 1, got shape (60, 4, 1)"),
    ("no series", "series must be a (T, p) array with p >= 1, got shape (60, 0)"),
    ("1-d series for a penalty scale",
     "series must be a (T, p) array with p >= 1, got shape (60,)"),
    ("no series for a penalty scale",
     "series must be a (T, p) array with p >= 1, got shape (60, 0)"),
    ("constant column", "zero-variance column(s) [1]: cannot standardize"),
    ("overflowing mean", "non-finite mean or std in column(s) [3]: cannot standardize"),
    ("constant data", "data is constant: no usable penalty scale"),
    ("non-finite scale", "penalty scale of the data is not finite (inf); "
                         "rescale or standardize the series"),
    ("degenerate truth", "truth needs at least one positive and one negative edge "
                         "(got 9 positives, 0 negatives)")])
def test_data_fault_is_a_data_error(case, message):
    with pytest.raises(ngcausal.DataError, match=f"^{re.escape(message)}$"):
        _data_fault(case)


def test_data_error_is_one_value_error():
    assert issubclass(ngcausal.DataError, ValueError)
    assert ngcausal.io.DataError is ngcausal.DataError
    assert issubclass(ngcausal.DegenerateTruthError, ngcausal.DataError)


@pytest.mark.parametrize("func,name", [("lambda_max_linear", "center"),
                                       ("make_sparse_var", "magnitude")])
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
