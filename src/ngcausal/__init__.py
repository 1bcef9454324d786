"""Nonlinear Granger-causal graph discovery from multivariate time series.

One sparsity-penalized MLP is fit per output series; group or hierarchical
group-lasso prox steps drive whole first-layer input groups to exact zero,
which reads off the causal graph (and, hierarchically, the lag order of
each interaction).  Includes seeded VAR and Lorenz-96 generators and an
ROC/AUC sweep harness.
"""

from .datasets import (LorenzGenConfig, SeededRng, SimulationError,
                       VarGenConfig, make_sparse_var, simulate_lorenz,
                       simulate_var, standardize)
from .model import (Architecture, ComponentMLP, DataError, LaggedDataset,
                    build_lagged, init_model, loss_and_grad, predict)
from .penalties import PenaltySpec, apply_prox, penalty_value
from .optim import FitResult, OptimizationError, OptimizerConfig, fit, fit_path
from .evaluation import (DegenerateTruthError, SweepResult, auc, edge_rates,
                         lambda_grid, lambda_max_linear, roc_points, sweep_path)

__version__ = "0.1.0"

__all__ = [
    "Architecture", "ComponentMLP", "DataError", "DegenerateTruthError",
    "FitResult", "LaggedDataset", "LorenzGenConfig",
    "OptimizationError", "OptimizerConfig", "PenaltySpec", "SeededRng",
    "SimulationError", "SweepResult", "VarGenConfig",
    "apply_prox", "auc", "build_lagged", "edge_rates", "fit", "fit_path",
    "init_model", "lambda_grid", "lambda_max_linear", "loss_and_grad",
    "make_sparse_var", "penalty_value", "predict", "roc_points",
    "simulate_lorenz", "simulate_var", "standardize", "sweep_path",
]
