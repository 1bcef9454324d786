"""Structured sparsity penalties on first-layer column groups.

Two structures over the K lag blocks of each input series' column group:

* ``group``        -- one Frobenius norm per series, zeroing a whole series.
* ``hierarchical`` -- a norm per lag suffix (k..K), so higher lags are
  penalized more and the zero pattern over lags is always a suffix, which
  selects the lag order of each interaction along with the edge itself.

Both have exact proximal operators: blockwise soft-thresholding, applied
once per group or recursively over the nested suffixes (innermost, i.e.
deepest lag, first -- for nested groups that composition is the exact prox
of the summed penalty; the kernel runs it on the block norms and scales
each block once).  Prox steps write exact zeros, so "group norm > 0"
is a well-defined edge decision.  At lam = 0 ``apply_prox`` leaves theta as
it is and returns 0.0, as ``penalty_value`` does: a fit is then unpenalized.

``penalty_path`` builds a sweep's PenaltySpecs, one per lambda: it checks the
path's shape (1-d, nonempty, strictly decreasing), and ``PenaltySpec`` alone
checks the kind and that each lambda is finite and >= 0 (``model._real``).
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .model import _real

PENALTY_KINDS = ("group", "hierarchical")


@dataclass
class PenaltySpec:
    """Which structured penalty to apply and how strongly; the one check of both."""

    kind: str = "group"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}; expected one of {PENALTY_KINDS}")
        self.lam = _real("lambda", self.lam, 0, strict=False)


def penalty_path(kind, lambdas):
    """The lambda path as a float64 array, and one PenaltySpec per lambda."""
    shape = np.array(lambdas, dtype=object).shape  # object: a ragged grid has a shape too
    if len(shape) != 1 or shape[0] == 0:
        raise ValueError(f"lambda grid must be a nonempty 1-d array, got shape {shape}")
    specs = [PenaltySpec(kind, lam) for lam in lambdas]
    lambdas = np.array([spec.lam for spec in specs])
    if np.any(np.diff(lambdas) >= 0):
        raise ValueError(f"lambda grid must be strictly decreasing, got {lambdas.tolist()}")
    return lambdas, specs


def penalty_value(spec, model):
    """Penalty term of the training objective for the model's first layer."""
    if spec.lam == 0.0:
        return 0.0
    w1 = model.weight(0)
    if spec.kind == "group":
        return float(spec.lam * kernels.group_norms(w1, model.p, model.K).sum())
    return float(spec.lam * kernels.suffix_norm_sum(kernels.lag_norms(w1, model.p, model.K)))


def apply_prox(spec, model, theta, step):
    """Prox of step * lam applied in place to the first-layer column groups of theta.

    ``theta`` is a flat parameter vector in ``model``'s layout, such as a
    gradient-step candidate or ``model.theta`` itself.  Deeper layers,
    biases, and output weights are untouched.  Returns the penalty of the
    result, bit for bit what :func:`penalty_value` gives for a model holding
    it; the prox kernel computes it from the copy of the result it holds.
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    if spec.lam == 0.0:
        return 0.0
    w1 = kernels.layer(theta, model.dims, model.w_off, model.b_off, 0)[0]
    thr = step * spec.lam
    if spec.kind == "group":
        norm_sum = kernels.prox_group(w1, model.p, model.K, thr)
    else:
        norm_sum = kernels.prox_hier(w1, model.p, model.K, thr)
    return float(spec.lam * norm_sum)
