"""Structured sparsity penalties on first-layer column groups.

Two structures over the K lag blocks of each input series' column group:

* ``group``        -- one Frobenius norm per series, zeroing a whole series.
* ``hierarchical`` -- a norm per lag suffix (k..K), so higher lags are
  penalized more and the zero pattern over lags is always a suffix, which
  selects the lag order of each interaction along with the edge itself.

Both have exact proximal operators: blockwise soft-thresholding, applied
once per group or recursively over the nested suffixes (innermost, i.e.
deepest lag, first -- for nested groups that composition is the exact prox
of the summed penalty).  Prox steps write exact zeros, so "group norm > 0"
is a well-defined edge decision.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels

PENALTY_KINDS = ("none", "group", "hierarchical")


@dataclass
class PenaltySpec:
    """Which structured penalty to apply, and how strongly."""

    kind: str = "group"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}; expected one of {PENALTY_KINDS}")
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")


def penalty_value(spec, model):
    """Penalty term of the training objective for the model's first layer."""
    if spec.kind == "none" or spec.lam == 0.0:
        return 0.0
    w1 = model.first_layer_packed
    if spec.kind == "group":
        return float(spec.lam * kernels.group_norms(w1, model.p, model.K).sum())
    # hierarchical: sum over series of all lag-suffix norms
    sq = kernels.lag_norms(w1, model.p, model.K) ** 2
    suffix_sq = np.cumsum(sq[:, ::-1], axis=1)[:, ::-1]
    return float(spec.lam * np.sqrt(suffix_sq).sum())


def apply_prox(spec, model, theta, step):
    """Prox of step * lam applied in place to the first-layer column groups of theta.

    ``theta`` is a flat parameter vector in ``model``'s layout, such as a
    gradient-step candidate or ``model.theta`` itself.  Deeper layers,
    biases, and output weights are untouched.  Returns ``theta``.
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    if spec.kind == "none":
        return theta
    h1, d0 = model.dims[1], model.dims[0]
    w1 = theta[:h1 * d0].reshape(h1, d0)
    thr = step * spec.lam
    if spec.kind == "group":
        kernels.prox_group(w1, model.p, model.K, thr)
    else:
        kernels.prox_hier(w1, model.p, model.K, thr)
    return theta
