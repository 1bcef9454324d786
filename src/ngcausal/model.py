"""Per-series prediction networks with lag-partitioned first layers.

One ComponentMLP predicts one output series from the past K lags of all p
series.  The first layer is partitioned by lag: input column k*p + j is
series j at lag k+1, so the "outgoing weights" of series j are the strided
column group w1[:, j::p].  Zeroing that group makes the prediction provably
independent of series j's history.

With no hidden layers the network degenerates to the linear autoregressive
map (a single weight row plus bias), which is how the linear baseline is fit.
"""

import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels

ACTIVATIONS = ("tanh", "relu")


def _count(name, value):
    """``value`` as an int >= 1; a float or bool is rejected, not converted."""
    try:
        if isinstance(value, bool):  # operator.index(True) is 1
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    return n


@dataclass(frozen=True)
class Architecture:
    """Network shape and init scale shared by all per-series models in an
    experiment: the one place of their defaults and their check."""

    hidden_sizes: tuple = (10,)
    activation: str = "tanh"
    init_scale: float = 0.1

    def __post_init__(self):
        widths = tuple(_count("hidden sizes", h) for h in self.hidden_sizes)
        object.__setattr__(self, "hidden_sizes", widths)
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}; expected one of {sorted(ACTIVATIONS)}")
        if not (np.isfinite(self.init_scale) and self.init_scale >= 0):
            raise ValueError(f"init_scale must be finite and >= 0, got {self.init_scale}")


class ComponentMLP:
    """Flat-parameter MLP whose first layer is grouped by input series and lag.

    Its shape is ``model.arch``, whose activation the kernels take by name.
    All weights and biases live in one float64 vector ``theta``, layer l's
    weight from ``w_off[l]`` and its bias from ``b_off[l]`` (``dims`` and the
    offsets are tuples of ints); ``weight(l)`` and ``bias(l)`` return views
    into it, so in-place edits through a view mutate the model.
    """

    def __init__(self, p, K, arch, theta=None):
        self.p = _count("p", p)
        self.K = _count("K", K)
        self.arch = arch
        self.dims = (self.p * self.K, *arch.hidden_sizes, 1)
        w_off, b_off, off = [], [], 0
        for din, dout in zip(self.dims, self.dims[1:]):
            w_off.append(off)
            off += dout * din
            b_off.append(off)
            off += dout
        self.w_off, self.b_off, self.n_params = tuple(w_off), tuple(b_off), off

        if theta is None:
            self.theta = np.zeros(self.n_params)
        else:
            theta = np.ascontiguousarray(theta, dtype=np.float64)
            if theta.shape != (self.n_params,):
                raise ValueError(f"theta must have shape ({self.n_params},), got {theta.shape}")
            self.theta = theta

    # ------------------------------------------------------------ views

    def weight(self, l):
        return kernels.layer(self.theta, self.dims, self.w_off, self.b_off, l)[0]

    def bias(self, l):
        return kernels.layer(self.theta, self.dims, self.w_off, self.b_off, l)[1]

    # ------------------------------------------------------------ misc

    def copy(self):
        return ComponentMLP(self.p, self.K, self.arch, theta=self.theta.copy())

    def __repr__(self):
        return f"ComponentMLP(p={self.p}, K={self.K}, arch={self.arch!r})"


def init_model(p, K, arch, rng):
    """Seeded Gaussian init: per-layer std init_scale / sqrt(fan_in), zero biases."""
    model = ComponentMLP(p, K, arch)
    for l in range(len(model.dims) - 1):
        fan_in = model.dims[l]
        std = arch.init_scale / np.sqrt(fan_in)
        model.weight(l)[...] = rng.gen.normal(0.0, std, size=model.weight(l).shape)
    return model


# ------------------------------------------------------------------ data


@dataclass
class LaggedDataset:
    """Design matrix of stacked lags with the matching one-step-ahead targets.

    inputs[n] = (x[K+n-1], ..., x[n]) flattened lag-1 block first;
    targets[n] = x[K+n, i] for its series i.  Both arrays are read-only:
    every series' dataset holds the same ``inputs``.
    """

    inputs: np.ndarray
    targets: np.ndarray
    p: int
    K: int

    @property
    def n_rows(self):
        return self.inputs.shape[0]


def build_lagged(ts, K):
    """One LaggedDataset per series of a finite (T, p) array, all sharing one
    read-only design; series i's targets are the read-only view ts[K:, i]."""
    ts = np.asarray(ts, dtype=np.float64)
    T, p = ts.shape
    if T <= K:
        raise ValueError(f"need T > K, got T={T}, K={K}")
    if not np.isfinite(ts).all():
        raise ValueError("series must be finite")
    # Fortran order: the MLP kernels read X.T, which is then C-contiguous
    X = np.empty((T - K, p * K), order="F")
    for k in range(1, K + 1):
        X[:, (k - 1) * p:k * p] = ts[K - k:T - k]
    Y = ts[K:]
    X.flags.writeable = Y.flags.writeable = False
    return [LaggedDataset(inputs=X, targets=Y[:, i], p=p, K=K) for i in range(p)]


# ------------------------------------------------------------- evaluation


def predict(model, X):
    """Batched forward pass; X is (N, p*K). Returns (N,) predictions."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dims[0]:
        raise ValueError(f"inputs must be (N, {model.dims[0]}), got {X.shape}")
    acts = kernels.layer_activations(model.theta, model.dims, model.w_off,
                                     model.b_off, model.arch.activation, X)
    return acts[-1][0]


def loss_and_grad(model, data, acts=None):
    """Sum of squared one-step prediction errors over all rows (no penalty),
    plus its exact gradient as a flat vector in theta layout.

    ``acts`` are activations that ``kernels.mlp_loss`` returned for this
    model's current theta on ``data``; they stand in for a new forward pass.
    """
    if acts is None:
        acts = kernels.mlp_loss(model.theta, model.dims, model.w_off, model.b_off,
                                model.arch.activation, data.inputs, data.targets)[1]
    g = np.empty(model.n_params)
    val = kernels.mlp_loss_grad(model.theta, model.dims, model.w_off,
                                model.b_off, model.arch.activation,
                                data.inputs, g, acts)
    return float(val), g
