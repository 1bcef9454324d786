"""Per-series prediction networks with lag-partitioned first layers.

One ComponentMLP predicts one output series from the past K lags of all p
series.  The first layer is partitioned by lag: input column k*p + j is
series j at lag k+1, so the "outgoing weights" of series j are the strided
column group w1[:, j::p].  Zeroing that group makes the prediction provably
independent of series j's history.

With no hidden layers the network degenerates to the linear autoregressive
map (a single weight row plus bias), which is how the linear baseline is fit.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .numerics import SeededRng

ACTIVATIONS = {"tanh": kernels.ACT_TANH, "relu": kernels.ACT_RELU}


@dataclass
class Architecture:
    """Network shape shared by all per-series models in an experiment."""

    hidden_sizes: tuple = (10,)
    activation: str = "tanh"
    output_bias: bool = True
    init_scale: float = 0.1

    def __post_init__(self):
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden sizes must be >= 1, got {self.hidden_sizes}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}; expected one of {sorted(ACTIVATIONS)}")


class ComponentMLP:
    """Flat-parameter MLP whose first layer is grouped by input series and lag.

    All weights and biases live in one float64 vector ``theta``; the
    ``weights``/``biases`` properties expose reshaped views into it, so
    in-place edits through a view mutate the model.
    """

    def __init__(self, p, K, hidden_sizes=(10,), activation="tanh",
                 use_output_bias=True, theta=None):
        if p < 1 or K < 1:
            raise ValueError(f"need p >= 1 and K >= 1, got p={p}, K={K}")
        self.p = int(p)
        self.K = int(K)
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation
        self.use_output_bias = bool(use_output_bias)

        self.dims = np.array([self.p * self.K, *self.hidden_sizes, 1], dtype=np.int64)
        n_layers = len(self.dims) - 1
        w_off = np.empty(n_layers, dtype=np.int64)
        b_off = np.empty(n_layers, dtype=np.int64)
        off = 0
        for l in range(n_layers):
            w_off[l] = off
            off += self.dims[l + 1] * self.dims[l]
            b_off[l] = off
            off += self.dims[l + 1]
        self.w_off = w_off
        self.b_off = b_off
        self.n_params = int(off)

        if theta is None:
            self.theta = np.zeros(self.n_params)
        else:
            theta = np.ascontiguousarray(theta, dtype=np.float64)
            if theta.shape != (self.n_params,):
                raise ValueError(f"theta must have shape ({self.n_params},), got {theta.shape}")
            self.theta = theta

    # ------------------------------------------------------------ views

    @property
    def n_layers(self):
        return len(self.dims) - 1

    @property
    def act_code(self):
        return ACTIVATIONS[self.activation]

    def weight(self, l):
        din, dout = self.dims[l], self.dims[l + 1]
        return self.theta[self.w_off[l]:self.w_off[l] + dout * din].reshape(dout, din)

    def bias(self, l):
        dout = self.dims[l + 1]
        return self.theta[self.b_off[l]:self.b_off[l] + dout]

    @property
    def weights(self):
        return [self.weight(l) for l in range(self.n_layers)]

    @property
    def biases(self):
        return [self.bias(l) for l in range(self.n_layers)]

    @property
    def first_layer_packed(self):
        """First layer as one (H1, K*p) matrix, lag blocks side by side."""
        return self.weight(0)

    @property
    def first_layer(self):
        """The K per-lag weight matrices W[k], each (H1, p)."""
        w1 = self.first_layer_packed
        return [w1[:, k * self.p:(k + 1) * self.p] for k in range(self.K)]

    def column_group(self, j):
        """All first-layer weights fed by series j, shape (H1, K)."""
        return self.first_layer_packed[:, j::self.p]

    @property
    def output_weights(self):
        return self.weight(self.n_layers - 1)[0]

    @property
    def output_bias(self):
        return float(self.bias(self.n_layers - 1)[0])

    # ------------------------------------------------------------ misc

    def copy(self):
        return ComponentMLP(self.p, self.K, self.hidden_sizes, self.activation,
                            self.use_output_bias, theta=self.theta.copy())

    def same_architecture(self, other):
        return (self.p == other.p and self.K == other.K
                and self.hidden_sizes == other.hidden_sizes
                and self.activation == other.activation
                and self.use_output_bias == other.use_output_bias)

    def unpack(self, vec):
        """View a flat vector in this model's layout: (weight mats, bias vecs)."""
        vec = np.asarray(vec)
        ws, bs = [], []
        for l in range(self.n_layers):
            din, dout = self.dims[l], self.dims[l + 1]
            ws.append(vec[self.w_off[l]:self.w_off[l] + dout * din].reshape(dout, din))
            bs.append(vec[self.b_off[l]:self.b_off[l] + dout])
        return ws, bs

    def __repr__(self):
        return (f"ComponentMLP(p={self.p}, K={self.K}, hidden={self.hidden_sizes}, "
                f"activation={self.activation!r})")


def init_model(p, K, arch, rng):
    """Seeded Gaussian init: per-layer std init_scale / sqrt(fan_in), zero biases."""
    model = ComponentMLP(p, K, arch.hidden_sizes, arch.activation, arch.output_bias)
    for l in range(model.n_layers):
        fan_in = model.dims[l]
        std = arch.init_scale / np.sqrt(fan_in)
        model.weight(l)[...] = rng.gen.normal(0.0, std, size=model.weight(l).shape)
    return model


# ------------------------------------------------------------------ data


@dataclass
class LaggedDataset:
    """Design matrix of stacked lags with the matching one-step-ahead targets.

    inputs[n] = (x[K+n-1], ..., x[n]) flattened lag-1 block first;
    targets[n] = x[K+n, series_index].
    """

    inputs: np.ndarray
    targets: np.ndarray
    series_index: int
    p: int
    K: int

    @property
    def n_rows(self):
        return self.inputs.shape[0]


def build_lagged(ts, K, i):
    """Arrange a (T, p) series into lagged inputs and targets for series i."""
    ts = np.asarray(ts, dtype=np.float64)
    T, p = ts.shape
    if T <= K:
        raise ValueError(f"need T > K, got T={T}, K={K}")
    if not (0 <= i < p):
        raise ValueError(f"series index {i} out of range for p={p}")
    N = T - K
    # Fortran order: the MLP kernels read X.T, which is then C-contiguous
    X = np.empty((N, p * K), order="F")
    for k in range(1, K + 1):
        X[:, (k - 1) * p:k * p] = ts[K - k:T - k]
    y = ts[K:, i].copy()
    return LaggedDataset(inputs=X, targets=y, series_index=i, p=p, K=K)


# ------------------------------------------------------------- evaluation


def predict(model, X):
    """Batched forward pass; X is (N, p*K). Returns (N,) predictions."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dims[0]:
        raise ValueError(f"inputs must be (N, {model.dims[0]}), got {X.shape}")
    acts = kernels.forward(model.theta, model.dims, model.w_off, model.b_off,
                           model.act_code, X)
    return acts[-1][0]


def forward(model, x):
    """Prediction for a single stacked-lag input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.dims[0],):
        raise ValueError(f"input must have length {model.dims[0]}, got shape {x.shape}")
    return float(predict(model, x[np.newaxis, :])[0])


def loss(model, data):
    """Sum of squared one-step prediction errors over all rows (no penalty)."""
    return float(kernels.mlp_loss(model.theta, model.dims, model.w_off,
                                  model.b_off, model.act_code,
                                  data.inputs, data.targets)[0])


def loss_and_grad(model, data, acts=None):
    """Loss plus its exact gradient as a flat vector in theta layout.

    ``acts`` are activations that ``kernels.mlp_loss`` returned for this
    model's current theta on ``data``; they stand in for a new forward pass.
    """
    g = np.empty(model.n_params)
    val = kernels.mlp_loss_grad(model.theta, model.dims, model.w_off,
                                model.b_off, model.act_code,
                                data.inputs, data.targets, g, acts)
    if not model.use_output_bias:
        g[model.b_off[-1]] = 0.0
    return float(val), g


def grad(model, data):
    """Gradient of :func:`loss` for every weight and bias (flat, theta layout)."""
    return loss_and_grad(model, data)[1]


def granger_weights(model):
    """Norm of each input series' first-layer column group, length p.

    Entry j is zero exactly when every first-layer weight fed by series j is
    zero, in which case the prediction cannot depend on series j's history.
    """
    return kernels.group_norms(model.first_layer_packed, model.p, model.K)
