"""Per-series prediction networks with lag-partitioned first layers.

One ComponentMLP predicts one output series from the past K lags of all p
series.  The first layer is partitioned by lag: input column k*p + j is
series j at lag k+1, so the "outgoing weights" of series j are the strided
column group w1[:, j::p].  Zeroing that group makes the prediction provably
independent of series j's history.

With no hidden layers the network degenerates to the linear autoregressive
map (a single weight row plus bias), which is how the linear baseline is fit.
A LaggedDataset holds the design, the stacked lags and a column of ones for
the first layer's bias, in float64: a linear model runs in float64 and
reads it, a model with hidden layers runs them in float32 and reads the
design's float32 copy, made from it at the first such read
(``LaggedDataset.design_for``).
Every layer shares the input rules here: ``_count`` for a count setting,
``_real`` for a real-valued one and ``DataError`` for unusable data.
"""

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kernels

ACTIVATIONS = ("tanh", "relu")


class DataError(ValueError):
    """Data that cannot be fit or scored, raised where it is judged (lagged
    design, standardization, penalty scale, truth graph, file); CLI exit 3."""


def _count(name, value, least=1):
    """``value`` as an int >= ``least``; a float or bool is rejected, not converted."""
    try:
        if isinstance(value, bool):  # operator.index(True) is 1
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return n


def _real(name, value, low=-math.inf, strict=True):
    """``value`` as a finite float > ``low`` (>= when not ``strict``); a bool
    or a non-number is rejected, not converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range is not finite
        x, value = math.inf, "an integer too large for a float"
    if not (math.isfinite(x) and (x > low if strict else x >= low)):
        bound = "" if low == -math.inf else f" and {'>' if strict else '>='} {low:g}"
        raise ValueError(f"{name} must be finite{bound}, got {value}")
    return x


@dataclass(frozen=True)
class Architecture:
    """Network shape and init scale shared by all per-series models in an
    experiment: the one place of their defaults and their check."""

    hidden_sizes: tuple = (10,)
    activation: str = "tanh"
    init_scale: float = 0.1

    def __post_init__(self):
        widths = tuple(_count("hidden sizes", h) for h in self.hidden_sizes)
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}; expected one of {sorted(ACTIVATIONS)}")
        scale = _real("init_scale", self.init_scale, 0, strict=False)
        object.__setattr__(self, "hidden_sizes", widths)
        object.__setattr__(self, "init_scale", scale)


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
        model.weight(l)[...] = rng.normal(0.0, std, size=model.weight(l).shape)
    return model


# ------------------------------------------------------------------ data


class _Float32Copy:
    """The design that hidden layers read: ``design`` rounded to float32 in
    Fortran order, or ``design`` itself where a value lies beyond float32's
    range (hidden layers then run in float64).  It is made at the first read
    by a model with hidden layers, so data only linear models read never
    has one.  A read-only design's copy is kept, read-only, for every later
    read and every series' dataset that shares this object; it is not
    pickled, so each process makes its own once.  A writeable design's copy
    is made at every read, so it follows writes into the design."""

    def __init__(self, design):
        self.design, self._copy = design, None

    def for_model(self, model):
        """The design ``model``'s kernels read: the float32 copy for a model
        with hidden layers, ``design`` for a linear one."""
        return self.get() if model.arch.hidden_sizes else self.design

    def get(self):
        if self._copy is not None:
            return self._copy
        D = self.design
        if max(D.max(initial=0.0), -D.min(initial=0.0)) > float(np.finfo(np.float32).max):
            copy = D
        else:
            copy = D.astype(np.float32, order="F")
        if not D.flags.writeable:
            copy.flags.writeable = False
            self._copy = copy
        return copy

    def __getstate__(self):
        return {"design": self.design, "_copy": None}


@dataclass(frozen=True)
class LaggedDataset:
    """One series' stacked-lag design with its one-step-ahead targets.

    ``design`` is (N, p*K + 1), N >= 1: design[n] = (x[K+n-1], ..., x[n], 1)
    flattened lag-1 block first, its last column of ones carrying the first
    layer's bias; targets[n] = x[K+n, i] for its series i.  A model with
    hidden layers reads the design's float32 copy ``design32``, made from
    ``design`` at the first such read (see ``_Float32Copy``); ``copy32``,
    by which :func:`build_lagged` shares that one copy among every series,
    is made here from ``design`` unless it is a copy of this very design.
    Shapes are checked once, when the dataset is built.  The arrays of
    :func:`build_lagged` are read-only, since every series' dataset holds
    the same design; an unpickled dataset's arrays are read-only too.
    """

    design: np.ndarray
    targets: np.ndarray
    p: int
    K: int
    copy32: _Float32Copy = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        width = _count("p", self.p) * _count("K", self.K) + 1
        D, y = self.design, self.targets
        n = D.shape[0] if D.ndim else 0
        if not (n >= 1 and D.shape == (n, width) and y.shape == (n,)
                and (D[:, -1] == 1.0).all()):
            raise ValueError(
                f"a LaggedDataset with p={self.p}, K={self.K} needs an (N, {width}) "
                f"design with N >= 1 and a last column of ones, and (N,) targets; "
                f"got design {D.shape}, targets {y.shape}")
        if self.copy32 is None or self.copy32.design is not D:
            object.__setattr__(self, "copy32", _Float32Copy(D))

    def __setstate__(self, state):
        # numpy unpickles a read-only array as writeable
        self.__dict__.update(state)
        self.design.flags.writeable = self.targets.flags.writeable = False

    @property
    def design32(self):
        """The design rounded to float32, as a model with hidden layers reads it."""
        return self.copy32.get()

    def design_for(self, model):
        """The design ``model``'s kernels read: ``design32`` for a model with
        hidden layers, ``design`` for a linear one."""
        return self.copy32.for_model(model)

    @property
    def inputs(self):
        """The stacked lags: the (N, p*K) view of the design without its ones."""
        return self.design[:, :-1]


def _with_ones(X):
    """A Fortran-ordered copy of the (N, d) array X with a column of ones appended."""
    D = np.empty((X.shape[0], X.shape[1] + 1), order="F")
    D[:, :-1] = X
    D[:, -1] = 1.0
    return D


def build_lagged(ts, K):
    """One LaggedDataset per series of a finite (T, p) array, all sharing one
    read-only (T-K, p*K + 1) design in Fortran order whose last column is
    ones, and the one float32 copy of it that the first model with hidden
    layers to read it makes; series i's targets are the read-only view
    ts[K:, i]."""
    K = _count("K", K)
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 2 or ts.shape[1] < 1:
        raise DataError(f"series must be a (T, p) array with p >= 1, got shape {ts.shape}")
    T, p = ts.shape
    if T <= K:
        raise DataError(f"need T > K, got T={T}, K={K}")
    if not np.isfinite(ts).all():
        raise DataError("series must be finite")
    # Fortran order: the MLP kernels read D.T, which is then C-contiguous
    D = np.empty((T - K, p * K + 1), order="F")
    for k in range(1, K + 1):
        D[:, (k - 1) * p:k * p] = ts[K - k:T - k]
    D[:, -1] = 1.0
    Y = ts[K:]
    D.flags.writeable = Y.flags.writeable = False
    copy32 = _Float32Copy(D)
    return [LaggedDataset(design=D, targets=Y[:, i], p=p, K=K, copy32=copy32)
            for i in range(p)]


# ------------------------------------------------------------- evaluation


def predict(model, X):
    """Batched forward pass; X is (N, p*K). Returns (N,) float64 predictions,
    the fit's forward pass on the design X with its column of ones, read in
    float32 by a model with hidden layers as ``LaggedDataset.design_for``
    gives it."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dims[0]:
        raise ValueError(f"inputs must be (N, {model.dims[0]}), got {X.shape}")
    acts = kernels.layer_activations(model.theta, model.dims, model.w_off,
                                     model.b_off, model.arch.activation,
                                     _Float32Copy(_with_ones(X)).for_model(model))
    return acts[-1][0]


def loss_and_grad(model, data, acts=None):
    """Sum of squared one-step prediction errors over all rows (no penalty),
    plus its exact gradient as a flat vector in theta layout.

    ``acts`` are activations that ``kernels.mlp_loss`` returned for this
    model's current theta on ``data.design_for(model)``; they stand in for a
    new forward pass.
    """
    if acts is None:
        acts = kernels.mlp_loss(model.theta, model.dims, model.w_off, model.b_off,
                                model.arch.activation, data.design_for(model),
                                data.targets)[1]
    g = np.empty(model.n_params)
    # acts[0] is the transposed design the forward pass read
    val = kernels.mlp_loss_grad(model.theta, model.dims, model.w_off,
                                model.b_off, model.arch.activation,
                                acts[0].T, g, acts)
    return float(val), g
