"""Slow, obviously correct reference implementations that tests compare the
package against; nothing in ``ngcausal`` calls them.

The norm and prox oracles work on a first layer ``w1`` of shape (H, K*p)
whose column ``k*p + j`` is series ``j`` at lag ``k+1``, in the kernels'
summation order, one term at a time: the sum of squares of each (lag,
series) block adds its hidden units in order, a group norm adds its blocks'
sums over lags in order, and a lag-suffix norm is built deepest lag first
with ``hypot``.  A group whose norm is <= the threshold gets the factor 0,
and the prox adds 0.0 to every scaled weight, so every zero it leaves is
+0.0.  The hierarchical
prox shrinks the lag suffixes k..K of each series from the deepest lag up
(Jenatton et al., "Proximal Methods for Hierarchical Sparse Coding", JMLR
2011), computed on norms: the suffix k has norm n_k = hypot(lag_k, r_{k+1})
when its turn comes and r_k = (n_k - thr)+ after it.

``loop_prox_group`` and ``loop_prox_hier`` are a second reference: the
nested-suffix prox as a plain loop that shrinks the weights suffix by
suffix, each suffix norm a sequential sum over (lag, unit).  They agree
with the oracles up to rounding.

``reference_fit`` is the proximal gradient loop of ``optim.fit`` without
any of its reuse: it runs ``loss_and_grad`` afresh on every model and
candidate, and ``penalty_value`` on every accepted one.

``hand_made`` is a ``LaggedDataset`` of given inputs and targets, its
design the inputs with a column of ones appended.

``reference_loss_grad`` is the MLP loss and gradient written plainly, one
layer at a time with row-major activations and separate biases, in a given
precision: in float32 it keeps the kernels' precision contract (hidden
layers, their activations and every weight-gradient product in float32;
the output, residual, loss and output bias gradient in float64), in float64
it is the exact-arithmetic reference up to float64 rounding.
"""

from types import SimpleNamespace

import numpy as np

from ngcausal.model import LaggedDataset, loss_and_grad
from ngcausal.optim import MIN_STEP, SLACK
from ngcausal.penalties import apply_prox, penalty_value


def hand_made(X, y, p, K):
    """The dataset of (N, p*K) inputs X and (N,) targets y, its design in
    the Fortran order of ``build_lagged``'s."""
    X = np.asarray(X, dtype=np.float64)
    design = np.ones((X.shape[0], X.shape[1] + 1), order="F")
    design[:, :-1] = X
    return LaggedDataset(design=design, targets=y, p=p, K=K)


def reference_loss_grad(model, X, y, dtype):
    """(loss, gradient in theta layout) of ``model`` on (N, p*K) inputs X
    and (N,) targets y, every hidden layer computed in ``dtype``."""
    L = len(model.dims) - 1
    Ws = [model.weight(l).astype(dtype) for l in range(L)]
    bs = [model.bias(l).astype(dtype) for l in range(L)]
    a = [np.asarray(X, dtype=dtype)]
    for l in range(L - 1):
        z = a[l] @ Ws[l].T + bs[l]
        a.append(np.tanh(z) if model.arch.activation == "tanh" else np.maximum(z, 0))
    out = (a[L - 1] @ Ws[L - 1].T).astype(np.float64)[:, 0] + model.bias(L - 1)[0]
    r = out - y
    grad = np.empty(model.n_params)
    d = 2.0 * r[:, None]                              # (N, 1), float64
    grad[model.b_off[L - 1]] = d.sum()
    d = d.astype(dtype)
    for l in range(L - 1, -1, -1):
        W = Ws[l]
        grad[model.w_off[l]:model.b_off[l]] = (d.T @ a[l]).ravel()
        if l < L - 1:
            grad[model.b_off[l]:model.b_off[l] + W.shape[0]] = d.sum(axis=0)
        if l > 0:
            h = a[l]
            back = d @ W
            d = back * (1 - h * h) if model.arch.activation == "tanh" else back * (h > 0)
    return float(r @ r), grad


def finite_diff_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function, coordinate by coordinate."""
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h}")
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def oracle_table(w1, p, K):
    """(K, p) block sums of squares, each adding its hidden units in order."""
    H = w1.shape[0]
    out = np.empty((K, p))
    for k in range(K):
        for j in range(p):
            c = k * p + j
            s = 0.0
            for h in range(H):
                s += w1[h, c] * w1[h, c]
            out[k, j] = s
    return out


def oracle_group_norms(w1, p, K):
    table = oracle_table(w1, p, K)
    out = np.empty(p)
    for j in range(p):
        s = 0.0
        for k in range(K):
            s += table[k, j]
        out[j] = np.sqrt(s)
    return out


def oracle_lag_norms(w1, p, K):
    """(p, K) block norms."""
    return np.sqrt(oracle_table(w1, p, K)).T


def _oracle_scale(w1, p, K, j, factors):
    """Scale series j's lag-k block by factors[k]; -0.0 + 0.0 is +0.0."""
    for k in range(K):
        c = k * p + j
        for h in range(w1.shape[0]):
            w1[h, c] = w1[h, c] * factors[k] + 0.0


def _oracle_factor(nrm, thr):
    return 0.0 if nrm <= thr else 1.0 - thr / nrm


def oracle_prox_group(w1, p, K, thr):
    nrm = oracle_group_norms(w1, p, K)
    for j in range(p):
        _oracle_scale(w1, p, K, j, [_oracle_factor(nrm[j], thr)] * K)


def oracle_prox_hier(w1, p, K, thr):
    lag = oracle_lag_norms(w1, p, K)
    for j in range(p):
        factors = [0.0] * K
        r = 0.0
        for k in range(K - 1, -1, -1):
            n = np.hypot(lag[j, k], r)
            r = max(n - thr, 0.0) if not np.isnan(n) else n
            factors[k] = _oracle_factor(n, thr)
        cumulative, c = [], 1.0
        for f in factors:
            c *= f
            cumulative.append(c)
        _oracle_scale(w1, p, K, j, cumulative)


def oracle_penalty(kind, w1, p, K):
    """Unscaled penalty of w1 from the oracle norms: the group norms, or each
    series' lag-suffix norms built from its lag norms deepest lag first with
    hypot, then added up by numpy's sum over the (p,) or C-ordered (K, p)
    array, the sum ``penalty_value`` takes."""
    if kind == "group":
        return oracle_group_norms(w1, p, K).sum()
    lag = oracle_lag_norms(w1, p, K)
    suffix = np.empty((K, p))
    for j in range(p):
        r = 0.0
        for k in range(K - 1, -1, -1):
            r = np.hypot(lag[j, k], r)
            suffix[k, j] = r
    return suffix.sum()


def _loop_shrink_suffix(w1, p, j, k0, K, thr):
    H = w1.shape[0]
    s = 0.0
    for k in range(k0, K):
        c = k * p + j
        for h in range(H):
            s += w1[h, c] * w1[h, c]
    nrm = np.sqrt(s)
    if nrm <= thr:
        for k in range(k0, K):
            c = k * p + j
            for h in range(H):
                w1[h, c] = 0.0
    else:
        scale = 1.0 - thr / nrm
        for k in range(k0, K):
            c = k * p + j
            for h in range(H):
                w1[h, c] *= scale


def loop_prox_group(w1, p, K, thr):
    for j in range(p):
        _loop_shrink_suffix(w1, p, j, 0, K, thr)


def loop_prox_hier(w1, p, K, thr):
    for j in range(p):
        for k0 in range(K - 1, -1, -1):
            _loop_shrink_suffix(w1, p, j, k0, K, thr)


def reference_fit(data, spec, model, opt, step=None):
    """Proximal gradient from ``model`` with a short Barzilai-Borwein start,
    a restart at ``opt.initial_step`` after a move with s.y <= 0, and
    backtracking; the first line search starts at ``step`` (default
    ``opt.initial_step``).

    Returns a namespace of ``trace`` (objectives, the start's first),
    ``model``, ``step`` (the last accepted), ``converged``, ``backtracks``
    and ``log``: one (rule, trial steps) per iteration, rule being None on
    the first iteration, "bb" when s.y > 0 set the first trial step and
    "restart" when it did not, and the trial steps in the order tried, the
    last one accepted.
    """
    step = opt.initial_step if step is None else step
    slack = SLACK[data.design_for(model).dtype]
    obj = loss_and_grad(model, data)[0] + penalty_value(spec, model)
    trace = [obj]
    log = []
    converged = False
    g_prev = s = None
    for _ in range(opt.max_iters):
        val, g = loss_and_grad(model, data)
        rule = None
        if s is not None:
            y = g - g_prev
            sy = s @ y
            if sy > 0:
                step, rule = max(sy / (y @ y), MIN_STEP), "bb"
            else:
                step, rule = opt.initial_step, "restart"
        g_prev = g
        trials = []
        while True:
            trials.append(step)
            probe = model.copy()
            probe.theta[:] = model.theta - step * g
            apply_prox(spec, probe, probe.theta, step)
            new_loss = loss_and_grad(probe, data)[0]
            s = probe.theta - model.theta
            if new_loss <= (val + g @ s + (s @ s) / (2.0 * step)
                            + slack * max(1.0, abs(val))):
                break
            step *= 0.5
        model = probe
        new_obj = new_loss + penalty_value(spec, model)
        trace.append(new_obj)
        log.append((rule, trials))
        if abs(obj - new_obj) < opt.rel_tol * max(1.0, abs(obj)):
            converged = True
            break
        obj = new_obj
    return SimpleNamespace(trace=np.asarray(trace), model=model, step=step,
                           converged=converged, log=log,
                           backtracks=sum(len(trials) - 1 for _, trials in log))
