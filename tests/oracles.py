"""Slow, obviously correct reference implementations that tests compare the
package against; nothing in ``ngcausal`` calls them.

The norm and prox oracles add squares one at a time, series outer, lag, then
hidden unit inner, and zero a group when its norm is <= the threshold, on a
first layer ``w1`` of shape (H, K*p) whose column ``k*p + j`` is series ``j``
at lag ``k+1``.  The hierarchical prox shrinks the lag suffixes k..K of each
series from the deepest lag up (Jenatton et al., "Proximal Methods for
Hierarchical Sparse Coding", JMLR 2011).

``reference_fit`` is the proximal gradient loop of ``optim.fit`` without
any of its reuse: it runs ``loss_and_grad`` afresh on every model and
candidate, and ``penalty_value`` on every accepted one.
"""

from types import SimpleNamespace

import numpy as np

from ngcausal.model import loss_and_grad
from ngcausal.optim import MIN_STEP
from ngcausal.penalties import apply_prox, penalty_value


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


def oracle_group_norms(w1, p, K):
    H = w1.shape[0]
    out = np.empty(p)
    for j in range(p):
        s = 0.0
        for k in range(K):
            c = k * p + j
            for h in range(H):
                s += w1[h, c] * w1[h, c]
        out[j] = np.sqrt(s)
    return out


def oracle_lag_norms(w1, p, K):
    H = w1.shape[0]
    out = np.empty((p, K))
    for j in range(p):
        for k in range(K):
            c = k * p + j
            s = 0.0
            for h in range(H):
                s += w1[h, c] * w1[h, c]
            out[j, k] = np.sqrt(s)
    return out


def _oracle_shrink_suffix(w1, p, j, k0, K, thr):
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


def oracle_prox_group(w1, p, K, thr):
    for j in range(p):
        _oracle_shrink_suffix(w1, p, j, 0, K, thr)


def oracle_prox_hier(w1, p, K, thr):
    for j in range(p):
        for k0 in range(K - 1, -1, -1):
            _oracle_shrink_suffix(w1, p, j, k0, K, thr)


def oracle_penalty(kind, w1, p, K):
    """Unscaled penalty of w1 from the oracle norms: the group norms, or each
    series' lag-suffix norms built from its lag norms deepest lag first, then
    added up by numpy's sum over the (p,) or C-ordered (p, K) array, the sum
    ``penalty_value`` takes."""
    if kind == "group":
        return oracle_group_norms(w1, p, K).sum()
    lag = oracle_lag_norms(w1, p, K)
    suffix = np.empty((p, K))
    for j in range(p):
        s = 0.0
        for k in range(K - 1, -1, -1):
            s += lag[j, k] * lag[j, k]
            suffix[j, k] = np.sqrt(s)
    return suffix.sum()


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
                            + 1e-12 * max(1.0, abs(val))):
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
