"""Slow, obviously correct reference implementations that tests compare the
package against; nothing in ``ngcausal`` calls them.

The norm and prox oracles add squares one at a time, series outer, lag, then
hidden unit inner, and zero a group when its norm is <= the threshold, on a
first layer ``w1`` of shape (H, K*p) whose column ``k*p + j`` is series ``j``
at lag ``k+1``.  The hierarchical prox shrinks the lag suffixes k..K of each
series from the deepest lag up (Jenatton et al., "Proximal Methods for
Hierarchical Sparse Coding", JMLR 2011).
"""

import numpy as np


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
