"""Hot numeric kernels: batched MLP loss/gradient and structured prox operators.

Model parameters travel as one flat float64 vector ``theta``.  Layer ``l``
maps width ``dims[l]`` to ``dims[l+1]``; its weight matrix lives at
``theta[w_off[l] : w_off[l] + dims[l+1]*dims[l]]`` (row-major) and its bias at
``theta[b_off[l] : b_off[l] + dims[l+1]]``.  The first layer's input axis is
ordered lag-major: input column ``k*p + j`` is series ``j`` at lag ``k+1``,
so the column group of series ``j`` is ``w1[:, j::p]``, and ``w1`` viewed as
``(H, K, p)`` holds series ``j``'s group at ``[:, :, j]``.

The norm and prox kernels work on all series at once but add squares in a
fixed order, lag outer and hidden unit inner, one term at a time
(``np.add.accumulate`` is sequential by definition, while ``sum`` may switch
to pairwise summation).  Their results are therefore reproducible to the
bit, and equal to a plain loop over (series, lag, unit) in that order.
"""

import numpy as np

ACT_TANH = 0
ACT_RELU = 1


def forward(theta, dims, w_off, b_off, act, X):
    """Activations of every layer for the rows of X.

    Returns ``[X, a_1, ..., a_L]``: the hidden activations after the
    nonlinearity and, last, the linear output layer of shape (N, 1).
    """
    L = dims.shape[0] - 1
    acts = [X]
    for l in range(L):
        din = dims[l]
        dout = dims[l + 1]
        W = theta[w_off[l]:w_off[l] + dout * din].reshape(dout, din)
        b = theta[b_off[l]:b_off[l] + dout]
        z = np.dot(acts[l], W.T) + b
        if l < L - 1:
            z = np.tanh(z) if act == ACT_TANH else np.maximum(z, 0.0)
        acts.append(z)
    return acts


def mlp_loss(theta, dims, w_off, b_off, act, X, y):
    """Sum of squared residuals over all rows of X, and the activations
    (from :func:`forward`) that :func:`mlp_loss_grad` can reuse."""
    acts = forward(theta, dims, w_off, b_off, act, X)
    r = acts[-1][:, 0] - y
    return np.dot(r, r), acts


def mlp_loss_grad(theta, dims, w_off, b_off, act, X, y, grad, acts=None):
    """Loss plus exact reverse-mode gradient, written into ``grad``.

    ``acts`` are the activations :func:`mlp_loss` returned for this same
    ``theta`` and ``X``; given them, the forward pass is not run again.
    """
    if acts is None:
        acts = forward(theta, dims, w_off, b_off, act, X)
    L = dims.shape[0] - 1
    N = X.shape[0]
    r = acts[-1][:, 0] - y
    loss = np.dot(r, r)

    delta = (2.0 * r).reshape(N, 1)
    for l in range(L - 1, -1, -1):
        din = dims[l]
        dout = dims[l + 1]
        gW = np.dot(delta.T, acts[l])
        grad[w_off[l]:w_off[l] + dout * din] = gW.ravel()
        grad[b_off[l]:b_off[l] + dout] = np.sum(delta, 0)
        if l > 0:
            W = theta[w_off[l]:w_off[l] + dout * din].reshape(dout, din)
            da = np.dot(delta, W)
            h = acts[l]
            if act == ACT_TANH:
                delta = da * (1.0 - h * h)
            else:
                # relu: h > 0 exactly where the pre-activation was > 0
                delta = np.where(h > 0.0, da, 0.0)
    return loss


def _sq_norms(blocks):
    """Euclidean norm of each column of a (n, p) array, adding squares in row order."""
    return np.sqrt(np.add.accumulate(blocks * blocks, axis=0)[-1])


def _lag_major(w1, p, K):
    """First layer as a (K, H, p) array: [k, h, j] = w1[h, k*p + j]."""
    H = w1.shape[0]
    return w1.reshape(H, K, p).transpose(1, 0, 2)


def group_norms(w1, p, K):
    """Frobenius norm of each input series' column group of the first layer."""
    return _sq_norms(_lag_major(w1, p, K).reshape(-1, p))


def lag_norms(w1, p, K):
    """Per (series j, lag k) block norms of the first layer, shape (p, K)."""
    # C order, as the loops returned: a caller's sum over the whole array
    # adds in memory order, so the layout is part of the result's bits
    return np.ascontiguousarray(_sq_norms(w1).reshape(K, p).T)


def _prox_suffixes(w1, p, K, thr, starts):
    """Group soft-threshold of the lag suffixes (k0..K) of every column group,
    for each k0 in ``starts`` in turn, in place.

    A suffix whose norm is <= thr becomes exact (positive) zeros; otherwise it
    is scaled by (1 - thr / norm).  A NaN norm fails the test, so its suffix
    is scaled to NaN, not zeroed.
    """
    w = np.ascontiguousarray(_lag_major(w1, p, K))
    for k0 in starts:
        suffix = w[k0:]
        nrm = _sq_norms(suffix.reshape(-1, p))
        keep = ~(nrm <= thr)
        suffix[..., keep] *= 1.0 - thr / nrm[keep]
        suffix[..., ~keep] = 0.0
    w1[...] = w.transpose(1, 0, 2).reshape(w1.shape)


def prox_group(w1, p, K, thr):
    """Blockwise group soft-threshold of every column group, in place."""
    _prox_suffixes(w1, p, K, thr, [0])


def prox_hier(w1, p, K, thr):
    """Nested-suffix prox of every column group, in place.

    For each series the group soft-threshold is applied to the lag suffixes
    (k..K) for k = K down to 1, innermost first, each with the same threshold.
    The result always has a suffix zero pattern over lags.
    """
    _prox_suffixes(w1, p, K, thr, range(K - 1, -1, -1))
