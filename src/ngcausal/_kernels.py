"""Hot numeric kernels: batched MLP loss/gradient and structured prox operators.

Model parameters travel as one flat float64 vector ``theta``.  Layer ``l``
maps width ``dims[l]`` to ``dims[l+1]``; its weight matrix lives at
``theta[w_off[l] : w_off[l] + dims[l+1]*dims[l]]`` (row-major) and its bias at
``theta[b_off[l] : b_off[l] + dims[l+1]]``.  The first layer's input axis is
ordered lag-major: input column ``k*p + j`` is series ``j`` at lag ``k+1``,
so the column group of series ``j`` is ``w1[:, j::p]``, and ``w1`` viewed as
``(H, K, p)`` holds series ``j``'s group at ``[:, :, j]``.

The MLP kernels store activations unit-major: every layer's output is a
``(width, N)`` array, one row per unit and one column per data row, so a
layer is ``W @ a_prev`` plus a bias broadcast along rows and the bias
gradient is a sum along rows.  The design matrix ``X`` stays ``(N, p*K)``;
the kernels read it as ``X.T``, which is C-contiguous when ``X`` is in
Fortran order, as :func:`ngcausal.model.build_lagged` builds it.  Any memory
order gives the same values up to rounding.

The norm and prox kernels work on all series at once but add squares in a
fixed order, lag outer and hidden unit inner, one term at a time
(``np.add.accumulate`` is sequential by definition, while ``sum`` may switch
to pairwise summation).  Their results are therefore reproducible to the
bit, and equal to a plain loop over (series, lag, unit) in that order.
"""

import numpy as np

ACT_TANH = 0
ACT_RELU = 1


def _layer(theta, dims, w_off, b_off, l):
    din = dims[l]
    dout = dims[l + 1]
    W = theta[w_off[l]:w_off[l] + dout * din].reshape(dout, din)
    return W, theta[b_off[l]:b_off[l] + dout]


def forward(theta, dims, w_off, b_off, act, X):
    """Activations of every layer, unit-major, for the rows of X.

    Returns ``[X.T, a_1, ..., a_L]``: the (p*K, N) input view, the hidden
    activations after the nonlinearity, each (width, N), and last the
    linear output layer of shape (1, N).
    """
    L = dims.shape[0] - 1
    acts = [X.T]
    for l in range(L):
        W, b = _layer(theta, dims, w_off, b_off, l)
        z = W @ acts[l]
        z += b[:, None]
        if l < L - 1:
            if act == ACT_TANH:
                np.tanh(z, out=z)
            else:
                np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


def mlp_loss(theta, dims, w_off, b_off, act, X, y):
    """Sum of squared residuals over all rows of X, and the activations
    (from :func:`forward`) that :func:`mlp_loss_grad` can reuse."""
    acts = forward(theta, dims, w_off, b_off, act, X)
    r = acts[-1][0] - y
    return np.dot(r, r), acts


def mlp_loss_grad(theta, dims, w_off, b_off, act, X, y, grad, acts=None):
    """Loss plus exact reverse-mode gradient, written into ``grad``.

    ``acts`` are the activations :func:`mlp_loss` returned for this same
    ``theta`` and ``X``; given them, the forward pass is not run again.
    """
    if acts is None:
        acts = forward(theta, dims, w_off, b_off, act, X)
    L = dims.shape[0] - 1
    r = acts[-1][0] - y
    loss = np.dot(r, r)

    delta = 2.0 * r[None, :]
    for l in range(L - 1, -1, -1):
        W, _ = _layer(theta, dims, w_off, b_off, l)
        # gW = delta @ a_in.T, computed as (a_in @ delta.T).T, which is
        # faster at large N when X is in Fortran order
        grad[w_off[l]:w_off[l] + W.size] = (acts[l] @ delta.T).T.ravel()
        np.sum(delta, axis=1, out=grad[b_off[l]:b_off[l] + W.shape[0]])
        if l > 0:
            h = acts[l]
            if act == ACT_TANH:
                # (1 - h^2) * (W.T @ delta), built in one buffer; before a
                # one-unit layer, W.T @ delta is an outer product, which two
                # broadcast multiplies do faster than the GEMM
                d = h * h
                np.subtract(1.0, d, out=d)
                if W.shape[0] == 1:
                    d *= W.T
                    d *= delta
                else:
                    d *= W.T @ delta
            else:
                # relu: h > 0 exactly where the pre-activation was > 0
                d = W.T @ delta
                np.copyto(d, 0.0, where=~(h > 0.0))
            delta = d
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
        # the scale of a zeroed suffix may be inf or NaN: overwritten below
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            suffix *= 1.0 - thr / nrm
        np.copyto(suffix, 0.0, where=nrm <= thr)
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
