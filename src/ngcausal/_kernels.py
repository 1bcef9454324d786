"""Hot numeric kernels: batched MLP loss/gradient and structured prox operators.

Model parameters travel as one flat float64 vector ``theta``.  Layer ``l``
maps width ``dims[l]`` to ``dims[l+1]``; its weight matrix lives at
``theta[w_off[l] : w_off[l] + dims[l+1]*dims[l]]`` (row-major) and its bias at
``theta[b_off[l] : b_off[l] + dims[l+1]]``.  ``dims``, ``w_off`` and ``b_off``
are sequences of Python ints, and the hidden layers' activation ``act`` is
passed by name, ``"tanh"`` or ``"relu"``.  The first layer's input axis is
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
bit, and equal to a plain loop over (series, lag, unit) in that order.  Each
prox kernel also returns the unscaled penalty of its result, summed exactly
as ``penalty_value`` sums it, so the optimizer need not compute it again.
"""

import numpy as np


def layer(theta, dims, w_off, b_off, l):
    """Views into theta of layer l's (dims[l+1], dims[l]) weight and its bias."""
    din = dims[l]
    dout = dims[l + 1]
    W = theta[w_off[l]:w_off[l] + dout * din].reshape(dout, din)
    return W, theta[b_off[l]:b_off[l] + dout]


def layer_activations(theta, dims, w_off, b_off, act, X):
    """Activations of every layer, unit-major, for the rows of X.

    Returns ``[X.T, a_1, ..., a_L]``: the (p*K, N) input view, the hidden
    activations after the nonlinearity, each (width, N), and last the
    linear output layer of shape (1, N).
    """
    L = len(dims) - 1
    acts = [X.T]
    for l in range(L):
        W, b = layer(theta, dims, w_off, b_off, l)
        z = W @ acts[l]
        z += b[:, None]
        if l < L - 1:
            if act == "tanh":
                np.tanh(z, out=z)
            else:
                np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


def mlp_loss(theta, dims, w_off, b_off, act, X, y):
    """Sum of squared residuals over all rows of X, and the forward pass that
    :func:`mlp_loss_grad` takes: the activations of
    :func:`layer_activations` whose last entry holds the (1, N) residual
    ``output - y`` instead of the output."""
    acts = layer_activations(theta, dims, w_off, b_off, act, X)
    r = acts[-1][0]
    r -= y
    return np.dot(r, r), acts


def mlp_loss_grad(theta, dims, w_off, b_off, act, X, grad, acts):
    """Loss plus exact reverse-mode gradient, written into ``grad``.

    ``acts`` is the forward pass :func:`mlp_loss` returned for this same
    ``theta`` on the rows ``X``, so neither the forward pass nor the
    residual is computed again.
    """
    L = len(dims) - 1
    r = acts[-1][0]
    loss = np.dot(r, r)

    delta = 2.0 * r[None, :]
    for l in range(L - 1, -1, -1):
        W, _ = layer(theta, dims, w_off, b_off, l)
        # gW = delta @ a_in.T, computed as (a_in @ delta.T).T, which is
        # faster at large N when X is in Fortran order
        grad[w_off[l]:w_off[l] + W.size] = (acts[l] @ delta.T).T.ravel()
        delta.sum(axis=1, out=grad[b_off[l]:b_off[l] + W.shape[0]])
        if l > 0:
            h = acts[l]
            if act == "tanh":
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


def _block_norms(w):
    """Per (series j, lag k) block norms of a lag-major (K, H, p) layer, shape (p, K)."""
    # C order: a caller's sum over the whole array adds in memory order, so
    # the layout is part of the result's bits
    return np.ascontiguousarray(np.sqrt(np.add.accumulate(w * w, axis=1)[:, -1]).T)


def group_norms(w1, p, K):
    """Frobenius norm of each input series' column group of the first layer."""
    return _sq_norms(_lag_major(w1, p, K).reshape(-1, p))


def lag_norms(w1, p, K):
    """Per (series j, lag k) block norms of the first layer, shape (p, K)."""
    return _block_norms(_lag_major(w1, p, K))


def suffix_norm_sum(block_norms):
    """Sum over series of all lag-suffix (k..K) norms, from the (p, K) block
    norms :func:`lag_norms` returns: the unscaled hierarchical penalty."""
    suffix_sq = (block_norms ** 2)[:, ::-1].cumsum(axis=1)[:, ::-1]
    return np.sqrt(suffix_sq).sum()


def _prox_suffixes(w1, p, K, thr, starts):
    """Group soft-threshold of the lag suffixes (k0..K) of every column group,
    for each k0 in ``starts`` in turn, in place.  Returns the lag-major
    (K, H, p) copy of the result.

    A suffix whose norm is <= thr becomes exact (positive) zeros; otherwise it
    is scaled by (1 - thr / norm).  A NaN norm fails the test, so its suffix
    is scaled to NaN, not zeroed.
    """
    w = np.ascontiguousarray(_lag_major(w1, p, K))
    # the scale of a zeroed suffix may be inf or NaN: overwritten below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k0 in starts:
            suffix = w[k0:]
            nrm = _sq_norms(suffix.reshape(-1, p))
            suffix *= 1.0 - thr / nrm
            np.copyto(suffix, 0.0, where=nrm <= thr)
    w1[...] = w.transpose(1, 0, 2).reshape(w1.shape)
    return w


def prox_group(w1, p, K, thr):
    """Blockwise group soft-threshold of every column group, in place.

    Returns the sum of the result's group norms, added as
    ``group_norms(w1, p, K).sum()`` adds them.
    """
    w = _prox_suffixes(w1, p, K, thr, [0])
    return _sq_norms(w.reshape(-1, p)).sum()


def prox_hier(w1, p, K, thr):
    """Nested-suffix prox of every column group, in place.

    For each series the group soft-threshold is applied to the lag suffixes
    (k..K) for k = K down to 1, innermost first, each with the same threshold.
    The result always has a suffix zero pattern over lags.  Returns the sum
    of the result's lag-suffix norms, as
    ``suffix_norm_sum(lag_norms(w1, p, K))`` computes it.
    """
    w = _prox_suffixes(w1, p, K, thr, range(K - 1, -1, -1))
    return suffix_norm_sum(_block_norms(w))
