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
``(width, N)`` array, one row per unit and one column per data row.  They
read a design ``X`` of shape ``(N, p*K + 1)``: the stacked lags and a last
column of ones, so the first layer is one product of ``[W1 | b1]`` with
``X.T`` and its bias gradient is the last column of its weight gradient; deeper
layers add their bias along rows.  ``X.T`` is C-contiguous when ``X`` is in
Fortran order, as :func:`ngcausal.model.build_lagged` builds it.  Any memory
order gives the same values up to rounding.  Before the one-unit output
layer the backward pass keeps that layer's weight row aside and scales the
rows of the next weight gradient by it, instead of scaling every row of
the ``(width, N)`` delta.

The MLP kernels run in the dtype of the design they are given; there is
one code path.  On a float32 design (a model with hidden layers reads one,
see :class:`ngcausal.model.LaggedDataset`) the weights are rounded to
float32 where they meet it, so the first-layer product, the hidden
activations, the backward pass through the hidden layers and every
weight-gradient product run in float32.  The output layer's product is
cast to float64 before its bias is added; the residual, the loss, the
output bias gradient and ``grad`` are float64 whatever the design's dtype.
A linear model reads the float64 design and runs wholly in float64.

Every product over the data rows runs in row blocks of at most 1e6
multiply-adds, in the operands' dtype.  The OpenBLAS that numpy bundles
sends a product that size to its small-matrix kernel where it has one for
the CPU (its SkylakeX kernels do, its Haswell kernels do not), and that
kernel runs on one thread.  Any other product runs on its general kernel,
threaded once past OpenBLAS's own threshold, and its bits may then follow
the thread count.  On an AVX-512 Xeon (SkylakeX kernels, one thread, 10
hidden units, N = 3,997) the first-layer forward product took 51 us at 25
design columns (999,250 multiply-adds) and 77 us at 26, and the gradient
product 77 us and 158 us (float64).  The budget suits float32 as well: at
31 columns its forward product took 33 us in blocks of 3,200 rows against
61 us whole, and its gradient product 46 us against 111 us.  So a product
whose other two sides are m and k takes ``1e6 // (m*k)`` rows per block,
rounded down to a multiple of 64.  It runs as one product when all N rows
fit the budget, or when no block of 64 rows does: m*k above 15,625, which a
width-10 first layer at K = 3 reaches past p = 520 and the grid anchor's
(p, p*K) table past p = 72.  The small-matrix kernel also refuses a
weight-gradient product whose (m, k) result has more than 1,200 entries
(10 x 120 fast, 10 x 121 slow): at width 10 and K = 3, the first layer's
past p = 39, in float32 as in float64 (at 121 columns float32 blocks took
323 us against 294 us whole).  Its blocks then run on the general kernel,
threaded, and their bits may follow the thread count (measured at T = 1,000
to 4,000: equal at p = 50, different at p = 60).  The README states what
this means for the CLI's bytes and time.  A map over rows
(:func:`layer_activations`, the backward ``W.T @ delta``) writes each block
into its slice of one output.  Each entry sums the same terms, and with
block edges at multiples of 64 rows it has the bits one product gives
(measured: edges at multiples of 8 rows keep them, other edges may not).  A
reduction over rows (:func:`sum_rows`, the weight gradients) adds the
blocks' products in block order, which changes only the rounding.  Where
one block covers all rows, the plain product runs, so a fit on N = 997 rows
and p*K + 1 = 31 columns has the bits it had before blocking.

The norm and prox kernels work on all series at once from one ``(K, p)``
table of block sums of squares: ``[k, j]`` adds the squares of series
``j``'s lag-``k+1`` block over the hidden units in order.  A group norm adds
its column of the table over lags in order; a lag norm is the square root
of an entry.  Every sum adds one term at a time (``np.add.accumulate`` is
sequential by definition, while ``sum`` may switch to pairwise summation),
so the results are reproducible to the bit.  The hierarchical prox and
penalty run the nested-suffix recurrence on the lag norms, deepest lag
first, with ``np.hypot``.  Each prox kernel also returns the unscaled
penalty of its result, computed from the result's table by the formulas
``penalty_value`` uses, so the optimizer need not compute it again.
"""

import numpy as np

_TINY = float(np.nextafter(0.0, 1.0))  # the least positive float
_BLOCK_MULADDS = 1_000_000  # most multiply-adds in one blocked product
_BLOCK_ALIGN = 64           # rows per block are a multiple of this


def _block_rows(m, k, N):
    """Data rows per block of a product over N data rows whose other two
    sides are m and k; N means one product."""
    if N * m * k <= _BLOCK_MULADDS:
        return N
    return _BLOCK_MULADDS // (m * k) // _BLOCK_ALIGN * _BLOCK_ALIGN or N


def _map_rows(A, B):
    """A @ B for the (k, N) B whose columns are data rows, one block of
    columns at a time, each written into its slice of one (m, N) output of
    the operands' result dtype."""
    m, k = A.shape
    N = B.shape[1]
    rows = _block_rows(m, k, N)
    if rows == N:
        return A @ B
    out = np.empty((m, N), dtype=np.result_type(A, B))
    for s in range(0, N, rows):
        np.matmul(A, B[:, s:s + rows], out=out[:, s:s + rows])
    return out


def sum_rows(A, B):
    """A @ B for the (m, N) A and (N, k) B, summed over the N data rows one
    block at a time: the blocks' products are added in block order."""
    m, N = A.shape
    k = B.shape[1]
    rows = _block_rows(m, k, N)
    if rows == N:
        return A @ B
    out = A[:, :rows] @ B[:rows]
    for s in range(rows, N, rows):
        out += A[:, s:s + rows] @ B[s:s + rows]
    return out


def layer(theta, dims, w_off, b_off, l):
    """Views into theta of layer l's (dims[l+1], dims[l]) weight and its bias."""
    din = dims[l]
    dout = dims[l + 1]
    W = theta[w_off[l]:w_off[l] + dout * din].reshape(dout, din)
    return W, theta[b_off[l]:b_off[l] + dout]


def layer_activations(theta, dims, w_off, b_off, act, X):
    """Activations of every layer, unit-major, for the rows of the design X.

    Returns ``[X.T, a_1, ..., a_L]``: the (p*K + 1, N) input view, the
    hidden activations after the nonlinearity, each (width, N), and last
    the linear output layer of shape (1, N).
    """
    L = len(dims) - 1
    acts = [X.T]
    for l in range(L):
        W, b = layer(theta, dims, w_off, b_off, l)
        if l == 0:
            z = _map_rows(np.concatenate((W, b[:, None]), axis=1, dtype=X.dtype), acts[0])
        else:
            z = _map_rows(W.astype(X.dtype, copy=False), acts[l])
        if l == L - 1:
            z = z.astype(np.float64, copy=False)   # the output is float64
        if l > 0:
            z += b[:, None]
        if l < L - 1:
            if act == "tanh":
                np.tanh(z, out=z)
            else:
                np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


def mlp_loss(theta, dims, w_off, b_off, act, X, y):
    """Sum of squared residuals over all rows of the design X, and the
    forward pass that :func:`mlp_loss_grad` takes: the activations of
    :func:`layer_activations` whose last entry holds the (1, N) residual
    ``output - y`` instead of the output."""
    acts = layer_activations(theta, dims, w_off, b_off, act, X)
    r = acts[-1][0]
    r -= y
    return np.dot(r, r), acts


def mlp_loss_grad(theta, dims, w_off, b_off, act, X, grad, acts):
    """Loss plus exact reverse-mode gradient, written into ``grad``.

    ``acts`` is the forward pass :func:`mlp_loss` returned for this same
    ``theta`` on the design ``X``, so neither the forward pass nor the
    residual is computed again.
    """
    L = len(dims) - 1
    dtype = acts[0].dtype   # the design's
    r = acts[-1][0]
    loss = np.dot(r, r)

    # the gradient at layer l's output is scale[:, None] * delta, or delta
    # itself while scale is None
    delta, scale = 2.0 * r[None, :], None
    for l in range(L - 1, -1, -1):
        W, _ = layer(theta, dims, w_off, b_off, l)
        dout, din = W.shape
        if l > 0:
            # summed in delta's dtype: the output layer's from the float64 residual
            gb = grad[b_off[l]:b_off[l] + dout]
            gb[...] = delta.sum(axis=1)
            if scale is not None:
                gb *= scale
        delta = delta.astype(dtype, copy=False)
        # (a_in @ delta.T) is gW.T, faster at large N than delta @ a_in.T
        # when X is in Fortran order
        G = sum_rows(acts[l], delta.T)
        if scale is not None:
            G *= scale
        grad[w_off[l]:w_off[l] + W.size].reshape(dout, din)[...] = G[:din].T
        if l == 0:
            grad[b_off[0]:b_off[0] + dout] = G[din]   # the design's ones column
            break
        if dout == 1:
            # W.T @ delta is the outer product of W's one row with delta:
            # that row becomes the scale of the next layer's gradient
            scale = W[0] if scale is None else W[0] * scale[0]
            back = delta
        else:
            Ws = W if scale is None else W * scale[:, None]
            back = _map_rows(Ws.T.astype(dtype, copy=False), delta)
            scale = None
        h = acts[l]
        if act == "tanh":
            d = h * h
            np.subtract(1.0, d, out=d)
            d *= back
        else:
            # relu: h > 0 exactly where the pre-activation was > 0
            d = np.where(h > 0.0, back, 0.0)
        delta = d
    return loss


def _table(w1, p, K):
    """(K, p) block sums of squares: [k, j] adds w1[h, k*p + j]**2 over h in order."""
    return np.add.accumulate(w1 * w1, axis=0)[-1].reshape(K, p)


def _group_norms(table):
    """Norm of each series' group: its column of the table added over lags in order."""
    return np.sqrt(np.add.accumulate(table, axis=0)[-1])


def _suffix_norms(lag):
    """(K, p) lag-suffix (k..K) norms from the (K, p) lag norms, deepest lag
    first: n_k = hypot(lag_k, n_{k+1}), with n_{K-1} = lag_{K-1}."""
    n = np.empty(lag.shape)   # C order: the caller's sum adds in memory order
    r = 0.0
    for k in range(lag.shape[0] - 1, -1, -1):
        r = np.hypot(lag[k], r, out=n[k])
    return n


def _scale_blocks(w1, factor):
    """Scale column k*p + j of w1 by the (K, p) factor[k, j] in place.
    Adding 0.0 turns -0.0 into +0.0 and leaves every other value as it is,
    so a column whose factor is 0 becomes exact positive zeros."""
    w1 *= factor.reshape(-1)
    w1 += 0.0


def _shrink(norms, thr):
    """Group soft-threshold factors: 1 - thr / norm, exactly 0 where
    norm <= thr (thr / thr is 1), and NaN for a NaN norm.

    A zero thr is raised to the least positive float first: no norm lies
    between the two (a nonzero norm is at least sqrt of it, about 2e-162),
    so the same groups are zeroed, and no division is by zero.
    """
    thr = max(thr, _TINY)
    return 1.0 - thr / np.maximum(norms, thr)


def group_norms(w1, p, K):
    """Frobenius norm of each input series' column group of the first layer."""
    return _group_norms(_table(w1, p, K))


def lag_norms(w1, p, K):
    """Per (series j, lag k) block norms of the first layer, shape (p, K)."""
    return np.sqrt(_table(w1, p, K)).T


def suffix_norm_sum(block_norms):
    """Sum over series of all lag-suffix (k..K) norms, from the (p, K) block
    norms :func:`lag_norms` returns: the unscaled hierarchical penalty."""
    return _suffix_norms(block_norms.T).sum()


def prox_group(w1, p, K, thr):
    """Blockwise group soft-threshold of every column group, in place: one
    shrink factor per series, from its group norm, scales all its blocks.

    Returns the sum of the result's group norms, added as
    ``group_norms(w1, p, K).sum()`` adds them.
    """
    factor = np.empty((K, p))
    factor[...] = _shrink(_group_norms(_table(w1, p, K)), thr)
    _scale_blocks(w1, factor)
    return _group_norms(_table(w1, p, K)).sum()


def prox_hier(w1, p, K, thr):
    """Nested-suffix prox of every column group, in place.

    For each series the group soft-threshold is applied to the lag suffixes
    (k..K) for k = K down to 1, innermost first, each with the same
    threshold (Jenatton et al., JMLR 2011).  On norms this is the
    recurrence n_k = hypot(lag_k, r_{k+1}), r_k = (n_k - thr)+ from
    r_{K+1} = 0, where n_k is the norm suffix k has when its turn comes and
    r_k its norm after; block k is then scaled once, by the product of the
    factors of suffixes 1..k.  The result always has a suffix zero pattern
    over lags.  Returns the sum of the result's lag-suffix norms, as
    ``suffix_norm_sum(lag_norms(w1, p, K))`` computes it.
    """
    lag = np.sqrt(_table(w1, p, K))
    n = np.empty((K, p))
    r = 0.0
    for k in range(K - 1, -1, -1):
        r = np.maximum(np.hypot(lag[k], r, out=n[k]) - thr, 0.0)
    _scale_blocks(w1, np.multiply.accumulate(_shrink(n, thr), axis=0))
    return _suffix_norms(np.sqrt(_table(w1, p, K))).sum()
