"""The vectorized norm and prox kernels against the plain-loop oracles of
``oracles.py``: the kernels must agree with them to the bit, with the same
values, the same NaNs and the same signs of zeros.  The penalty a prox
kernel returns must equal, to the bit, the one recomputed from the oracle
norms of its result.  The prox kernels must also agree, to rtol=1e-13 and
with the same zeros and NaNs, with the second reference that shrinks the
weights suffix by suffix.

The MLP kernels run their products over the data rows in row blocks: a
blocked forward pass must equal one product to the bit, a blocked gradient
must match, to 1e-12 relative in float64 and to float32 rounding in
float32, the one-product gradient, and a product that fits one block must
be the plain product.  Blocks keep the operands' dtype.  On the float64
design the gradient must match finite differences; on the float32 design,
whose loss differences would measure its rounding, the plain references of
``oracles.py`` in both precisions.
"""

import numpy as np
import pytest

from ngcausal import _kernels as kernels
from ngcausal.model import Architecture, ComponentMLP, build_lagged
from oracles import (finite_diff_grad, loop_prox_group, loop_prox_hier,
                     oracle_group_norms, oracle_lag_norms, oracle_penalty,
                     oracle_prox_group, oracle_prox_hier, reference_loss_grad)

EPS32 = float(np.finfo(np.float32).eps)

PROX_CASES = [(kernels.prox_group, oracle_prox_group, "group"),
              (kernels.prox_hier, oracle_prox_hier, "hierarchical")]
LOOP_CASES = [(kernels.prox_group, loop_prox_group),
              (kernels.prox_hier, loop_prox_hier)]


def assert_bit_equal(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def check_prox(kernel, oracle, kind, w1, p, K, thr):
    """The kernel's result and returned penalty against the oracles; returns the result."""
    got, want = w1.copy(), w1.copy()
    penalty = kernel(got, p, K, thr)
    oracle(want, p, K, thr)
    assert_bit_equal(got, want)
    assert_bit_equal(np.asarray(penalty), np.asarray(oracle_penalty(kind, want, p, K)))
    return got


def check_against_loop(kernel, loop, w1, p, K, thr):
    """The kernel's result against the suffix-by-suffix loop: equal to
    rtol=1e-13, with the same zeros, all +0.0, and the same NaNs."""
    got, want = w1.copy(), w1.copy()
    kernel(got, p, K, thr)
    loop(want, p, K, thr)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got == 0.0, want == 0.0)
    zeroed = (got == 0.0) & (w1 != 0.0)
    assert not np.any(np.signbit(got[zeroed])) and not np.any(np.signbit(want[zeroed]))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def random_case(gen):
    """A first layer of random shape with some zero, negative-zero, lag-suffix
    zero, tiny and NaN groups."""
    H = int(gen.integers(1, 7))
    K = int(gen.integers(1, 5))
    p = 1 if gen.random() < 0.3 else int(gen.integers(2, 7))
    w1 = gen.normal(scale=gen.choice([1e-3, 0.1, 1.0, 10.0]), size=(H, K * p))
    w3 = w1.reshape(H, K, p)
    for j in range(p):
        u = gen.random()
        if u < 0.15:
            w3[:, :, j] = 0.0
        elif u < 0.25:
            w3[:, :, j] = -0.0
        elif u < 0.35:
            w3[:, int(gen.integers(0, K)):, j] = 0.0
        elif u < 0.42:
            w3[:, :, j] *= 1e-160        # squares underflow to subnormals or zero
        elif u < 0.47:
            w3[0, K - 1, j] = np.nan
    return w1, p, K


def thresholds(gen, w1, p, K):
    """Zero, a random value, a huge value, and values exactly at a group norm
    and at a last-lag norm (the first suffix the hierarchical prox sees)."""
    j = int(gen.integers(0, p))
    return [0.0, float(gen.uniform(0.0, 2.0 * np.nanmax(np.abs(w1)) + 1e-3)), 1e30,
            float(oracle_group_norms(w1, p, K)[j]),
            float(oracle_lag_norms(w1, p, K)[j, K - 1])]


@pytest.mark.parametrize("seed", range(150))
def test_norms_match_oracle(seed):
    gen = np.random.default_rng(seed)
    w1, p, K = random_case(gen)
    assert_bit_equal(kernels.group_norms(w1, p, K), oracle_group_norms(w1, p, K))
    assert_bit_equal(kernels.lag_norms(w1, p, K), oracle_lag_norms(w1, p, K))


@pytest.mark.parametrize("seed", range(150))
@pytest.mark.parametrize("kernel,oracle,kind", PROX_CASES, ids=["group", "hier"])
def test_prox_matches_oracle(seed, kernel, oracle, kind):
    gen = np.random.default_rng(seed)
    w1, p, K = random_case(gen)
    for thr in thresholds(gen, w1, p, K):
        check_prox(kernel, oracle, kind, w1, p, K, thr)


@pytest.mark.parametrize("seed", range(150))
@pytest.mark.parametrize("kernel,loop", LOOP_CASES, ids=["group", "hier"])
def test_prox_matches_suffix_loop(seed, kernel, loop):
    # thresholds exactly at a norm are left out: the two summation orders
    # may put that norm an ulp to either side of it
    gen = np.random.default_rng(seed)
    w1, p, K = random_case(gen)
    for thr in thresholds(gen, w1, p, K)[:3]:
        check_against_loop(kernel, loop, w1, p, K, thr)


@pytest.mark.parametrize("H,K,p", [(10, 5, 50), (10, 3, 20)])
@pytest.mark.parametrize("kernel,oracle,kind", PROX_CASES, ids=["group", "hier"])
def test_prox_at_model_sizes(H, K, p, kernel, oracle, kind):
    # first layers of the benchmark's and a larger model, with thresholds
    # that zero no group, some lag suffixes (hierarchical), some groups, and
    # every group; each sits in the middle of the widest gap between the
    # lower half of the nonzero last-lag norms or between the nonzero group
    # norms, since near a norm the factor 1 - thr / norm loses digits in
    # either summation order
    w1 = np.random.default_rng(H * 100 + K * 10 + p).normal(scale=0.1, size=(H, K * p))
    w1.reshape(H, K, p)[:, :, ::7] = 0.0
    nrm = oracle_group_norms(w1, p, K)
    last = np.sort(oracle_lag_norms(w1, p, K)[:, K - 1])
    last = last[last > 0]

    def between(norms):
        i = int(np.argmax(np.diff(norms)))
        return 0.5 * float(norms[i] + norms[i + 1])

    for thr in (0.0, between(last[:last.size // 2]), between(np.sort(nrm[nrm > 0])),
                2.0 * nrm.max()):
        check_prox(kernel, oracle, kind, w1, p, K, thr)
        check_against_loop(kernel, dict(LOOP_CASES)[kernel], w1, p, K, thr)


@pytest.mark.parametrize("kernel,oracle,kind", PROX_CASES, ids=["group", "hier"])
def test_zero_threshold_keeps_zero_groups_zero(kernel, oracle, kind):
    # at thr = 0 an all-zero group has factor 0, not 1 - 0/0: it stays +0.0,
    # and every other weight keeps its value to the bit
    w1 = np.random.default_rng(7).normal(size=(4, 3 * 5))
    w3 = w1.reshape(4, 3, 5)
    w3[:, :, 1] = 0.0
    w3[:, :, 3] = -0.0
    w3[:, 1:, 4] = 0.0
    got = check_prox(kernel, oracle, kind, w1, 5, 3, 0.0)
    g3 = got.reshape(4, 3, 5)
    assert not np.any(np.isnan(got))
    assert np.array_equal(g3[:, :, [1, 3]], np.zeros((4, 3, 2)))
    assert not np.any(np.signbit(g3[:, :, [1, 3]]))
    live = np.ones((3, 5), dtype=bool)
    live[:, [1, 3]] = False
    live[1:, 4] = False
    assert np.array_equal(g3[:, live], w3[:, live])


@pytest.mark.parametrize("H,K,p", [(8, 1, 1), (4, 2, 1), (2, 4, 1), (1, 8, 1),
                                   (8, 3, 4), (3, 4, 2), (10, 3, 10)])
def test_long_sums_match_oracle(H, K, p):
    # H*K >= 8 terms per group: long enough that a pairwise sum would differ
    w1 = np.random.default_rng(H * 100 + K * 10 + p).normal(size=(H, K * p))
    assert_bit_equal(kernels.group_norms(w1, p, K), oracle_group_norms(w1, p, K))
    assert_bit_equal(kernels.lag_norms(w1, p, K), oracle_lag_norms(w1, p, K))
    nrm = oracle_group_norms(w1, p, K)
    for thr in (0.0, 0.5 * nrm.min(), float(np.median(nrm))):
        for kernel, oracle, kind in PROX_CASES:
            check_prox(kernel, oracle, kind, w1, p, K, thr)


@pytest.mark.parametrize("kernel,oracle,kind", PROX_CASES, ids=["group", "hier"])
def test_nan_group_stays_nan(kernel, oracle, kind):
    w1 = np.random.default_rng(0).normal(size=(3, 2 * 4))
    w1[1, 1 * 4 + 2] = np.nan           # series 2, lag 2
    got = check_prox(kernel, oracle, kind, w1, 4, 2, 1e30)
    assert np.all(np.isnan(got[:, 2::4]))    # not zeroed, although thr is huge
    others = np.delete(np.arange(8), [2, 6])
    assert np.array_equal(got[:, others], np.zeros((3, 6)))
    assert np.isnan(kernel(w1.copy(), 4, 2, 1e30))
    assert_bit_equal(kernels.group_norms(w1, 4, 2), oracle_group_norms(w1, 4, 2))
    assert_bit_equal(kernels.lag_norms(w1, 4, 2), oracle_lag_norms(w1, 4, 2))


@pytest.mark.parametrize("kernel,oracle,kind", PROX_CASES, ids=["group", "hier"])
def test_prox_penalty_of_zero_and_tiny_layers(kernel, oracle, kind):
    # all-zero and all-negative-zero layers have penalty +0.0; a tiny layer
    # below the threshold zeroes, and one at threshold 0 keeps its tiny norms
    for w1 in (np.zeros((3, 6)), np.full((3, 6), -0.0), np.full((3, 6), 1e-160)):
        for thr in (0.0, 1e-300, 1.0):
            check_prox(kernel, oracle, kind, w1, 2, 3, thr)
    assert_bit_equal(np.asarray(kernel(np.full((3, 6), -0.0), 2, 3, 0.0)), np.asarray(0.0))


def test_threshold_at_norm_zeroes_exactly_that_group():
    # p=2, K=2: series 0 is columns 0 and 2 (norm 5), series 1 columns 1 and 3
    w1 = np.array([[3.0, 6.0, 0.0, 2.0], [4.0, -6.0, -0.0, 2.0]])
    nrm = kernels.group_norms(w1, 2, 2)
    assert nrm[0] == 5.0
    got = w1.copy()
    kernels.prox_group(got, 2, 2, 5.0)
    assert np.array_equal(got[:, 0::2], np.zeros((2, 2)))
    assert not np.any(np.signbit(got[:, 0::2]))
    assert np.all(got[:, 1::2] != 0.0)


def test_prox_writes_through_a_view_of_theta():
    theta = np.random.default_rng(1).normal(size=20)
    w1 = theta[:12].reshape(3, 4)
    want = w1.copy()
    oracle_prox_hier(want, 2, 2, 0.8)
    kernels.prox_hier(w1, 2, 2, 0.8)
    assert_bit_equal(theta[:12].reshape(3, 4), want)


# ------------------------------------------------------------ row blocks


def mlp_case(hidden, activation="tanh", N=997, p=10, K=3, seed=0):
    """A model of the given hidden widths with random weights, and its design
    and targets: N rows of p series at K lags."""
    gen = np.random.default_rng(seed)
    model = ComponentMLP(p, K, Architecture(hidden_sizes=hidden, activation=activation))
    model.theta[:] = gen.normal(scale=0.3, size=model.n_params)
    data = build_lagged(gen.normal(size=(N + K, p)), K)[0]
    return model, data


def kernel_loss_grad(model, data, theta=None, design="design"):
    theta = model.theta if theta is None else theta
    args = (theta, model.dims, model.w_off, model.b_off, model.arch.activation,
            getattr(data, design))
    loss, acts = kernels.mlp_loss(*args, data.targets)
    grad = np.empty(model.n_params)
    assert kernels.mlp_loss_grad(*args, grad, acts) == loss
    return loss, grad, acts


def use_small_blocks(monkeypatch):
    """A budget of 20,000 multiply-adds: over 997 rows, the first layer of
    width 10 on 31 design columns runs in 15 blocks of 64 rows and one of 37,
    a (10, 8) layer in 5 blocks of 192 and one of 37."""
    monkeypatch.setattr(kernels, "_BLOCK_MULADDS", 20_000)
    assert kernels._block_rows(10, 31, 997) == 64
    assert kernels._block_rows(10, 8, 997) == 192


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_blocked_forward_equals_one_product(monkeypatch, activation):
    # on both designs: hidden layers in the design's dtype, the output in float64
    model, data = mlp_case((10, 8), activation)
    for X in (data.design, data.design32):
        args = (model.theta, model.dims, model.w_off, model.b_off, activation, X)
        one = kernels.layer_activations(*args)
        with monkeypatch.context() as m:
            use_small_blocks(m)
            blocked = kernels.layer_activations(*args)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(blocked, one))
        assert [a.dtype for a in one] == [X.dtype] * 3 + [np.float64]


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_blocked_gradient_matches_one_product_and_differences(monkeypatch, activation):
    # two hidden layers, so the backward W.T @ delta is blocked as well
    model, data = mlp_case((10, 8), activation)
    for design in ("design", "design32"):
        loss, grad, _ = kernel_loss_grad(model, data, design=design)
        with monkeypatch.context() as m:
            use_small_blocks(m)
            blocked_loss, blocked, _ = kernel_loss_grad(model, data, design=design)
        assert blocked_loss == loss           # the forward pass keeps its bits
        scale = np.abs(grad).max()
        if design == "design32":
            # float32 blocks add their sums in another order: a few units of
            # its rounding of the largest entry apart, as from each reference
            np.testing.assert_allclose(blocked, grad, rtol=0.0, atol=16 * EPS32 * scale)
            for dtype, units in ((np.float32, 16), (np.float64, 64)):
                ref = reference_loss_grad(model, data.inputs, data.targets, dtype)[1]
                np.testing.assert_allclose(blocked, ref, rtol=0.0, atol=units * EPS32 * scale)
            continue
        np.testing.assert_allclose(blocked, grad, rtol=1e-12, atol=1e-12 * scale)
        if activation == "tanh":             # relu's kinks spoil differences
            fd = finite_diff_grad(lambda th: kernel_loss_grad(model, data, th)[0], model.theta)
            rel = np.abs(blocked - fd) / np.maximum(1.0, np.maximum(np.abs(blocked), np.abs(fd)))
            assert rel.max() < 1e-5


def test_one_block_is_the_plain_product():
    # 997 rows of the 31-column design of p=10, K=3: every product of a
    # width-10 model is within the budget, so each has its unblocked bits
    model, data = mlp_case((10,))
    gen = np.random.default_rng(1)
    A, B = gen.normal(size=(10, 31)), data.design.T
    assert kernels._block_rows(10, 31, 997) == 997
    assert np.array_equal(kernels._map_rows(A, B), A @ B)
    D = gen.normal(size=(10, 997))
    assert np.array_equal(kernels.sum_rows(B, D.T), B @ D.T)
    acts = kernel_loss_grad(model, data)[2]
    W1, b1 = kernels.layer(model.theta, model.dims, model.w_off, model.b_off, 0)
    assert np.array_equal(acts[1], np.tanh(np.column_stack((W1, b1)) @ B))


@pytest.mark.parametrize("m,k,N", [(10, 31, 3997), (10, 31, 1_000_000), (10, 61, 3997),
                                   (10, 120, 3997), (10, 121, 3997), (10, 151, 3997),
                                   (125, 125, 3997), (125, 126, 3997),
                                   (1, 1, 10**7), (1_000, 1_001, 50), (2_000, 2_000, 5)])
def test_block_rule(m, k, N):
    # one product when all rows fit the budget or no aligned block does;
    # otherwise blocks within the budget, with edges at multiples of the alignment
    budget, align = kernels._BLOCK_MULADDS, kernels._BLOCK_ALIGN
    rows = kernels._block_rows(m, k, N)
    assert (rows == N) == (N * m * k <= budget or align * m * k > budget)
    if rows != N:
        assert align <= rows < N
        assert rows % align == 0
        assert rows * m * k <= budget


@pytest.mark.parametrize("rows", [997, 64])
def test_blocks_keep_the_operands_dtype(monkeypatch, rows):
    # 997: one block, the plain product; 64: blocks of a 20,000 budget.  A
    # blocked map has the bits of one product of its dtype, and a blocked
    # sum is within that dtype's rounding of the exact sum
    if rows == 64:
        use_small_blocks(monkeypatch)
    gen = np.random.default_rng(3)
    A, B, D = gen.normal(size=(10, 31)), gen.normal(size=(31, 997)), gen.normal(size=(10, 997))
    for dtype in (np.float64, np.float32):
        a, b, d = A.astype(dtype), B.astype(dtype), D.astype(dtype)
        assert kernels._block_rows(10, 31, 997) == rows
        mapped, summed = kernels._map_rows(a, b), kernels.sum_rows(b, d.T)
        assert mapped.dtype == summed.dtype == dtype
        assert np.array_equal(mapped, a @ b)
        if rows == 997:
            assert np.array_equal(summed, b @ d.T)
        else:
            # the classical bound of a sum of 997 rounded products
            b64, d64 = b.astype(np.float64), d.astype(np.float64)
            bound = 997 * np.finfo(dtype).eps * (np.abs(b64) @ np.abs(d64.T))
            assert np.all(np.abs(summed - b64 @ d64.T) <= bound)


def test_product_wider_than_budget_runs_whole(monkeypatch):
    # m*k above the budget: no block could hold a row, so the product runs
    # whole, with a correct result
    use_small_blocks(monkeypatch)
    gen = np.random.default_rng(2)
    A, B = gen.normal(size=(150, 140)), gen.normal(size=(140, 300))
    assert kernels._block_rows(150, 140, 300) == 300
    assert np.array_equal(kernels._map_rows(A, B), A @ B)
    assert np.array_equal(kernels.sum_rows(B.T, A.T), B.T @ A.T)
