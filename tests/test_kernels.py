"""The vectorized norm and prox kernels against the plain-loop oracles of
``oracles.py``: the kernels must agree with them to the bit, with the same
values, the same NaNs and the same signs of zeros.  The penalty a prox
kernel returns must equal, to the bit, the one recomputed from the oracle
norms of its result.
"""

import numpy as np
import pytest

from ngcausal import _kernels as kernels
from oracles import (oracle_group_norms, oracle_lag_norms, oracle_penalty,
                     oracle_prox_group, oracle_prox_hier)

PROX_CASES = [(kernels.prox_group, oracle_prox_group, "group"),
              (kernels.prox_hier, oracle_prox_hier, "hierarchical")]


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
