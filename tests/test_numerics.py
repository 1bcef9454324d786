import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import finite_diff_grad


class TestFiniteDiffGrad:
    """The finite-difference oracle of ``oracles.py`` that the gradient tests use."""

    def test_quadratic_exact(self):
        g = finite_diff_grad(lambda v: float(v @ v), np.array([1.0, 2.0]), h=1e-5)
        assert np.allclose(g, [2.0, 4.0], atol=1e-6)

    def test_constant_zero(self):
        g = finite_diff_grad(lambda v: 3.5, np.array([0.3, -0.7, 2.0]), h=1e-5)
        assert np.allclose(g, 0.0, atol=1e-9)

    def test_tanh_sum_analytic(self):
        # d/dx sum tanh(x_i) = 1 - tanh(x_i)^2
        x = np.array([0.0, 1.0])
        g = finite_diff_grad(lambda v: float(np.tanh(v).sum()), x, h=1e-6)
        expected = 1.0 - np.tanh(x) ** 2
        assert np.allclose(g, expected, atol=1e-6)

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_degree_two_polynomials(self, seed):
        gen = np.random.default_rng(seed)
        n = 4
        A = gen.normal(size=(n, n))
        A = 0.5 * (A + A.T)
        b = gen.normal(size=n)
        c = float(gen.normal())
        x = gen.normal(size=n)
        h = 1e-4
        g = finite_diff_grad(lambda v: float(v @ A @ v + b @ v + c), x, h=h)
        exact = 2.0 * A @ x + b
        assert np.max(np.abs(g - exact)) <= 10 * h * h

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda v: 0.0, np.zeros(2), h=0.0)
