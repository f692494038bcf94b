"""Root finding, determinants, and periodic quadrature kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from harnack.genus0 import _wrap_angles
from harnack.numerics import (
    ComplexPoly,
    cluster_values,
    det_complex,
    integrate_periodic_kinked,
    periodic_quadrature,
    polyroots_batch,
    roots,
)


class TestComplexPoly:
    def test_evaluation_matches_polyval(self):
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        p = ComplexPoly(coeffs)
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert_allclose(p(z), np.polynomial.polynomial.polyval(z, coeffs), rtol=1e-12)

    def test_trailing_zeros_are_trimmed(self):
        p = ComplexPoly([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1

    def test_derivative(self):
        p = ComplexPoly([3.0, 0.0, 2.0])  # 3 + 2 x^2
        assert_allclose(p.derivative().coeffs, [0.0, 4.0])

    @pytest.mark.parametrize("bad", [[], [0.0, 0.0]])
    def test_rejects_degenerate_input(self, bad):
        with pytest.raises(ValueError):
            ComplexPoly(bad)


class TestRoots:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_multiplicity_ladder(self, m):
        # (x - 1)^m (x + 2): the m-fold root must come back merged, not as a
        # scatter of radius eps^(1/m)
        coeffs = np.polynomial.polynomial.polyfromroots([1.0] * m + [-2.0])
        found = sorted(roots(coeffs), key=lambda r: r.real)
        assert len(found) == m + 1
        assert abs(found[0] - (-2.0)) < 1e-10
        cluster = np.array(found[1:])
        assert np.max(np.abs(cluster - 1.0)) < 1e-8
        # all copies are the same merged centroid
        assert np.max(np.abs(cluster - cluster[0])) == 0.0

    def test_residuals_at_simple_roots(self):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(7)
        p = ComplexPoly(coeffs)
        scale = np.max(np.abs(coeffs))
        for r in roots(p):
            bound = 1e-10 * scale * max(1.0, abs(r)) ** p.degree
            assert abs(p(r)) <= bound

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            roots([4.0])

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_recovers_separated_roots(self, seed):
        rng = np.random.default_rng(seed)
        true = rng.uniform(-3.0, 3.0, size=4) + 1j * rng.uniform(-3.0, 3.0, size=4)
        # keep the draw well separated so multiplicities stay 1
        if np.min(np.abs(true[:, None] - true[None, :]) + np.eye(4)) < 0.3:
            return
        coeffs = np.polynomial.polynomial.polyfromroots(true)
        found = np.array(roots(coeffs))
        for r in true:
            assert np.min(np.abs(found - r)) < 1e-8


def test_cluster_values_merges_close_pairs():
    merged = cluster_values([1.0, 1.0 + 1e-9, 5.0], tol=1e-6)
    merged.sort(key=lambda pair: pair[0].real)
    assert merged[0][1] == 2
    assert merged[1] == (5.0 + 0.0j, 1)
    assert abs(merged[0][0] - 1.0) < 1e-9


class TestDeterminant:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert_allclose(det_complex(a), np.linalg.det(a), rtol=1e-10)

    def test_singular_matrix(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert det_complex(a) == 0.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            det_complex(np.ones((2, 3)))


class TestPeriodicQuadrature:
    def test_trig_polynomial_exact(self):
        result = periodic_quadrature(lambda t: 1.5 + np.cos(3 * t) - 0.25 * np.sin(t))
        assert result.converged
        assert_allclose(result.value, 2.0 * math.pi * 1.5, rtol=1e-12)

    @pytest.mark.parametrize("a,expected", [(0.3, 0.0), (2.0, math.log(2.0))])
    def test_circle_mean_of_log_distance(self, a, expected):
        # mean of log|e^{it} - a| is log max(|a|, 1)
        result = periodic_quadrature(lambda t: np.log(np.abs(np.exp(1j * t) - a)))
        assert result.converged
        assert abs(result.value / (2.0 * math.pi) - expected) < 1e-9

    def test_minimum_sample_guard(self):
        with pytest.raises(ValueError):
            periodic_quadrature(np.cos, n=4)

    def test_float_protocol(self):
        result = periodic_quadrature(lambda t: np.ones_like(t))
        assert float(result) == pytest.approx(2.0 * math.pi)


class TestKinkedQuadrature:
    def test_abs_sin(self):
        result = integrate_periodic_kinked(lambda t: np.abs(np.sin(t)), kinks=[0.0, math.pi])
        assert result.converged
        assert_allclose(result.value, 4.0, rtol=1e-10)

    def test_agrees_with_trapezoid_on_smooth(self):
        f = lambda t: np.exp(np.cos(t))
        smooth = periodic_quadrature(f)
        kinked = integrate_periodic_kinked(f, kinks=[1.0, 4.0])
        assert abs(smooth.value - kinked.value) < 1e-9


class TestPolyrootsBatch:
    def test_matches_per_row_solver(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((20, 5)) + 1j * rng.standard_normal((20, 5))
        batched = polyroots_batch(rows)
        for row, got in zip(rows, batched):
            expected = np.sort_complex(np.roots(row[::-1]))
            assert_allclose(np.sort_complex(got), expected, atol=1e-8)

    def test_degree_zero(self):
        assert polyroots_batch(np.ones((3, 1))).shape == (3, 0)

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(ValueError):
            polyroots_batch(np.array([[1.0, 0.0]]))


@given(st.floats(-50.0, 50.0))
def test_wrap_angle_range_and_period(t):
    wrapped = _wrap_angles(t)
    assert 0.0 <= wrapped < 2.0 * math.pi
    assert abs(_wrap_angles(t + 2.0 * math.pi) - wrapped) < 1e-9
