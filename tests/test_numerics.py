"""Root finding, determinants, and periodic quadrature kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from harnack import EdgeWeights, characteristic_polynomial
from harnack.amoeba import _crossings, _w_logmods
from harnack.genus0 import _wrap_angles
from harnack.numerics import (
    MAX_OPEN_PANELS,
    MAX_PANELS_PER_CALL,
    ComplexPoly,
    QuadratureResult,
    _gl_nodes,
    det_complex,
    illinois,
    integrate_panels,
    integrate_periodic_kinked,
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

    def test_small_leading_coefficient_is_kept(self):
        # only exact zeros are dropped: a wide coefficient spread keeps its degree
        assert ComplexPoly([1.0, 1e20, 1.0]).degree == 2

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

    def test_separate_decades(self):
        true = [-1e-3, -1.0, -1e3, -1e6]
        found = sorted(roots(np.polynomial.polynomial.polyfromroots(true)), key=lambda r: r.real)
        assert len(found) == 4
        for got, want in zip(found, sorted(true)):
            assert abs(got - want) < 1e-12 * abs(want)

    def test_wide_span_with_close_pair_and_triple(self):
        # side polynomials of a spectral curve: real roots of one sign over six
        # decades, a close pair 3e-4 apart (relative) and a triple root
        simple = [-1e3, -30.0, -0.5, -0.0729879, -0.0729643, -1e-3]
        coeffs = np.polynomial.polynomial.polyfromroots(simple + [-2.0] * 3)
        found = np.array(roots(coeffs))
        assert found.size == 9
        for want in simple:
            assert np.min(np.abs(found - want)) < 1e-10 * abs(want)
        triple = found[np.abs(found + 2.0) < 1e-8 * 2.0]
        assert triple.size == 3
        assert np.max(np.abs(triple - triple[0])) == 0.0

    def test_close_pair_is_not_a_double_root(self):
        # two simple roots 1.8e-6 apart (relative): merged into one certified
        # double root they would each be off by 9e-7
        true = [-3.0, -1.0, -1.0 + 1.8e-6, -0.2]
        found = np.array(roots(np.polynomial.polynomial.polyfromroots(true)))
        assert found.size == 4
        for want in true:
            assert np.min(np.abs(found - want)) < 1e-9 * abs(want)

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


def _reference_kinked(f, kinks, tol=1e-11):
    """The one-integral, one-panel-per-call quadrature that ``integrate_panels`` batches."""
    kk = np.sort(np.mod(np.asarray(list(kinks), dtype=float), 2.0 * np.pi))
    if kk.size == 0:
        edges = np.array([0.0, 2.0 * np.pi])
    else:
        edges = np.concatenate([kk, [kk[0] + 2.0 * np.pi]])
    panels = [(edges[i], edges[i + 1]) for i in range(edges.size - 1) if edges[i + 1] - edges[i] > 1e-14]

    x16, w16 = _gl_nodes(16)
    x32, w32 = _gl_nodes(32)

    def panel_pair(lo, hi):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        t = np.concatenate([mid + half * x16, mid + half * x32])
        y = np.asarray(f(t), dtype=float)
        coarse = half * float(np.dot(w16, y[:16]))
        fine = half * float(np.dot(w32, y[16:]))
        return fine, abs(fine - coarse)

    total = 0.0
    work = panels
    n_evals = 0
    for _ in range(30):
        results = [panel_pair(lo, hi) for lo, hi in work]
        n_evals += 48 * len(work)
        budget = tol * max(1.0, abs(total) + abs(sum(v for v, _ in results)))
        keep_val = 0.0
        next_work = []
        for (lo, hi), (val, err) in zip(work, results):
            if err < budget / max(1, len(work)) or (hi - lo) < 1e-12:
                keep_val += val
            else:
                mid = 0.5 * (lo + hi)
                next_work.extend([(lo, mid), (mid, hi)])
        total += keep_val
        if not next_work:
            return QuadratureResult(total, n_evals, True)
        work = next_work
    total += sum(panel_pair(lo, hi)[0] for lo, hi in work)
    return QuadratureResult(total, n_evals, False)


def _same_bits(a: QuadratureResult, b: QuadratureResult) -> bool:
    return np.float64(a.value).tobytes() == np.float64(b.value).tobytes() and (a.n, a.converged) == (b.n, b.converged)


def _singular(t):
    # an integrable singularity at t = 1, which no panel edge meets: the panel
    # holding it never passes, and bisection stalls after 30 rounds
    return np.abs(t - 1.0) ** -0.5 + np.sin(t)


def _ronkin_case():
    poly = characteristic_polynomial(EdgeWeights.random(4, np.random.default_rng(3)))
    x, y = 1.4928190579208884, -0.37727244853417097  # sample_interior(poly, 1, default_rng(0))
    # the integrand is even in phi: each crossing c in (0, pi) has its mirror 2 pi - c
    (half,), _ = _crossings(poly.w_coefficients, np.array([x]), np.array([[y]]))
    assert half.size >= 1
    kinks = np.concatenate([half, 2.0 * np.pi - half])
    return lambda phis: np.maximum(y, _w_logmods(poly, x, phis)).sum(axis=1), kinks


class TestKinkedQuadrature:
    def test_abs_sin(self):
        result = integrate_periodic_kinked(lambda t: np.abs(np.sin(t)), kinks=[0.0, math.pi])
        assert result.converged
        assert_allclose(result.value, 4.0, rtol=1e-10)

    def test_float_protocol(self):
        result = integrate_periodic_kinked(lambda t: np.ones_like(t), kinks=[])
        assert float(result) == pytest.approx(2.0 * math.pi)

    def test_agrees_with_trapezoid_on_smooth(self):
        # the periodic trapezoid rule converges to 2 pi I_0(1), the integral of exp(cos t)
        kinked = integrate_periodic_kinked(lambda t: np.exp(np.cos(t)), kinks=[1.0, 4.0])
        assert abs(2.0 * math.pi * float(np.i0(1.0)) - kinked.value) < 1e-9

    @pytest.mark.parametrize("case", ["abs_sin", "exp_cos", "ronkin", "stalled", "many_panels"])
    def test_same_bits_as_one_panel_per_call(self, case):
        # many_panels: 40 panels in a round, where the order of the sums shows
        f, kinks = {
            "abs_sin": (lambda t: np.abs(np.sin(t)), [0.0, math.pi]),
            "exp_cos": (lambda t: np.exp(np.cos(t)), [1.0, 4.0]),
            "stalled": (_singular, []),
            "many_panels": (lambda t: np.exp(np.cos(7.0 * t)) + np.abs(np.sin(3.0 * t)),
                            np.random.default_rng(1).uniform(0.0, 2.0 * math.pi, 40)),
        }.get(case) or _ronkin_case()
        got = integrate_periodic_kinked(f, kinks)
        assert _same_bits(got, _reference_kinked(f, kinks))
        assert got.converged == (case != "stalled")


class TestBatchedQuadrature:
    def test_each_integral_equals_its_solo_run(self):
        # 40 integrals with their own parameters and panel edges, including a
        # stalled one; round 1 alone passes more than MAX_PANELS_PER_CALL panels
        rng = np.random.default_rng(11)
        amp = rng.uniform(0.5, 2.0, 40)
        shift = rng.uniform(0.0, math.pi, 40)
        edges = [np.sort(np.concatenate([[0.0, math.pi], rng.uniform(0.0, math.pi, k % 4)])) for k in range(40)]
        edges[7] = np.array([0.0, 2.0 * math.pi])
        sizes = []

        def f(t, owner):
            sizes.append(t.size)
            out = np.exp(amp[owner] * np.cos(t)) + np.abs(np.sin(t - shift[owner]))
            return np.where(owner == 7, _singular(t), out)

        batch = integrate_panels(f, edges, 1e-11)
        assert sum(e.size - 1 for e in edges) > MAX_PANELS_PER_CALL
        assert max(sizes) <= 48 * MAX_PANELS_PER_CALL
        for k, got in enumerate(batch):
            alone = integrate_panels(lambda t, owner: f(t, np.full(t.size, k)), [edges[k]], 1e-11)[0]
            assert _same_bits(got, alone)
        assert [q.converged for q in batch] == [k != 7 for k in range(40)]

    def test_noisy_integrand_stops_at_the_open_panel_cap(self):
        # noise of 1e-6 never meets a 1e-9 budget, so every round would split
        # every panel; the cap ends the doubling long before 30 rounds
        rng = np.random.default_rng(3)
        result = integrate_panels(lambda t, owner: 1.0 + 1e-6 * rng.standard_normal(t.size),
                                  [np.array([0.0, 1.0])], 1e-9)[0]
        assert not result.converged
        assert result.n < 48 * 2 * MAX_OPEN_PANELS
        assert abs(result.value - 1.0) < 1e-6


class TestIllinois:
    def test_finds_half_pi_from_cos(self):
        (t,) = illinois(lambda t, todo: np.cos(t), [1.0], [2.0], [math.cos(1.0)], [math.cos(2.0)])
        assert abs(t - math.pi / 2) < 1e-14

    def test_lockstep_equals_each_bracket_alone(self):
        # brackets of different functions, widths and slopes stop on their own
        shifts = np.array([0.3, 1.1, -0.7, 2.5, 0.0])
        scales = np.array([1.0, 1e-5, 30.0, 0.2, 1.0])
        lo = np.array([0.0, 0.5, -2.0, 2.0, -1.0])
        hi = np.array([1.0, 1.5, 0.0, 3.0, 1.0])

        def f(t, todo):
            return scales[todo] * np.sinh(t - shifts[todo]) ** 3 + (t - shifts[todo]) * 1e-3

        def at(t, k):
            return f(np.array([t]), np.array([k]))[0]

        together = illinois(f, lo, hi, [at(a, k) for k, a in enumerate(lo)], [at(b, k) for k, b in enumerate(hi)])
        for k in range(lo.size):
            (alone,) = illinois(lambda t, todo: f(t, todo + k), [lo[k]], [hi[k]], [at(lo[k], k)], [at(hi[k], k)])
            assert together[k].tobytes() == alone.tobytes()
            assert abs(together[k] - shifts[k]) < 1e-9


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
