"""Null vectors on the curve, vertex divisors, standard-position checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from harnack import (
    EdgeWeights,
    GaugeVector,
    all_vertex_divisors,
    apply_gauge,
    auto_window,
    is_standard_divisor,
    left_null_vector,
    trace_real_ovals,
    vertex_divisor,
)
from harnack import divisor as divisor_mod
from harnack.divisor import sign_change_count
from harnack.kasteleyn import assemble_K, characteristic_polynomial
from harnack.numerics import roots

TRACE = dict(n_seed=160, max_steps=2500)


@pytest.fixture(scope="module")
def traced_model():
    weights = EdgeWeights.random(3, np.random.default_rng(41))
    poly = characteristic_polynomial(weights)
    ovals = trace_real_ovals(poly, window=auto_window(poly, pad=2.0), **TRACE)
    return weights, poly, ovals


def on_curve_point(poly, z):
    return roots(poly.w_coefficients(z).ravel())[0]


class TestLeftNullVector:
    def test_single_cell(self):
        weights = EdgeWeights(1, [[2.0]], [[3.0]], [[5.0]])
        z = 0.7
        w = -(5.0 + 2.0 * z) / 3.0
        assert_allclose(left_null_vector(weights, z, w), [1.0])

    def test_annihilates_from_the_left(self):
        weights = EdgeWeights.random(2, np.random.default_rng(3))
        poly = characteristic_polynomial(weights)
        z = 1.3
        w = on_curve_point(poly, z)
        v = left_null_vector(weights, z, w)
        kast = assemble_K(weights, z, w)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(v @ kast)) < 1e-10 * np.max(np.abs(kast))

    def test_off_curve_rejected(self):
        weights = EdgeWeights.random(2, np.random.default_rng(4))
        with pytest.raises(ValueError, match="not on the spectral curve"):
            left_null_vector(weights, 5.0, 7.0)

    def test_singular_point_rejected(self):
        # the uniform-weight curve has a real node at (1, 1)
        with pytest.raises(ValueError, match="singular point"):
            left_null_vector(EdgeWeights.uniform(3), 1.0, 1.0)


class TestSignChangeCount:
    @pytest.mark.parametrize(
        "values,count",
        [
            ([1.0, -1.0, 1.0, 1.0], 2),
            ([1.0, -1.0, -1.0], 2),
            ([1.0, 1.0], 0),
            ([2.0, 0.5, 3.0], 0),
        ],
    )
    def test_examples(self, values, count):
        assert sign_change_count(np.asarray(values)) == count

    @given(st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_cyclic_count_is_even(self, signs):
        # a loop of nonzero reals crosses zero an even number of times
        assert sign_change_count(np.asarray(signs)) % 2 == 0


class TestVertexDivisor:
    def test_single_cell_has_empty_divisor(self):
        weights = EdgeWeights(1, [[2.0]], [[3.0]], [[5.0]])
        assert all_vertex_divisors(weights) == {(0, 0): []}

    def test_genus_zero_two_by_two(self):
        weights = EdgeWeights.random(2, np.random.default_rng(5))
        assert vertex_divisor(weights, (0, 0), ovals=[]) == []

    def test_missing_ovals_is_a_count_mismatch(self):
        with pytest.raises(RuntimeError, match="divisor count mismatch"):
            vertex_divisor(EdgeWeights.random(3, np.random.default_rng(41)), (0, 0), ovals=[])

    def test_vertex_outside_domain(self):
        weights = EdgeWeights.random(2, np.random.default_rng(6))
        with pytest.raises(ValueError, match="outside"):
            vertex_divisor(weights, (2, 0), ovals=[])

    def test_one_point_per_compact_oval(self, traced_model):
        weights, poly, ovals = traced_model
        for i in range(3):
            for j in range(3):
                divisor = vertex_divisor(weights, (i, j), ovals=ovals)
                assert len(divisor) == 1
                assert is_standard_divisor(divisor, ovals)

    def test_divisor_points_lie_on_the_curve(self, traced_model):
        weights, poly, ovals = traced_model
        scale = np.max(np.abs(poly.coeffs))
        for point in vertex_divisor(weights, (1, 1), ovals=ovals):
            assert abs(poly(point.z, point.w)) < 1e-7 * scale

    def test_unprojected_bracket_point_raises(self, traced_model, monkeypatch):
        weights, poly, ovals = traced_model
        monkeypatch.setattr("harnack.divisor._newton_to_curve", lambda poly, signs, point: None)
        with pytest.raises(RuntimeError, match="^no convergence: projection"):
            vertex_divisor(weights, (0, 0), ovals=ovals)

    @pytest.mark.parametrize("d, seed", [(3, 2026), (4, 1), (5, 5000)], ids=["rand3", "rand4", "rand-5"])
    def test_null_vectors_per_divisor_point(self, d, seed, monkeypatch):
        # Illinois on the segment parameter; the 60-halving bisection took 37 per point
        weights = EdgeWeights.random(d, np.random.default_rng(seed))
        ovals = trace_real_ovals(characteristic_polynomial(weights))
        vertex_divisor(weights, (0, 0), ovals=ovals)  # fills the chain memo
        calls = []
        monkeypatch.setattr(divisor_mod, "left_null_vector",
                            lambda *args: calls.append(1) or left_null_vector(*args))
        for vertex in [(i, j) for i in range(d) for j in range(d)]:
            calls.clear()
            points = vertex_divisor(weights, vertex, ovals=ovals)
            assert len(points) == (d - 1) * (d - 2) // 2
            assert len(calls) <= 16 * len(points)

    def test_gauge_leaves_divisors_in_place(self, traced_model):
        # gauge scales the null-vector components individually, so each
        # component's zero set on the curve cannot move
        weights, poly, ovals = traced_model
        g_rng = np.random.default_rng(77)
        gauge = GaugeVector(
            3,
            np.exp(g_rng.uniform(-0.8, 0.8, (3, 3))),
            np.exp(g_rng.uniform(-0.8, 0.8, (3, 3))),
        )
        gauged = apply_gauge(weights, gauge)
        for vertex in [(0, 0), (1, 2), (2, 1)]:
            before = vertex_divisor(weights, vertex, ovals=ovals)
            after = vertex_divisor(gauged, vertex, ovals=ovals)
            assert len(before) == len(after)
            for p0, p1 in zip(before, after):
                assert p0.oval_id == p1.oval_id
                assert abs(p0.z - p1.z) < 1e-8 * max(1.0, abs(p0.z))
                assert abs(p0.w - p1.w) < 1e-8 * max(1.0, abs(p0.w))


class TestStandardPosition:
    def test_empty_divisor_with_no_compact_ovals(self):
        assert is_standard_divisor([], [])

    def test_rejects_doubled_oval(self, traced_model):
        weights, poly, ovals = traced_model
        divisor = vertex_divisor(weights, (0, 0), ovals=ovals)
        assert not is_standard_divisor(divisor + divisor, ovals)
