"""Edge weight containers, gauge moves, and zig-zag path products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from harnack.lattice import (
    EdgeWeights,
    GaugeVector,
    ZigZagCycle,
    all_zigzag_products,
    apply_gauge,
    apply_magnetic_field,
    loop_invariants,
    zigzag_closure_product,
    zigzag_product,
)

seeds = st.integers(0, 10**9)


def random_gauge(d, rng):
    return GaugeVector(d, np.exp(rng.uniform(-1, 1, (d, d))), np.exp(rng.uniform(-1, 1, (d, d))))


class TestEdgeWeights:
    def test_uniform(self):
        w = EdgeWeights.uniform(3)
        assert w.d == 3
        assert np.all(w.a == 1.0) and np.all(w.b == 1.0) and np.all(w.c == 1.0)

    def test_random_bounds(self):
        w = EdgeWeights.random(4, np.random.default_rng(0))
        for arr in (w.a, w.b, w.c):
            assert arr.shape == (4, 4)
            assert np.all((arr >= 0.2) & (arr <= 2.0))

    @pytest.mark.parametrize(
        "a,b,c",
        [
            ([[1.0, 1.0]], [[1.0]], [[1.0]]),  # wrong shape
            ([[0.0]], [[1.0]], [[1.0]]),  # zero weight
            ([[-1.0]], [[1.0]], [[1.0]]),
            ([[np.nan]], [[1.0]], [[1.0]]),
        ],
    )
    def test_invalid_entries_rejected(self, a, b, c):
        with pytest.raises(ValueError):
            EdgeWeights(1, a, b, c)

    def test_domain_size_guard(self):
        with pytest.raises(ValueError):
            EdgeWeights.uniform(0)


class TestGauge:
    def test_identity_gauge_is_noop(self):
        w = EdgeWeights.random(2, np.random.default_rng(1))
        g = GaugeVector(2, np.ones((2, 2)), np.ones((2, 2)))
        out = apply_gauge(w, g)
        assert_allclose(out.a, w.a)
        assert_allclose(out.b, w.b)
        assert_allclose(out.c, w.c)

    def test_zero_gauge_entry_rejected(self):
        with pytest.raises(ValueError):
            GaugeVector(1, [[0.0]], [[1.0]])

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_loop_invariants_are_gauge_invariant(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        w = EdgeWeights.random(d, rng)
        moved = apply_gauge(w, random_gauge(d, rng))
        assert_allclose(loop_invariants(moved), loop_invariants(w), rtol=1e-10)

    def test_gauge_changes_weights_but_not_invariants(self):
        rng = np.random.default_rng(7)
        w = EdgeWeights.random(3, rng)
        moved = apply_gauge(w, random_gauge(3, rng))
        assert not np.allclose(moved.a, w.a)
        assert_allclose(loop_invariants(moved), loop_invariants(w), rtol=1e-10)


class TestLoopInvariants:
    def test_single_cell_values(self):
        # one hexagon: the two independent face ratios c/a and c/b
        w = EdgeWeights(1, [[2.0]], [[3.0]], [[5.0]])
        assert_allclose(loop_invariants(w), [2.5, 5.0 / 3.0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_count(self, d):
        w = EdgeWeights.random(d, np.random.default_rng(d))
        assert loop_invariants(w).shape == (d * d + 1,)


class TestZigZag:
    def test_cycle_validation(self):
        with pytest.raises(ValueError):
            ZigZagCycle("diagonal", 0)
        with pytest.raises(ValueError):
            ZigZagCycle("horizontal", -1)

    def test_products_collect_all_indices(self):
        w = EdgeWeights.random(3, np.random.default_rng(2))
        table = all_zigzag_products(w)
        assert sorted(table) == ["horizontal", "nw-se", "vertical"]
        for orientation, values in table.items():
            assert values.shape == (3,)
            for idx in range(3):
                single = zigzag_product(w, ZigZagCycle(orientation, idx))
                assert single == pytest.approx(values[idx], rel=1e-12)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_closure_product_is_one(self, seed):
        # the three orientation products multiply to 1: each edge appears once
        # in a numerator and once in a denominator over the closed sweep
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        w = EdgeWeights.random(d, rng)
        assert zigzag_closure_product(w) == pytest.approx(1.0, rel=1e-10)


class TestMagneticField:
    def test_round_trip(self):
        w = EdgeWeights.random(2, np.random.default_rng(3))
        back = apply_magnetic_field(apply_magnetic_field(w, 0.4, -0.7), -0.4, 0.7)
        assert_allclose(back.a, w.a, rtol=1e-12)
        assert_allclose(back.b, w.b, rtol=1e-12)
        assert_allclose(back.c, w.c, rtol=1e-12)

    def test_zero_field_is_noop(self):
        w = EdgeWeights.random(2, np.random.default_rng(4))
        out = apply_magnetic_field(w, 0.0, 0.0)
        assert_allclose(out.a, w.a)
        assert_allclose(out.c, w.c)

    def test_invariant_transform_law(self):
        # faces cannot see the field; the two torus monodromies absorb it
        w = EdgeWeights.random(3, np.random.default_rng(5))
        bx, by = 0.3, 0.8
        before = loop_invariants(w)
        after = loop_invariants(apply_magnetic_field(w, bx, by))
        assert_allclose(after[:-2], before[:-2], rtol=1e-10)
        assert after[-2] / before[-2] == pytest.approx(np.exp(-bx), rel=1e-10)
        assert after[-1] / before[-1] == pytest.approx(np.exp(-by), rel=1e-10)
