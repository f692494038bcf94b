"""Amoeba membership, Ronkin function, hole census, and the Harnack certificate."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

from harnack import (
    BivariatePolynomial,
    EdgeWeights,
    amoeba_area,
    amoeba_membership,
    auto_window,
    boundary_points,
    characteristic_polynomial,
    detect_holes,
    facet_intercepts,
    gradient_ronkin,
    legendre_dual_residual,
    legendre_transform,
    monge_ampere_residual,
    rasterize_amoeba,
    ronkin,
    sample_interior,
    trace_real_ovals,
    two_to_one_check,
    verify_harnack,
    volume_difference,
)
from harnack import amoeba as amoeba_mod
from harnack.numerics import QuadratureResult, integrate_periodic_kinked, polyroots_batch

seeds = st.integers(0, 10**9)

# R(0, 0) for 1 + z + w; also the negated Legendre value at the triangle center
LINE_RONKIN_00 = 0.323065947219


def perturbed_u3(factor):
    base = characteristic_polynomial(EdgeWeights.uniform(3))
    coeffs = base.coeffs.copy()
    coeffs[1, 1] *= factor
    return BivariatePolynomial(3, coeffs)


class TestRonkin:
    def test_frozen_line_values(self, line_poly):
        assert ronkin(line_poly, 0.0, 0.0) == pytest.approx(LINE_RONKIN_00, abs=1e-9)
        assert ronkin(line_poly, 0.4, -0.3) == pytest.approx(0.436270769245, abs=1e-9)

    def test_frozen_uniform_d2_value(self, u2_poly):
        assert ronkin(u2_poly, 0.25, 0.1) == pytest.approx(1.534493140803, abs=1e-9)

    def test_affine_on_complement_components(self, line_poly):
        # far into a tentacle or facet, R agrees with its linear piece exactly
        assert ronkin(line_poly, 3.0, 0.0) == pytest.approx(3.0, abs=1e-10)
        assert ronkin(line_poly, -5.0, -4.0) == pytest.approx(0.0, abs=1e-10)
        assert ronkin(line_poly, 0.0, 5.0) == pytest.approx(5.0, abs=1e-10)

    def test_gradient_is_integer_outside(self, line_poly):
        for (x, y), order in [((3.0, 0.0), (1, 0)), ((-5.0, -4.0), (0, 0)), ((0.0, 5.0), (0, 1))]:
            gx, gy = gradient_ronkin(line_poly, x, y)
            assert (round(gx), round(gy)) == order
            assert abs(gx - order[0]) < 1e-10
            assert abs(gy - order[1]) < 1e-10

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_midpoint_convexity(self, seed, line_poly):
        rng = np.random.default_rng(seed)
        p = rng.uniform(-2.0, 2.0, 2)
        q = rng.uniform(-2.0, 2.0, 2)
        mid = 0.5 * (p + q)
        r_mid = ronkin(line_poly, *mid)
        r_avg = 0.5 * (ronkin(line_poly, *p) + ronkin(line_poly, *q))
        assert r_mid <= r_avg + 1e-9


class TestMembership:
    def test_line_inside_and_outside(self, line_poly):
        assert amoeba_membership(line_poly, 0.0, 0.0)
        assert not amoeba_membership(line_poly, 3.0, 0.0)
        assert not amoeba_membership(line_poly, -4.0, -4.0)

    def test_magnetic_field_translates_the_amoeba(self):
        from harnack.lattice import apply_magnetic_field

        w = EdgeWeights.random(2, np.random.default_rng(12))
        bx, by = 0.4, -0.3
        base = characteristic_polynomial(w)
        moved = characteristic_polynomial(apply_magnetic_field(w, bx, by))
        rng = np.random.default_rng(13)
        for _ in range(12):
            x, y = rng.uniform(-2.0, 2.0, 2)
            assert amoeba_membership(moved, x, y) == amoeba_membership(base, x + bx, y + by)

    def test_batched_membership_equals_point_verdicts(self):
        # one _branch_ranges call over the distinct columns of a 40 x 40 grid
        # and of the 3h rings of c04 points, whose columns nearly coincide
        poly = characteristic_polynomial(EdgeWeights.random(3, np.random.default_rng(19)))
        x0, x1, y0, y1 = auto_window(poly)
        gx, gy = np.meshgrid(np.linspace(x0, x1, 40), np.linspace(y0, y1, 40))
        points = list(zip(gx.ravel().tolist(), gy.ravel().tolist()))
        for x, y in sample_interior(poly, 3, np.random.default_rng(5), margin=0.25):
            points += [(x, y)] + [(x + 0.03 * math.cos(a), y + 0.03 * math.sin(a))
                                  for a in np.arange(8) * math.pi / 4]
        xs, ys = np.array(points).T
        verdicts = amoeba_mod._membership(poly, xs, ys)
        assert verdicts.tolist() == [amoeba_membership(poly, x, y) for x, y in points]
        assert 100 < int(verdicts.sum()) < len(points) - 100

    def test_one_root_batch_per_column(self, root_batches):
        # the real ends share the sweep's batch: 2 per point and nx + 1 per raster before
        poly = characteristic_polynomial(EdgeWeights.random(3, np.random.default_rng(2026)))
        amoeba_membership(poly, 0.1, 0.2)
        assert len(root_batches) == 1
        root_batches.clear()
        assert rasterize_amoeba(poly, nx=48, ny=32).refined == 0
        assert len(root_batches) == 48

    @pytest.mark.parametrize("ring", [0.0, 0.03])
    def test_sample_interior_keeps_its_draws(self, ring):
        # the points of one draw are tested together, and the same draws pass
        poly = characteristic_polynomial(EdgeWeights.random(3, np.random.default_rng(19)))
        x0, x1, y0, y1 = auto_window(poly, pad=0.5)
        margin = 0.12
        offsets = [(0, 0), (margin, 0), (-margin, 0), (0, margin), (0, -margin)]
        if ring > 0.0:
            offsets += [(ring * math.cos(2.0 * math.pi * k / 8.0), ring * math.sin(2.0 * math.pi * k / 8.0))
                        for k in range(8)]
        for seed in range(3):
            rng = np.random.default_rng(seed)
            expected = []
            while len(expected) < 4:
                x, y = rng.uniform(x0, x1), rng.uniform(y0, y1)
                if all(amoeba_membership(poly, x + dx, y + dy) for dx, dy in offsets):
                    expected.append((x, y))
            assert sample_interior(poly, 4, np.random.default_rng(seed), ring=ring) == expected


def _rows_logmods(rows):
    mods = np.abs(polyroots_batch(rows))
    return np.where(mods > 0, np.log(np.where(mods > 0, mods, 1.0)), -745.0)


def _oracle_logmods(poly, x, phis):
    return _rows_logmods(poly.w_coefficients(np.exp(x + 1j * phis)))


def _dense_ranges(poly, x, n_phi=20001):
    """(lo, hi) of each sorted w-root log-modulus branch over a dense sweep
    of [0, pi], assuming nothing about the curve."""
    logs = np.sort(_oracle_logmods(poly, float(x), np.linspace(0.0, np.pi, n_phi)), axis=1)
    return logs.min(axis=0), logs.max(axis=0)


def _dense_raster(poly, grid):
    """Reference membership from a dense sweep of each column.

    A pixel is a member when its level lies within [min, max] of some sorted
    branch over the sweep; ``near`` marks the pixels within 1e-3 of such a
    range endpoint, where the sweep cannot decide."""
    yc = grid.y_centers()[:, None]
    member = np.empty_like(grid.membership)
    near = np.empty_like(grid.membership)
    for ix, x in enumerate(grid.x_centers()):
        lo, hi = _dense_ranges(poly, x)
        member[:, ix] = ((yc >= lo) & (yc <= hi)).any(axis=1)
        near[:, ix] = (np.minimum(np.abs(yc - lo), np.abs(yc - hi)) < 1e-3).any(axis=1)
    return member, near


class TestColumnRefinement:
    """Raster and point membership share one rule: the union of the sorted
    branch ranges over [0, pi], where an interior extremum that passes a
    branch's end range is zoomed. The rule must agree with a dense sweep."""

    def test_non_monotone_columns_match_dense_sweep(self):
        # off the Harnack family the middle branch dips below its phi = 0
        # value for |x| <= 0.04, so those columns zoom an interior minimum
        poly = perturbed_u3(0.90)
        grid = rasterize_amoeba(poly, window=(-0.05, 0.05, -0.5, 2.5), nx=24, ny=24)
        member, near = _dense_raster(poly, grid)
        assert grid.refined > 0
        assert np.array_equal(grid.membership[~near], member[~near])
        assert member[~near].any() and not member[~near].all()

    def test_zero_end_root_matches_dense_sweep(self, line_poly):
        # 1 + z + w has the root w = 0 at z = -1: the column x = 0 (the
        # middle one of 21) reaches down to the frame, its neighbours do not
        grid = rasterize_amoeba(line_poly, window=(-1.0, 1.0, -6.0, 2.0), nx=21, ny=21)
        assert grid.x_centers()[10] == 0.0
        assert grid.membership[0, 10] and not grid.membership[0, 9] and not grid.membership[0, 11]
        member, near = _dense_raster(line_poly, grid)
        assert np.array_equal(grid.membership[~near], member[~near])

    def test_membership_matches_oracle(self):
        poly = characteristic_polynomial(EdgeWeights.random(3, np.random.default_rng(2026)))
        x0, x1, y0, y1 = auto_window(poly, pad=0.5)
        rng = np.random.default_rng(8)
        verdicts, expected = [], []
        for x in rng.uniform(x0, x1, 8).tolist():
            lo, hi = _dense_ranges(poly, x)
            ends = np.concatenate([lo, hi])
            # random levels, and levels 1e-6 either side of every branch end:
            # the real locus, where a root-count test sees nothing
            for y in np.concatenate([rng.uniform(y0, y1, 3), ends - 1e-6, ends + 1e-6]).tolist():
                assert np.min(np.abs(ends - y)) > 1e-7
                verdicts.append(amoeba_membership(poly, x, y))
                expected.append(bool(np.any((lo <= y) & (y <= hi))))
        assert verdicts == expected
        assert 20 < sum(expected) < len(expected) - 20

    def test_point_rule_equals_raster_rule(self):
        # pixel centres (ix, iy) that an earlier 256-angle point test missed
        cases = [
            (3, 2026, 120, [(19, 27), (21, 27), (74, 52), (74, 53)]),
            (4, 1, 360, [(138, 288)]),
        ]
        for d, seed, n, pixels in cases:
            poly = characteristic_polynomial(EdgeWeights.random(d, np.random.default_rng(seed)))
            grid = rasterize_amoeba(poly, nx=n, ny=n)
            xc, yc = grid.x_centers(), grid.y_centers()
            for ix, iy in pixels:
                assert grid.membership[iy, ix]
                assert amoeba_membership(poly, float(xc[ix]), float(yc[iy]))


class TestExactColumns:
    """On Harnack curves the branches are monotone, so no extremum is zoomed,
    and the raster equals a dense-sweep reference."""

    @pytest.mark.parametrize("d, seed, max_near", [(3, 2026, 8), (4, 1, 2)])
    def test_raster_matches_dense_sweep(self, d, seed, max_near):
        poly = characteristic_polynomial(EdgeWeights.random(d, np.random.default_rng(seed)))
        x0, x1, y0, y1 = auto_window(poly)
        cx, cy, hx, hy = 0.5 * (x0 + x1), 0.5 * (y0 + y1), 0.25 * (x1 - x0), 0.25 * (y1 - y0)
        grid = rasterize_amoeba(poly, window=(cx - hx, cx + hx, cy - hy, cy + hy), nx=48, ny=48)
        member, near = _dense_raster(poly, grid)
        assert grid.refined == 0
        assert int(near.sum()) <= max_near
        assert np.array_equal(grid.membership[~near], member[~near])
        assert member.any() and not member.all()


def _logs_w(poly, x):
    """phi -> log|w_r| of the roots of w -> P(e^{x+i phi}, w)."""
    return lambda phis: _oracle_logmods(poly, x, np.asarray(phis, dtype=float))


def _logs_z(poly, y):
    """psi -> log|z_r| of the roots of z -> P(z, e^{y+i psi})."""
    return lambda psis: _rows_logmods(poly.z_coefficients(np.exp(y + 1j * np.asarray(psis, dtype=float))))


def _dense_edges(logs, level, n_phi=20001):
    """0, the angles in (0, pi) where the count of log-moduli below level
    changes, and pi: a dense sweep, then 60 scalar halvings of each bracket."""
    phis = np.linspace(0.0, np.pi, n_phi)
    return np.concatenate([[0.0], _bisected(logs, level, phis, (logs(phis) < level).sum(axis=1)), [np.pi]])


def _bisected(logs, level, phis, counts):
    """The angle where the count below level changes in each bracket of
    ``phis`` where ``counts`` changes: 60 scalar halvings of the bracket."""
    out = []
    for i in np.flatnonzero(np.diff(counts)).tolist():
        lo, hi = phis[i], phis[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (logs([mid]) < level).sum() == counts[i]:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


def _bisected_crossings(logs, level):
    """What ``_crossings`` finds, by plain bisection: the 256-angle sweep
    folded onto [0, pi] plus the real ends, where a root within 1e-6 of the
    level reads the inner neighbour's count, then ``_bisected``."""
    phis = 2.0 * np.pi * (np.arange(256) + 0.382) / 256
    phis = np.concatenate([[0.0], np.sort(np.minimum(phis, 2.0 * np.pi - phis)), [np.pi]])
    logs_at = logs(phis)
    counts = (logs_at < level).sum(axis=1)
    on_level = (np.abs(logs_at[[0, -1]] - level) < 1e-6).any(axis=1)
    counts[[0, -1]] = np.where(on_level, counts[[1, -2]], counts[[0, -1]])
    return _bisected(logs, level, phis, counts)


def _segment_mean(logs, level, edges):
    """Mean count below level over [0, pi]: segment lengths times midpoint counts, over pi."""
    counts = (logs(0.5 * (edges[:-1] + edges[1:])) < level).sum(axis=1)
    return float(np.dot(np.diff(edges), counts)) / math.pi


def _split_oracle(poly, x, y):
    """R(x, y) and its gradient from the edges that ``_dense_edges`` finds.

    R is log|p_{0,d}| plus scipy quad of sum_r max(y, log|w_r|) over [0, pi],
    one call per segment, over pi; each gradient part is a ``_segment_mean``."""
    logs_z, logs_w = _logs_z(poly, y), _logs_w(poly, x)
    edges = _dense_edges(logs_w, y)
    gradient = [_segment_mean(logs_z, x, _dense_edges(logs_z, x)), _segment_mean(logs_w, y, edges)]
    f = lambda phi: float(np.maximum(y, logs_w([phi])).sum())
    segments = zip(edges[:-1], edges[1:])
    total = sum(integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0] for a, b in segments)
    return math.log(abs(poly.corner("w"))) + total / math.pi, gradient


def _dense_count_mean(logs, level, n=100_000):
    """Mean count below level at n midpoints of [0, pi]; each crossing costs at most 0.5 / n."""
    mids = (np.arange(n) + 0.5) * np.pi / n
    return float(np.mean(np.concatenate([(logs(c) < level).sum(axis=1) for c in np.array_split(mids, 10)])))


class TestRonkinOracle:
    """Ronkin value and gradient against quadrature split at crossings that a
    20,001-angle sweep of [0, pi] finds."""

    def test_crossing_next_to_the_real_locus(self):
        # c07 model 0: the one w-crossing in [0, pi] sits at phi = 3.138403,
        # 0.0032 below pi; a full-period sweep puts its mirror crossing in the
        # same bracket, sees no count change and misses both
        poly = characteristic_polynomial(EdgeWeights.random(3, np.random.default_rng(2026)))
        x, y = -2.889383963677699, -0.7218804757140194
        assert _dense_edges(_logs_w(poly, x), y).size == 3
        assert _dense_edges(_logs_z(poly, y), x).size == 3
        gx, gy = gradient_ronkin(poly, x, y)
        assert abs(gx - _dense_count_mean(_logs_z(poly, y), x)) < 1e-5
        assert abs(gy - _dense_count_mean(_logs_w(poly, x), y)) < 1e-5
        assert abs(ronkin(poly, x, y) - _split_oracle(poly, x, y)[0]) < 1e-10

    @pytest.mark.parametrize("model", ["rand3", "rand4", "rand3-near-pi", "u3-node"])
    def test_crossings_match_bisection(self, model):
        # the c04 points on rand3 and rand4, the crossing 0.0032 below pi and
        # u3's node: w- and z-crossings against 60 halvings of the same brackets
        if model in ("rand3", "rand4"):
            d, seed = {"rand3": (3, 19), "rand4": (4, 3)}[model]
            poly = characteristic_polynomial(EdgeWeights.random(d, np.random.default_rng(seed)))
            points = sample_interior(poly, 20, np.random.default_rng(5), margin=0.25)
        elif model == "rand3-near-pi":
            poly = characteristic_polynomial(EdgeWeights.random(3, np.random.default_rng(2026)))
            points = [(-2.889383963677699, -0.7218804757140194)]
        else:
            poly, points = characteristic_polynomial(EdgeWeights.uniform(3)), [(0.0, 0.0)]
        found = 0
        for x, y in points:
            for coefficients, col, level in ((poly.w_coefficients, x, y), (poly.z_coefficients, y, x)):
                logs = lambda phis: _rows_logmods(coefficients(np.exp(col + 1j * np.asarray(phis, dtype=float))))
                (got,), (counts,) = amoeba_mod._crossings(coefficients, np.array([col]), np.array([[level]]))
                want = _bisected_crossings(logs, level)
                assert got.size == want.size
                assert np.all(np.abs(got - want) < 1e-13)
                assert np.all(np.abs(logs(got) - level).min(axis=1, initial=np.inf) < 1e-13)
                # the sweep's segment counts are the root counts at the segment midpoints
                edges = np.concatenate([[0.0], want, [np.pi]])
                assert np.array_equal(counts, (logs(0.5 * (edges[:-1] + edges[1:])) < level).sum(axis=1))
                found += got.size
        assert found >= (0 if model == "u3-node" else len(points))

    @pytest.mark.parametrize("d, seed", [(3, 19), (4, 3)], ids=["rand3", "c13-rand4"])
    def test_interior_points_match_split_quadrature(self, d, seed):
        poly = characteristic_polynomial(EdgeWeights.random(d, np.random.default_rng(seed)))
        for x, y in sample_interior(poly, 8, np.random.default_rng(7)):
            value, gradient = _split_oracle(poly, x, y)
            assert abs(ronkin(poly, x, y) - value) < 1e-10
            assert_allclose(gradient_ronkin(poly, x, y), gradient, rtol=0, atol=1e-9)


class TestRaster:
    def test_refined_pixels_reported(self):
        # refined counts the branch extrema that passed their end range
        poly = characteristic_polynomial(EdgeWeights.random(3, np.random.default_rng(2026)))
        assert rasterize_amoeba(poly, nx=120, ny=120).refined == 0
        squeezed = rasterize_amoeba(perturbed_u3(0.90), window=(-0.05, 0.05, -0.5, 2.5), nx=24, ny=24)
        assert squeezed.refined > 0
        # far from every tentacle the branches are monotone too
        assert rasterize_amoeba(poly, window=(20.0, 22.0, -22.0, -20.0), nx=16, ny=16).refined == 0

    def test_window_must_have_extent(self, line_poly):
        with pytest.raises(ValueError, match="window must have positive extent"):
            rasterize_amoeba(line_poly, window=(1.0, 1.0, 0.0, 1.0), nx=16, ny=16)

    def test_line_area_smoke(self, line_poly):
        grid = rasterize_amoeba(line_poly, window=auto_window(line_poly, pad=8.0), nx=300, ny=300)
        assert grid.frame_ok
        assert amoeba_area(line_poly) == pytest.approx(math.pi**2 / 2.0, rel=1e-9)

    def test_default_window_clips_c07_model0(self):
        # the pad-2 window cuts the body of this amoeba, and the frame check says so
        poly = characteristic_polynomial(EdgeWeights.random(3, np.random.default_rng(2026)))
        assert not rasterize_amoeba(poly, nx=120, ny=120).frame_ok

    def test_auto_window_grows_with_pad(self, line_poly):
        small = auto_window(line_poly, pad=1.0)
        large = auto_window(line_poly, pad=5.0)
        assert small[0] > large[0] and small[1] < large[1]
        assert small[2] > large[2] and small[3] < large[3]


HARNACK_MODELS = {
    "line": lambda: EdgeWeights.uniform(1),
    "uniform2": lambda: EdgeWeights.uniform(2),
    "uniform3": lambda: EdgeWeights.uniform(3),
    "uniform4": lambda: EdgeWeights.uniform(4),
    "rand3": lambda: EdgeWeights.random(3, np.random.default_rng(2026)),
    "rand4": lambda: EdgeWeights.random(4, np.random.default_rng(1)),
    # the cli benchmark's d = 2 model before its jitter
    "cli-d2": lambda: EdgeWeights.random(2, np.random.default_rng(5)),
}


class TestExactArea:
    @pytest.mark.parametrize("name", sorted(HARNACK_MODELS))
    def test_harnack_curve_has_the_maximal_area(self, name):
        # Mikhalkin-Rullgard: pi^2 d^2 / 2 exactly on Harnack curves; the
        # uniform models have multiple boundary roots (a triple root at -1 for d = 3)
        poly = characteristic_polynomial(HARNACK_MODELS[name]())
        assert amoeba_area(poly) == pytest.approx(math.pi**2 * poly.d**2 / 2.0, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("factor", [0.90, 0.99, 0.999])
    def test_squeezed_curve_reads_low(self, factor):
        # off the Harnack family the real-end part is a strict subset of the amoeba
        assert amoeba_area(perturbed_u3(factor)) < (1.0 - 1e-4) * 9.0 * math.pi**2 / 2.0


class TestQuadratureConvergence:
    @staticmethod
    def _stalled(f, edges, tol):
        return [QuadratureResult(0.0, 48, False)] * len(edges)

    def test_unconverged_ronkin_raises(self, line_poly, monkeypatch):
        monkeypatch.setattr("harnack.amoeba.integrate_panels", self._stalled)
        with pytest.raises(RuntimeError, match="no convergence"):
            ronkin(line_poly, 0.0, 0.0)

    def test_unconverged_area_raises(self, line_poly, monkeypatch):
        monkeypatch.setattr("harnack.amoeba.integrate_panels", self._stalled)
        with pytest.raises(RuntimeError, match="^no convergence: amoeba area over"):
            amoeba_area(line_poly)

    def test_unconverged_column_integral_raises(self, u2_poly, monkeypatch):
        # the volume path runs all columns of a Simpson level in one batch;
        # the first column of the first level sits on the box's left edge
        def stalled(f, edges, tol):
            return [QuadratureResult(0.0, 48, False)] * len(edges)

        monkeypatch.setattr("harnack.amoeba.integrate_panels", stalled)
        normalized = BivariatePolynomial(2, u2_poly.coeffs / u2_poly.coeffs[0, 0])
        x0 = auto_window(normalized, pad=3.0)[0]
        with pytest.raises(RuntimeError, match=f"^no convergence: .* at x = {re.escape(str(float(x0)))} after"):
            volume_difference(u2_poly, u2_poly)


class TestLegendre:
    def test_dual_value_at_triangle_center(self, line_poly):
        # by symmetry the supremum for (1/3, 1/3) sits at the origin, so the
        # dual value is exactly -R(0, 0); two independent code paths
        value = legendre_transform(line_poly, 1.0 / 3.0, 1.0 / 3.0)
        assert value == pytest.approx(-LINE_RONKIN_00, abs=1e-8)

    def test_dual_monge_ampere_density(self, line_poly):
        assert abs(legendre_dual_residual(line_poly, 0.35, 0.25)) < 0.05

    def test_outside_triangle_rejected(self, line_poly):
        with pytest.raises(ValueError, match="outside the Newton triangle"):
            legendre_transform(line_poly, 0.8, 0.8)


class TestMongeAmpere:
    @pytest.mark.parametrize("d, seed", [(3, 2026), (4, 1)], ids=["rand3", "rand4"])
    def test_exact_hessian_matches_gradient_differences(self, d, seed):
        poly = characteristic_polynomial(EdgeWeights.random(d, np.random.default_rng(seed)))
        h = 1e-5
        for x, y in sample_interior(poly, 3, np.random.default_rng(0)):
            gx, gy, phis = amoeba_mod._gradient_crossings(poly, x, y)
            assert (gx, gy) == gradient_ronkin(poly, x, y)
            hess = amoeba_mod._ronkin_hessian(poly, x, y, phis)
            central = np.column_stack([
                np.subtract(gradient_ronkin(poly, x + h, y), gradient_ronkin(poly, x - h, y)),
                np.subtract(gradient_ronkin(poly, x, y + h), gradient_ronkin(poly, x, y - h)),
            ]) / (2 * h)
            assert_allclose(hess, central, rtol=0, atol=1e-8)
            assert abs(np.linalg.det(hess) * math.pi ** 2 - 1.0) < 1e-12

    @pytest.mark.parametrize("d, seed", [(3, 19), (4, 3)], ids=["rand3", "rand4"])
    def test_root_batches_per_query(self, d, seed, root_batches):
        # crossings by Illinois and one batch per stencil: the 50-round
        # bisection and nine single-point calls took 85 and 402 batches
        poly = characteristic_polynomial(EdgeWeights.random(d, np.random.default_rng(seed)))
        points = sample_interior(poly, 5, np.random.default_rng(5), margin=0.25)
        for x, y in points:
            root_batches.clear()
            gradient_ronkin(poly, x, y)
            assert len(root_batches) <= 20
            root_batches.clear()
            monge_ampere_residual(poly, x, y)
            assert len(root_batches) <= 80

    @pytest.mark.parametrize("d, seed", [(3, 19), (4, 3)], ids=["rand3", "rand4"])
    def test_gradient_solves_no_roots_of_its_own(self, d, seed, root_batches):
        # the segment counts come from the sweep of the two crossing calls
        poly = characteristic_polynomial(EdgeWeights.random(d, np.random.default_rng(seed)))
        points = sample_interior(poly, 20, np.random.default_rng(5), margin=0.25)
        for x, y in points:
            root_batches.clear()
            amoeba_mod._crossings(poly.z_coefficients, np.array([y]), np.array([[x]]))
            amoeba_mod._crossings(poly.w_coefficients, np.array([x]), np.array([[y]]))
            crossing_batches = len(root_batches)
            root_batches.clear()
            gradient_ronkin(poly, x, y)
            assert len(root_batches) == crossing_batches

    @pytest.mark.parametrize("kind", ["line", "rand3", "rand4", "p2"])
    def test_stencil_values_equal_point_values(self, kind, interior_sampler):
        # p2 (the ma-check golden's model) has points where a lone bracket
        # reads one coefficient row alone and in the stencil shares its round
        # with others: it fails when a row depends on how many share a call
        poly = {
            "p2": characteristic_polynomial(EdgeWeights.random(2, np.random.default_rng(5))),
            "line": characteristic_polynomial(EdgeWeights.uniform(1)),
            "rand3": characteristic_polynomial(EdgeWeights.random(3, np.random.default_rng(19))),
            "rand4": characteristic_polynomial(EdgeWeights.random(4, np.random.default_rng(3))),
        }[kind]
        h = 1e-2
        for x, y in interior_sampler(poly, 3, seed=5):
            xs, ys = np.array([x - h, x, x + h]), np.array([y - h, y, y + h])
            single = [[ronkin(poly, float(xx), float(yy)) for yy in ys] for xx in xs]
            assert np.array_equal(amoeba_mod._ronkin_grid(poly, xs, ys), np.array(single))

    def test_residual_small_inside(self, line_poly):
        assert abs(monge_ampere_residual(line_poly, 0.1, -0.05)) < 1e-4

    def test_outside_point_rejected(self, line_poly):
        with pytest.raises(ValueError, match="outside amoeba"):
            monge_ampere_residual(line_poly, 3.0, 0.0)


class TestHoles:
    def test_uniform_d3_has_invisible_node(self, u3_poly):
        # the node at the origin is measure zero: the order (1, 1) solve lands
        # on it and reads a gap below the node tolerance, so it is a candidate
        report = detect_holes(u3_poly)
        assert report.genus == 0
        assert report.holes == []
        assert [node.order for node in report.candidate_nodes] == [(1, 1)]
        node = report.candidate_nodes[0]
        assert node.pixel_count == 0 and node.area == 0.0
        assert np.hypot(*node.deep_point) < 1e-6

    def test_squeezed_curve_has_no_hole_or_node(self):
        # grad R = (1, 1) at the origin by symmetry, but the origin is inside the amoeba
        report = detect_holes(perturbed_u3(0.90))
        assert report.holes == [] and report.candidate_nodes == []

    def test_census_d4_holes_at_defaults(self):
        # all three holes touch the frame of the default window
        report = detect_holes(characteristic_polynomial(EdgeWeights.random(4, np.random.default_rng(1))))
        assert [hole.order for hole in report.holes] == [(1, 1), (1, 2), (2, 1)]
        assert report.candidate_nodes == []

    @pytest.mark.parametrize("d, genus", [(5, 6), (6, 10)])
    def test_every_interior_order_is_a_hole(self, d, genus):
        # some of these holes touch the frame of the default window or lie outside it
        poly = characteristic_polynomial(EdgeWeights.random(d, np.random.default_rng(1000 * d)))
        report = detect_holes(poly)
        orders = [hole.order for hole in report.holes]
        assert report.genus == genus == len(set(orders))
        assert all(i >= 1 and j >= 1 and i + j <= d - 1 for i, j in orders)
        for hole in report.holes:
            assert not amoeba_membership(poly, *hole.deep_point)

    def test_unconverged_solve_raises(self, monkeypatch):
        # a gradient stuck at (0, 0) never reaches an interior order
        monkeypatch.setattr(amoeba_mod, "_gradient_crossings", lambda poly, x, y: (0.0, 0.0, np.empty(0)))
        with pytest.raises(RuntimeError, match=r"^no convergence: hole solve of order \(1, 1\)"):
            detect_holes(perturbed_u3(1.01))

    def test_opened_hole_is_found(self):
        poly = perturbed_u3(1.01)
        report = detect_holes(poly)
        assert report.genus == 1
        hole = report.holes[0]
        assert hole.order == (1, 1)
        assert hole.pixel_count > 4
        assert hole.area > 0.0
        x, y = hole.deep_point
        assert not amoeba_membership(poly, x, y)

    @pytest.mark.parametrize(
        "model, unbounded", [("line", 3), ("u3", 3), ("rand3", 9), ("rand4", 12)], ids=["line", "u3", "rand3", "rand4"]
    )
    def test_facet_intercepts_of_line(self, model, unbounded):
        poly = characteristic_polynomial(EdgeWeights.uniform(1)) if model == "line" else TWO_TO_ONE_MODELS[model]()
        d, c = poly.d, poly.coeffs
        south, west, diag = amoeba_mod._tentacle_logs(boundary_points(poly))
        # Vieta: each family's roots multiply to the ratio of its end coefficients
        for logs, lead, const in ((south, c[d, 0], c[0, 0]), (west, c[0, d], c[0, 0]), (diag, c[d, 0], c[0, d])):
            assert math.log(abs(lead)) + logs.sum() == pytest.approx(math.log(abs(const)), abs=1e-12)
        table = facet_intercepts(poly)
        facets = {order: value for order, value in table.items() if 0 in order or sum(order) == d}
        assert len(facets) == unbounded
        if model in ("line", "u3"):
            # u3's boundary roots are triple: its inner facets pinch to rays
            assert set(table) == {(0, 0), (d, 0), (0, d)}
        # oracle: a point 16 log units past the outermost root, between adjacent
        # tentacles; rand4's (0, 2) facet opens only past x = -14.3, 12.3 past it
        floor = float(min(south[0], west[0], diag[0])) - 16.0
        ceil = float(max(south[-1], west[-1], diag[-1])) + 16.0
        for (i, j), value in facets.items():
            if (i, j) in ((0, 0), (d, 0), (0, d)):
                x, y = (ceil if i else floor), (ceil if j else floor)
            elif j == 0:
                x, y = 0.5 * (south[i - 1] + south[i]), floor
            elif i == 0:
                x, y = floor, 0.5 * (west[j - 1] + west[j])
            else:
                u = 0.5 * (diag[i - 1] + diag[i])  # u = x - y sweeps (0, d) ... (d, 0)
                x, y = ceil + 0.5 * u, ceil - 0.5 * u
            gx, gy = gradient_ronkin(poly, x, y)
            assert abs(gx - i) < 1e-9 and abs(gy - j) < 1e-9
            assert ronkin(poly, x, y) - i * x - j * y == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("model", ["rand3", "rand4"])
    def test_facet_intercepts_build_no_raster(self, model, monkeypatch):
        poly = TWO_TO_ONE_MODELS[model]()
        holes = {hole.order: hole.intercept for hole in detect_holes(poly).holes}
        assert holes

        def no_raster(*args, **kwargs):
            raise AssertionError("facet_intercepts built a raster")

        monkeypatch.setattr(amoeba_mod, "rasterize_amoeba", no_raster)
        table = facet_intercepts(poly)
        assert {order: table[order] for order in holes} == holes
        assert all(order in holes for order in table if 0 not in order and sum(order) < poly.d)


TWO_TO_ONE_MODELS = {
    "u3": lambda: characteristic_polynomial(EdgeWeights.uniform(3)),
    "rand3": lambda: characteristic_polynomial(EdgeWeights.random(3, np.random.default_rng(2026))),
    "rand4": lambda: characteristic_polynomial(EdgeWeights.random(4, np.random.default_rng(1))),
    "u3-p11-0": lambda: perturbed_u3(0.0),
}


class TestRealLocus:
    @pytest.mark.parametrize(
        "model, point, expected",
        [
            # the node is the one place where conjugate preimages coincide
            ("u3", (0.0, 0.0), 1),
            # its crossing phi = 3.138403 lies within one sample step of pi
            ("rand3", (-2.889383963677699, -0.7218804757140194), 2),
            # every deep point that detect_holes reports is off the amoeba
            ("rand4", "holes", 0),
            # p11 = 0 leaves the Harnack family: the map is 6-to-1 here
            ("u3-p11-0", (-0.40587135775960104, -0.06687305976352642), 6),
        ],
        ids=["u3-node", "rand3-near-pi", "rand4-holes", "u3-p11-0"],
    )
    def test_two_to_one_count(self, model, point, expected):
        poly = TWO_TO_ONE_MODELS[model]()
        points = [hole.deep_point for hole in detect_holes(poly).holes] if point == "holes" else [point]
        assert points
        for x, y in points:
            assert two_to_one_check(poly, x, y) == expected

    def test_node_count_survives_last_bit_noise(self):
        # u3's node is a double root at log|w| = 0 on the real end phi = 0,
        # where one ulp decides which side of the level it falls: the real
        # end must not read that as a crossing near phi = 0
        base = TWO_TO_ONE_MODELS["u3"]().coeffs
        inside = np.add.outer(np.arange(4), np.arange(4)) <= 3
        rng = np.random.default_rng(3)
        for _ in range(40):
            coeffs = base.copy()
            coeffs[inside] = np.nextafter(coeffs[inside], rng.choice([-np.inf, np.inf], inside.sum()))
            assert two_to_one_check(BivariatePolynomial(3, coeffs), 0.0, 0.0) == 1

    def test_opened_hole_matches_closed_oval(self):
        poly = perturbed_u3(1.01)
        ovals = trace_real_ovals(
            poly, window=auto_window(poly, pad=2.0), n_seed=160, max_steps=2500
        )
        assert sum(1 for oval in ovals if oval.closed) == 1
        for oval in ovals:
            assert oval.points.shape[1] == 2
            signs = np.sign(oval.points)
            assert np.all(signs == signs[0])  # one sign quadrant per component


TRACE = dict(n_seed=160, max_steps=2500)


def _one_slice_seeds(poly, signs, window, n_seed):
    """The slice seeds as solved before batching: one root solve per slice and quadrant."""
    sz, sw = signs
    x0, x1, y0, y1 = window
    seeds = []
    for X in np.linspace(x0, x1, n_seed):
        rts = polyroots_batch(poly.w_coefficients(np.array([complex(sz * math.exp(X))])))[0]
        for w in rts:
            if abs(w.imag) < 1e-9 * max(1.0, abs(w)) and w.real * sw > 0:
                Y = math.log(abs(w.real))
                if y0 <= Y <= y1:
                    seeds.append((X, Y))
    for Y in np.linspace(y0, y1, n_seed):
        rts = polyroots_batch(poly.z_coefficients(np.array([complex(sw * math.exp(Y))])))[0]
        for z in rts:
            if abs(z.imag) < 1e-9 * max(1.0, abs(z)) and z.real * sz > 0:
                X = math.log(abs(z.real))
                if x0 <= X <= x1:
                    seeds.append((X, Y))
    return seeds


@pytest.fixture(scope="module")
def c07_model0():
    """The first c07 draw, its pad-2 window and its ovals at the acceptance trace settings."""
    poly = characteristic_polynomial(EdgeWeights.random(3, np.random.default_rng(2026)))
    window = auto_window(poly, pad=2.0)
    return poly, window, trace_real_ovals(poly, window=window, **TRACE)


class TestOvalTrace:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_real_evaluator_matches_complex_call(self, d):
        rng = np.random.default_rng(100 + d)
        poly = characteristic_polynomial(EdgeWeights.random(d, rng))
        for sz in (1.0, -1.0):
            for sw in (1.0, -1.0):
                for X, Y in rng.uniform(-4.0, 4.0, size=(25, 2)):
                    z, w = sz * math.exp(X), sw * math.exp(Y)
                    # == rather than bytes: a zero may differ in sign
                    assert amoeba_mod._partials(poly, z, w)[0] == poly(z, w).real
        # the log-partials and the scale against the dense term tensor, at real and complex points
        k = np.arange(d + 1)
        for n, (X, Y, a, b) in enumerate(rng.uniform(-4.0, 4.0, size=(20, 4))):
            if n % 2:  # a real point, in the sign quadrant of (a, b)
                z, w = math.copysign(math.exp(X), a), math.copysign(math.exp(Y), b)
            else:
                z, w = cmath.rect(math.exp(X), a), cmath.rect(math.exp(Y), b)
            terms = z ** k[:, None] * poly.coeffs * w ** k[None, :]
            _, pz, pw, scale = amoeba_mod._partials(poly, z, w)
            assert scale == pytest.approx(float(np.abs(terms).sum()), rel=1e-14)
            assert abs(pz - (terms * k[:, None]).sum()) < 1e-12 * scale
            assert abs(pw - (terms * k[None, :]).sum()) < 1e-12 * scale

    @pytest.mark.parametrize("d, seed", [(3, 2026), (4, 1), (5, 7)])
    def test_batched_seeds_equal_one_slice_seeds(self, d, seed):
        poly = characteristic_polynomial(EdgeWeights.random(d, np.random.default_rng(seed)))
        window = auto_window(poly, pad=2.0)
        seeds = amoeba_mod._quadrant_seeds(poly, window, 160)
        assert list(seeds) == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        for signs, got in seeds.items():
            assert got == _one_slice_seeds(poly, signs, window, 160)

    def test_every_seed_lies_on_a_returned_component(self, c07_model0):
        poly, window, ovals = c07_model0
        for signs, seeds in amoeba_mod._quadrant_seeds(poly, window, TRACE["n_seed"]).items():
            logs = [np.log(np.abs(o.points)) for o in ovals if o.quadrant == signs]
            assert logs or not seeds
            for X, Y in seeds:
                dist = min(float(np.min(np.hypot(p[:, 0] - X, p[:, 1] - Y))) for p in logs)
                assert dist < 0.08

    def test_each_component_traced_once(self, c07_model0):
        _, _, ovals = c07_model0
        d, genus = 3, 1
        assert len(ovals) <= genus + 3 * d
        assert sum(1 for o in ovals if o.closed) == genus
        assert not any(o.stalled for o in ovals)

    def test_open_arcs_leave_the_window_at_both_ends(self, c07_model0):
        _, (x0, x1, y0, y1), ovals = c07_model0
        for oval in ovals:
            if oval.closed:
                continue
            for end in (oval.points[0], oval.points[-1]):
                X, Y = np.log(np.abs(end))
                assert not (x0 <= X <= x1 and y0 <= Y <= y1)

    def test_walk_out_of_steps_is_flagged_stalled(self, c07_model0):
        poly, window, _ = c07_model0
        ovals = trace_real_ovals(poly, window=window, n_seed=TRACE["n_seed"], max_steps=6)
        assert ovals
        assert all(o.stalled and not o.closed for o in ovals)


class TestCertificate:
    def test_single_cell_passes(self, line_poly):
        cert = verify_harnack(line_poly)
        assert cert.passed
        assert sorted(cert.checks) == [
            "area",
            "boundary_real",
            "boundary_signs",
            "genus_bound",
            "ovals_match_holes",
            "two_to_one",
        ]
        assert all(cert.checks.values())
        assert cert.details["area_target"] == pytest.approx(math.pi**2 / 2.0)

    def test_extra_closed_oval_breaks_genus_bound(self, line_poly, monkeypatch):
        # the line has genus 0, so one compact oval exceeds (d-1)(d-2)/2 = 0
        oval = amoeba_mod.RealOval(points=np.ones((5, 2)), closed=True, quadrant=(1, 1))
        monkeypatch.setattr(amoeba_mod, "trace_real_ovals", lambda poly: [oval])
        cert = verify_harnack(line_poly)
        assert cert.checks["genus_bound"] is False
        assert cert.checks["ovals_match_holes"] is False
        assert cert.details["compact_ovals"] == 1

    def test_squeezed_curve_fails(self):
        # shrinking the middle coefficient below the product-formula value
        # leaves the Harnack family; the area check catches the deficit
        cert = verify_harnack(perturbed_u3(0.90))
        assert not cert.passed
        assert not cert.checks["area"]

    def test_slightly_squeezed_curve_fails_the_area_check(self):
        # 1.9e-3 below pi^2 d^2 / 2, inside a pixel count's 2% but not the exact area's 1e-7
        cert = verify_harnack(perturbed_u3(0.99))
        assert not cert.passed
        assert not cert.checks["area"]

    def test_rand4_passes(self):
        # four west roots within 0.68 log units of each other: a padded raster lost 3% of the area
        cert = verify_harnack(characteristic_polynomial(EdgeWeights.random(4, np.random.default_rng(1))))
        assert cert.passed
        assert cert.details["genus"] == 3


def _column_integral_reference(poly, x, y0, y1):
    """One column over the full phi period, one quadrature per column."""
    lead = abs(poly.corner("w"))

    def integrand(phis):
        logs = amoeba_mod._w_logmods(poly, x, phis)
        below = logs <= y0
        above = logs >= y1
        mid = ~(below | above)
        vals = np.where(below, 0.5 * (y1 ** 2 - y0 ** 2), 0.0)
        vals = vals + np.where(above, logs * (y1 - y0), 0.0)
        vals = vals + np.where(mid, logs * (logs - y0) + 0.5 * (y1 ** 2 - logs ** 2), 0.0)
        return vals.sum(axis=1)

    q = integrate_periodic_kinked(integrand, [], tol=1e-9)
    assert q.converged
    return (y1 - y0) * math.log(lead) + q.value / (2.0 * math.pi)


@pytest.fixture(scope="module")
def c12_pair(u3_poly):
    """The c12 pair as ``volume_difference`` sees it: u3 with p11 x 1.01, and
    u3, both normalized to constant term 1."""
    coeffs = u3_poly.coeffs.copy()
    coeffs[1, 1] *= 1.01
    return (BivariatePolynomial(3, coeffs / coeffs[0, 0]),
            BivariatePolynomial(3, u3_poly.coeffs / u3_poly.coeffs[0, 0]))


class TestVolumeDifference:
    def test_identical_curves_give_zero(self, u2_poly):
        assert abs(volume_difference(u2_poly, u2_poly)) < 1e-9

    # (y0, y1, xs): the amoeba box (-3, 3)^2, the bottom strip of its first
    # ring, and the left strip of its last. P(z, 0) = (1 + z)^3, so the south
    # tentacle runs down x = 0: there roots cross y0 and the integrand kinks.
    @pytest.mark.parametrize("y0,y1,xs", [
        (-3.0, 3.0, [-3.0, -1.7, -0.4, 0.0, 0.02, 0.3, 1.1, 3.0]),
        (-4.0, -3.0, [-0.05, 0.0, 0.01, 2.5]),
        (-9.0, 9.0, [-9.0, -8.5]),
    ])
    def test_batched_columns_match_per_column_oracle(self, c12_pair, y0, y1, xs):
        for poly in c12_pair:
            got = amoeba_mod._column_integrals(poly, xs, y0, y1)
            for x, value in zip(xs, got):
                want = _column_integral_reference(poly, x, y0, y1)
                assert abs(value - want) <= 1e-9 * max(1.0, abs(want))

    def test_c12_value(self, c12_pair):
        # the full-period, per-column integration gave 0.12275489324855014
        assert abs(volume_difference(*c12_pair) - 0.12275489324855014) < 1e-8

    def test_degree_mismatch_rejected(self, line_poly, u2_poly):
        with pytest.raises(ValueError, match="degrees differ"):
            volume_difference(line_poly, u2_poly)

    def test_boundary_mismatch_rejected(self, u2_poly):
        coeffs = u2_poly.coeffs.copy()
        coeffs[1, 0] *= 1.5  # boundary coefficient: changes the curve's legs
        with pytest.raises(ValueError, match="different boundary data"):
            volume_difference(BivariatePolynomial(2, coeffs), u2_poly)
