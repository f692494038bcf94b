"""Amoeba membership, Ronkin function, hole census, and the Harnack certificate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from harnack import (
    BivariatePolynomial,
    EdgeWeights,
    amoeba_area,
    amoeba_membership,
    auto_window,
    characteristic_polynomial,
    detect_holes,
    facet_intercepts,
    gradient_ronkin,
    legendre_dual_residual,
    legendre_transform,
    monge_ampere_residual,
    rasterize_amoeba,
    ronkin,
    trace_real_ovals,
    two_to_one_check,
    verify_harnack,
    volume_difference,
)
from harnack.numerics import QuadratureResult, polyroots_batch

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


def _oracle_logmods(poly, x, phis):
    mods = np.abs(polyroots_batch(poly.w_coefficients(np.exp(x + 1j * phis))))
    return np.where(mods > 0, np.log(np.where(mods > 0, mods, 1.0)), -745.0)


def _oracle_membership(poly, x, y, n_phi=256, dip_tol=1e-7):
    """Point membership as one sequential test: a 256-angle sweep, the count
    test, then each dip below 0.05 zoomed on its own (17 points, 8 zooms)."""
    phis = 2.0 * np.pi * (np.arange(n_phi) + 0.382) / n_phi
    logs = _oracle_logmods(poly, x, phis)
    counts = (logs < y).sum(axis=1)
    if counts.min() != counts.max():
        return True
    gap = np.min(np.abs(logs - y), axis=1)
    step = 2.0 * np.pi / n_phi
    for idx in np.nonzero((gap <= np.roll(gap, 1)) & (gap <= np.roll(gap, -1)) & (gap < 0.05))[0]:
        lo, hi = phis[idx] - step, phis[idx] + step
        for _ in range(8):
            grid = np.linspace(lo, hi, 17)
            vals = np.min(np.abs(_oracle_logmods(poly, x, np.mod(grid, 2.0 * np.pi)) - y), axis=1)
            k = int(np.argmin(vals))
            width = (hi - lo) / 8.0
            lo, hi = grid[k] - width, grid[k] + width
        if vals[k] < dip_tol:
            return True
    return False


def _oracle_raster(poly, window, n, n_phi=160):
    """The raster with each suspect pixel refined on its own by ``_oracle_membership``.

    Returns the membership, the number of suspect pixels and how many of them
    turned out members."""
    x0, x1, y0, y1 = window
    py = (y1 - y0) / n
    xc = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
    yc = y0 + (np.arange(n) + 0.5) * py
    phis = 2.0 * np.pi * (np.arange(n_phi) + 0.382) / n_phi
    member = np.empty((n, n), dtype=bool)
    sent = grazed = 0
    for ix in range(n):
        x = float(xc[ix])
        logs = _oracle_logmods(poly, x, phis)
        counts = (logs[:, :, None] < yc[None, None, :]).sum(axis=1)
        varying = counts.max(axis=0) != counts.min(axis=0)
        dist = np.min(np.abs(logs.reshape(-1)[:, None] - yc[None, :]), axis=0)
        member[:, ix] = varying
        for iy in np.nonzero(~varying & (dist < max(1.5 * py, 4e-3)))[0]:
            member[iy, ix] = _oracle_membership(poly, x, float(yc[iy]))
            sent += 1
            grazed += int(member[iy, ix])
    return member, sent, grazed


class TestColumnRefinement:
    """The raster refines a column's suspect pixels together; the verdicts
    must equal refining each pixel on its own."""

    @pytest.mark.parametrize("d, seed, half, n", [(3, 2026, 1.0, 120), (4, 1, 0.5, 64)])
    def test_raster_matches_per_pixel_oracle(self, d, seed, half, n):
        poly = characteristic_polynomial(EdgeWeights.random(d, np.random.default_rng(seed)))
        x0, x1, y0, y1 = auto_window(poly)
        cx, cy, hx, hy = 0.5 * (x0 + x1), 0.5 * (y0 + y1), 0.5 * half * (x1 - x0), 0.5 * half * (y1 - y0)
        window = (cx - hx, cx + hx, cy - hy, cy + hy)
        grid = rasterize_amoeba(poly, window=window, nx=n, ny=n)
        member, sent, grazed = _oracle_raster(poly, window, n)
        assert np.array_equal(grid.membership, member)
        assert grid.refined == sent
        assert grazed > 0  # some suspect pixels are members: the dip zoom decided them

    def test_membership_matches_oracle(self):
        poly = characteristic_polynomial(EdgeWeights.random(3, np.random.default_rng(2026)))
        x0, x1, y0, y1 = auto_window(poly, pad=0.5)
        rng = np.random.default_rng(8)
        points = [(float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1))) for _ in range(20)]
        # points on the real locus: the count never jumps there, only a dip can see them
        for k, x in enumerate(np.linspace(x0, x1, 20)):
            roots = polyroots_batch(poly.w_coefficients(np.array([(-1) ** k * math.exp(x)])))[0]
            real = roots[np.abs(roots.imag) < 1e-12 * np.abs(roots)]
            points.append((float(x), float(np.log(np.abs(real[0].real)))))
        verdicts = [amoeba_membership(poly, x, y) for x, y in points]
        assert verdicts == [_oracle_membership(poly, x, y) for x, y in points]
        assert all(verdicts[20:])


class TestRaster:
    def test_refined_pixels_reported(self):
        poly = characteristic_polynomial(EdgeWeights.random(3, np.random.default_rng(2026)))
        assert rasterize_amoeba(poly, nx=120, ny=120).refined > 0
        # far from every tentacle nothing is near the root-modulus pool
        assert rasterize_amoeba(poly, window=(20.0, 22.0, -22.0, -20.0), nx=16, ny=16).refined == 0

    def test_window_must_have_extent(self, line_poly):
        with pytest.raises(ValueError, match="window must have positive extent"):
            rasterize_amoeba(line_poly, window=(1.0, 1.0, 0.0, 1.0), nx=16, ny=16)

    def test_line_area_smoke(self, line_poly):
        grid = rasterize_amoeba(line_poly, window=auto_window(line_poly, pad=8.0), nx=300, ny=300)
        est = amoeba_area(grid)
        target = math.pi**2 / 2.0
        assert not est.frame_warning
        assert abs(est.value - target) < 0.05 * target
        assert est.error_bar > 0.0

    def test_auto_window_grows_with_pad(self, line_poly):
        small = auto_window(line_poly, pad=1.0)
        large = auto_window(line_poly, pad=5.0)
        assert small[0] > large[0] and small[1] < large[1]
        assert small[2] > large[2] and small[3] < large[3]


class TestQuadratureConvergence:
    @staticmethod
    def _stalled(f, kinks, tol=1e-11, max_rounds=30):
        return QuadratureResult(0.0, 48, False)

    def test_unconverged_ronkin_raises(self, line_poly, monkeypatch):
        monkeypatch.setattr("harnack.amoeba.integrate_periodic_kinked", self._stalled)
        with pytest.raises(RuntimeError, match="no convergence"):
            ronkin(line_poly, 0.0, 0.0)

    def test_unconverged_column_integral_raises(self, u2_poly, monkeypatch):
        monkeypatch.setattr("harnack.amoeba.integrate_periodic_kinked", self._stalled)
        with pytest.raises(RuntimeError, match="no convergence"):
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
    def test_residual_small_inside(self, line_poly):
        assert abs(monge_ampere_residual(line_poly, 0.1, -0.05)) < 1e-4

    def test_outside_point_rejected(self, line_poly):
        with pytest.raises(ValueError, match="outside amoeba"):
            monge_ampere_residual(line_poly, 3.0, 0.0)


class TestHoles:
    def test_uniform_d3_has_invisible_node(self, u3_poly):
        # the node at the origin is measure zero; no bounded component opens
        report = detect_holes(u3_poly)
        assert report.genus == 0
        assert report.holes == []
        assert report.candidate_nodes == []

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

    def test_facet_intercepts_of_line(self, line_poly):
        table = facet_intercepts(line_poly)
        assert set(table) == {(0, 0), (1, 0), (0, 1)}
        for value in table.values():
            assert abs(value) < 1e-9


class TestRealLocus:
    def test_two_to_one_at_node(self, u3_poly):
        # the node is the one place where conjugate preimages coincide
        assert two_to_one_check(u3_poly, 0.0, 0.0) == 1

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

    def test_squeezed_curve_fails(self):
        # shrinking the middle coefficient below the product-formula value
        # leaves the Harnack family; the area check catches the deficit
        cert = verify_harnack(perturbed_u3(0.90))
        assert not cert.passed
        assert not cert.checks["area"]


class TestVolumeDifference:
    def test_identical_curves_give_zero(self, u2_poly):
        assert abs(volume_difference(u2_poly, u2_poly)) < 1e-9

    def test_degree_mismatch_rejected(self, line_poly, u2_poly):
        with pytest.raises(ValueError, match="degrees differ"):
            volume_difference(line_poly, u2_poly)

    def test_boundary_mismatch_rejected(self, u2_poly):
        coeffs = u2_poly.coeffs.copy()
        coeffs[1, 0] *= 1.5  # boundary coefficient: changes the curve's legs
        with pytest.raises(ValueError, match="different boundary data"):
            volume_difference(BivariatePolynomial(2, coeffs), u2_poly)
