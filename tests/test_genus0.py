"""Sine-quotient parametrization, boundary data, gauge moves, isoradial angles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import harnack.amoeba
from harnack import (
    BivariatePolynomial,
    BoundaryTriple,
    Genus0Curve,
    IsoradialAngles,
    align_canonical,
    amoeba_membership,
    apply_mobius,
    boundary_map,
    boundary_points,
    evaluate_parametrization,
    find_isoradial_shift,
    implicitize,
    interior_value,
    invert_boundary,
    isoradial_spectral_check,
    isoradial_weights,
    mobius_through,
    transport_gauge,
    validate_boundary_triple,
)
from harnack.genus0 import _circle_log_boundary

TWO_PI = 2.0 * math.pi
ANCHORS = (0.0, TWO_PI / 3.0, 4.0 * TWO_PI / 6.0)

seeds = st.integers(0, 10**9)


def canonical_d1(rho_z=1.0, rho_w=1.0):
    return Genus0Curve(1, [0.0], [TWO_PI / 3.0], [2.0 * TWO_PI / 3.0], rho_z, rho_w)


class TestGenus0Curve:
    def test_families_must_be_cyclically_ordered(self):
        with pytest.raises(ValueError, match="cyclically ordered"):
            Genus0Curve(1, [0.0], [4.0], [2.0])  # beta arc after gamma arc

    def test_interleaved_families_rejected(self):
        with pytest.raises(ValueError, match="cyclically ordered"):
            Genus0Curve(2, [0.0, 2.5], [2.0, 4.0], [5.0, 6.0])

    def test_prefactors_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            canonical_d1(rho_z=-1.0)

    def test_random_draws_are_valid(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3, 5):
            curve = Genus0Curve.random(d, rng)
            assert curve.min_gap() > 0.05


class TestParametrization:
    def test_canonical_single_line(self):
        z, w = evaluate_parametrization(canonical_d1(), math.pi)
        assert z == pytest.approx(2.0, abs=1e-12)
        assert w == pytest.approx(-1.0, abs=1e-12)

    def test_points_lie_on_the_implicit_curve(self):
        curve = Genus0Curve.random(3, np.random.default_rng(1))
        poly = implicitize(curve)
        scale = np.max(np.abs(poly.coeffs))
        for t in np.linspace(0.1, TWO_PI - 0.1, 17):
            try:
                z, w = evaluate_parametrization(curve, t)
            except ValueError:
                continue  # parameter hit a pole
            assert abs(poly(z, w)) < 1e-8 * scale * max(1.0, abs(z), abs(w)) ** 3

    def test_pole_parameter_rejected(self):
        curve = canonical_d1()
        with pytest.raises(ValueError, match="pole of the parametrization"):
            evaluate_parametrization(curve, TWO_PI / 3.0)

    def test_interior_value_extends_the_circle(self):
        curve = Genus0Curve.random(2, np.random.default_rng(2))
        t = 1.234
        z_circ, w_circ = evaluate_parametrization(curve, t)
        z_int, w_int = interior_value(curve, np.exp(1j * t))
        assert abs(z_int - z_circ) < 1e-10 * max(1.0, abs(z_circ))
        assert abs(w_int - w_circ) < 1e-10 * max(1.0, abs(w_circ))

    def test_interior_point_is_on_the_curve(self):
        curve = Genus0Curve.random(2, np.random.default_rng(3))
        poly = implicitize(curve)
        z, w = interior_value(curve, 0.3 + 0.2j)
        assert abs(poly(z, w)) < 1e-9 * np.max(np.abs(poly.coeffs)) * max(1.0, abs(z), abs(w)) ** 2


class TestImplicitize:
    def test_canonical_matrix(self):
        assert_allclose(implicitize(canonical_d1()).coeffs, [[1.0, -1.0], [-1.0, 0.0]], atol=1e-12)

    def test_prefactor_rescales_z_column(self):
        assert_allclose(
            implicitize(canonical_d1(rho_z=2.0)).coeffs, [[1.0, -1.0], [-0.5, 0.0]], atol=1e-12
        )

    @pytest.mark.parametrize("d", [5, 6, 10, 12])
    def test_high_degree(self, d):
        curve = Genus0Curve.random(d, np.random.default_rng(50 + d))
        poly = implicitize(curve)
        assert poly.d == d
        z, w = interior_value(curve, 0.3 - 0.6j)
        scale = abs(BivariatePolynomial(d, np.abs(poly.coeffs))(abs(z), abs(w)))
        assert abs(poly(z, w)) < 1e-9 * scale

    def test_boundary_roots_recover_the_triple(self):
        # intercept families of the implicit curve against the parametric data
        curve = Genus0Curve.random(2, np.random.default_rng(4))
        triple = boundary_map(curve)
        bp = boundary_points(implicitize(curve))
        assert_allclose(np.sort(bp.on_z0), np.sort(triple.A), rtol=1e-9)
        assert_allclose(np.sort(bp.on_w0), np.sort(1.0 / triple.B), rtol=1e-9)
        assert_allclose(np.sort(bp.at_inf), np.sort(triple.C), rtol=1e-9)


class TestBoundaryTriple:
    def test_canonical_values(self):
        triple = boundary_map(canonical_d1())
        assert_allclose(triple.A, [1.0])
        assert_allclose(triple.B, [1.0])
        assert_allclose(triple.C, [-1.0])

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_product_constraint(self, seed):
        # prod A * prod B * prod C = (-1)^d for every valid configuration
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        triple = boundary_map(Genus0Curve.random(d, rng))
        assert triple.product() == pytest.approx((-1.0) ** d, rel=1e-9)
        assert abs(triple.product_defect()) < 1e-9

    def test_sign_pattern_enforced(self):
        with pytest.raises(ValueError, match="constant nonzero sign"):
            BoundaryTriple(2, [1.0, -1.0], [1.0, 1.0], [1.0, 1.0])

    def test_validation_rejects_wrong_signs(self):
        triple = boundary_map(Genus0Curve.random(2, np.random.default_rng(5)))
        bad = BoundaryTriple(2, -triple.A, triple.B, triple.C)
        with pytest.raises(ValueError, match="sign pattern not realizable"):
            validate_boundary_triple(bad)

    def test_validation_rejects_broken_product(self):
        triple = boundary_map(Genus0Curve.random(2, np.random.default_rng(6)))
        bad = BoundaryTriple(2, triple.A * 1.7, triple.B, triple.C)
        with pytest.raises(ValueError, match="product constraint violated"):
            validate_boundary_triple(bad)


class TestInversion:
    def test_round_trip_small(self):
        curve = Genus0Curve.random(3, np.random.default_rng(7))
        recovered = invert_boundary(boundary_map(curve))
        reference = align_canonical(curve)
        assert_allclose(recovered.alpha, reference.alpha, atol=1e-9)
        assert_allclose(recovered.beta, reference.beta, atol=1e-9)
        assert_allclose(recovered.gamma, reference.gamma, atol=1e-9)
        assert recovered.rho_z == pytest.approx(reference.rho_z, rel=1e-9)
        assert recovered.rho_w == pytest.approx(reference.rho_w, rel=1e-9)

    def test_recovered_curve_reproduces_the_data(self):
        target = boundary_map(Genus0Curve.random(4, np.random.default_rng(8)))
        fitted, stats = invert_boundary(target, with_stats=True)
        back = boundary_map(fitted)
        assert stats["residual"] < 1e-10
        assert_allclose(np.sort(back.A), np.sort(target.A), rtol=1e-8)
        assert_allclose(np.sort(back.B), np.sort(target.B), rtol=1e-8)
        assert_allclose(np.sort(back.C), np.sort(target.C), rtol=1e-8)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_circle_jacobian_matches_differences(self, d):
        # the solver's own Jacobian, prefactor columns included
        curve = Genus0Curve.random(d, np.random.default_rng(60 + d))
        state = np.concatenate([curve.alpha, curve.gamma, curve.beta,
                                np.log([curve.rho_z, curve.rho_w])])
        _, jac = _circle_log_boundary(state)
        assert jac.shape == (3 * d, 3 * d + 2)
        fd = np.zeros_like(jac)
        step = 1e-6
        for col in range(3 * d + 2):
            shift = np.zeros_like(state)
            shift[col] = step
            plus = _circle_log_boundary(state + shift)[0]
            minus = _circle_log_boundary(state - shift)[0]
            fd[:, col] = (plus - minus) / (2.0 * step)
        assert float(np.max(np.abs(fd - jac))) < 1e-6 * max(1.0, float(np.max(np.abs(jac))))


class TestGaugeTransport:
    def test_disk_automorphism_preserves_the_curve(self):
        curve = Genus0Curve.random(2, np.random.default_rng(9))
        zeta = 0.3 + 0.1j
        matrix = np.array([[1.0, -zeta], [-np.conj(zeta), 1.0]], dtype=complex)
        moved = transport_gauge(curve, matrix)
        p0 = implicitize(curve)
        p1 = implicitize(moved)
        assert_allclose(
            p1.coeffs / p1.coeffs[0, 0], p0.coeffs / p0.coeffs[0, 0], atol=1e-9
        )

    def test_non_automorphism_rejected(self):
        curve = Genus0Curve.random(2, np.random.default_rng(10))
        with pytest.raises(ValueError, match="not a disk automorphism"):
            transport_gauge(curve, np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex))

    def test_align_canonical_pins_the_anchors(self):
        curve = Genus0Curve.random(3, np.random.default_rng(11))
        aligned = align_canonical(curve)
        assert aligned.alpha[0] == pytest.approx(0.0, abs=1e-9)
        assert aligned.beta[0] == pytest.approx(TWO_PI / 3.0, abs=1e-9)
        assert aligned.gamma[0] == pytest.approx(2.0 * TWO_PI / 3.0, abs=1e-9)

    def test_align_canonical_idempotent(self):
        aligned = align_canonical(Genus0Curve.random(2, np.random.default_rng(12)))
        again = align_canonical(aligned)
        assert_allclose(again.alpha, aligned.alpha, atol=1e-9)
        assert again.rho_z == pytest.approx(aligned.rho_z, rel=1e-9)

    def test_mobius_through_maps_the_points(self):
        src = np.exp(1j * np.array([0.3, 1.9, 4.1]))
        dst = np.exp(1j * np.array(ANCHORS))
        matrix = mobius_through(src, dst)
        assert_allclose(apply_mobius(matrix, src), dst, atol=1e-12)


class TestIsoradial:
    def test_equilateral_single_cell(self):
        angles = IsoradialAngles(1, [0.0], [TWO_PI / 3.0], [2.0 * TWO_PI / 3.0])
        weights = isoradial_weights(angles)
        root3 = math.sqrt(3.0)
        assert_allclose(weights.a, [[root3]], rtol=1e-12)
        assert_allclose(weights.b, [[root3]], rtol=1e-12)
        assert_allclose(weights.c, [[root3]], rtol=1e-12)

    def test_unsorted_angles_rejected(self):
        with pytest.raises(ValueError, match="not isoradial"):
            IsoradialAngles(1, [0.0], [4.0], [2.0])

    def test_degenerate_rhombus_warns(self):
        with pytest.warns(UserWarning, match="degenerate rhombus"):
            isoradial_weights(IsoradialAngles(1, [0.0], [5e-14], [2.0]))

    def test_spectral_check_on_random_angles(self):
        report = isoradial_spectral_check(IsoradialAngles.random(2, np.random.default_rng(13)))
        assert report.on_curve
        assert report.origin_in_amoeba
        assert report.residual < 1e-10

    def test_origin_inside_the_isoradial_amoeba(self):
        angles = IsoradialAngles.random(3, np.random.default_rng(14))
        poly = implicitize(angles.as_curve())
        assert amoeba_membership(poly, 0.0, 0.0)


class TestIsoradialShift:
    def test_unit_prefactors_need_no_shift(self):
        curve = IsoradialAngles.random(2, np.random.default_rng(15)).as_curve()
        zeta, shifted = find_isoradial_shift(curve)
        assert abs(zeta) < 1e-9
        assert shifted.rho_z == pytest.approx(1.0, abs=1e-9)
        assert shifted.rho_w == pytest.approx(1.0, abs=1e-9)

    def test_recovers_after_transport(self):
        for d, seed, zeta0 in ((2, 16, 0.25 - 0.15j), (5, 18, -0.2 + 0.3j)):
            curve = IsoradialAngles.random(d, np.random.default_rng(seed)).as_curve()
            matrix = np.array([[1.0, -zeta0], [-np.conj(zeta0), 1.0]], dtype=complex)
            moved = transport_gauge(curve, matrix)
            assert abs(moved.rho_z - 1.0) > 1e-3  # the transport really moved it
            _, recovered = find_isoradial_shift(moved)
            p0 = implicitize(curve)
            p1 = implicitize(recovered)
            assert_allclose(p1.coeffs / p1.coeffs[0, 0], p0.coeffs / p0.coeffs[0, 0], atol=1e-8)
            assert recovered.rho_z == pytest.approx(1.0, abs=1e-8)
            assert recovered.rho_w == pytest.approx(1.0, abs=1e-8)

    def test_recovers_after_transport_at_degree_nine(self):
        # |p_00| is 7.5e-14 of the largest coefficient here, so dividing by
        # it would measure rounding: compare at largest = 1 instead
        curve = IsoradialAngles.random(9, np.random.default_rng(91)).as_curve()
        zeta0 = -0.2 + 0.25j
        matrix = np.array([[1.0, -zeta0], [-np.conj(zeta0), 1.0]], dtype=complex)
        _, recovered = find_isoradial_shift(transport_gauge(curve, matrix))
        p0 = implicitize(curve).coeffs
        p1 = implicitize(recovered).coeffs
        assert_allclose(p1 / np.abs(p1).max(), p0 / np.abs(p0).max(), atol=1e-10)
        assert recovered.rho_z == pytest.approx(1.0, abs=1e-10)
        assert recovered.rho_w == pytest.approx(1.0, abs=1e-10)

    def test_shift_is_none_when_origin_is_outside(self):
        # build a genus-zero curve whose amoeba misses the origin by scaling
        base = IsoradialAngles.random(1, np.random.default_rng(17)).as_curve()
        far = Genus0Curve(base.d, base.alpha, base.beta, base.gamma, 40.0, 1.0)
        assert find_isoradial_shift(far) is None

    def test_stalled_search_raises(self, monkeypatch):
        # with the amoeba test forced to pass, the solve from u = 0 has no
        # unit point to reach and must say so instead of returning a point
        base = IsoradialAngles.random(1, np.random.default_rng(17)).as_curve()
        far = Genus0Curve(base.d, base.alpha, base.beta, base.gamma, 40.0, 1.0)
        monkeypatch.setattr(harnack.amoeba, "amoeba_membership", lambda *args: True)
        with pytest.raises(RuntimeError, match="^no convergence"):
            find_isoradial_shift(far)
