"""Kasteleyn matrix assembly and the characteristic polynomial det K."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from harnack import kasteleyn
from harnack.genus0 import IsoradialAngles, isoradial_weights
from harnack.kasteleyn import (
    BivariatePolynomial,
    assemble_K,
    boundary_points,
    characteristic_polynomial,
    verify_boundary_vs_zigzag,
)
from harnack.lattice import (
    MAX_DOMAIN,
    EdgeWeights,
    GaugeVector,
    all_zigzag_products,
    apply_gauge,
    apply_magnetic_field,
)
from harnack.numerics import det_complex

seeds = st.integers(0, 10**9)

UNIFORM_COEFFS = {
    1: [[1.0, 1.0], [1.0, 0.0]],
    2: [[1.0, -2.0, 1.0], [-2.0, -2.0, 0.0], [1.0, 0.0, 0.0]],
    3: [
        [1.0, 3.0, 3.0, 1.0],
        [3.0, -21.0, 3.0, 0.0],
        [3.0, 3.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ],
}


class TestBivariatePolynomial:
    def test_support_outside_triangle_rejected(self):
        coeffs = np.zeros((3, 3))
        coeffs[0, 0] = 1.0
        coeffs[2, 2] = 1.0  # i + j = 4 > d = 2
        with pytest.raises(ValueError):
            BivariatePolynomial(2, coeffs)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BivariatePolynomial(2, np.ones((2, 2)))

    def test_evaluation_and_sections(self):
        poly = BivariatePolynomial(2, [[1.0, 2.0, 3.0], [4.0, 5.0, 0.0], [6.0, 0.0, 0.0]])
        z, w = 1.3, -0.7
        manual = 1 + 2 * w + 3 * w**2 + 4 * z + 5 * z * w + 6 * z**2
        assert poly(z, w) == pytest.approx(manual, rel=1e-14)
        # section helpers vectorize over the frozen variable
        assert_allclose(
            poly.w_coefficients(z).ravel(), [1 + 4 * z + 6 * z**2, 2 + 5 * z, 3.0]
        )
        assert_allclose(
            poly.z_coefficients(w).ravel(), [1 + 2 * w + 3 * w**2, 4 + 5 * w, 6.0]
        )

    @pytest.mark.parametrize("d", range(1, 10))
    def test_rows_do_not_depend_on_batch_size(self, d):
        # a one-row call gives, bit for bit, the same row of one stacked call
        poly = characteristic_polynomial(EdgeWeights.random(d, np.random.default_rng(0)))
        rng = np.random.default_rng(d)
        values = np.exp(rng.uniform(-3.0, 3.0, 500) + 1j * rng.uniform(0.0, 2.0 * np.pi, 500))
        for coefficients in (poly.w_coefficients, poly.z_coefficients):
            stacked = coefficients(values)
            for k in range(values.size):
                assert coefficients(values[k:k + 1])[0].tobytes() == stacked[k].tobytes()

    def test_scaled(self):
        poly = BivariatePolynomial(1, [[2.0, 4.0], [6.0, 0.0]])
        assert_allclose(poly.scaled(0.5).coeffs, [[1.0, 2.0], [3.0, 0.0]])


class TestAssembly:
    def test_single_cell_matrix(self):
        w = EdgeWeights(1, [[2.0]], [[3.0]], [[5.0]])
        z, v = 1.7 + 0.3j, -0.4 + 1.1j
        k = assemble_K(w, z, v)
        assert k.shape == (1, 1)
        assert k[0, 0] == pytest.approx(5.0 + 2.0 * z + 3.0 * v, rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_entrywise_loop(self, d):
        # reference: one entry per edge, each added in turn (at d = 1 all
        # three land on K[0, 0])
        w = EdgeWeights.random(d, np.random.default_rng(60 + d))
        z, v = 0.7 - 1.3j, -0.2 + 0.9j
        ref = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                row = i * d + j
                ref[row, row] += w.c[i, j]
                ref[row, i * d + (j + 1) % d] += w.a[i, j] * (z if j == d - 1 else 1.0)
                ref[row, (i + 1) % d * d + j] += w.b[i, j] * (v if i == d - 1 else 1.0)
        assert np.array_equal(assemble_K(w, z, v), ref)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_polynomial_reproduces_determinant(self, d):
        # dual route: interpolated coefficients against direct LU determinants
        w = EdgeWeights.random(d, np.random.default_rng(d))
        poly = characteristic_polynomial(w)
        rng = np.random.default_rng(50 + d)
        for _ in range(5):
            z = complex(rng.standard_normal(), rng.standard_normal())
            v = complex(rng.standard_normal(), rng.standard_normal())
            det = det_complex(assemble_K(w, z, v))
            assert abs(poly(z, v) - det) <= 1e-9 * max(1.0, abs(det))


class TestCharacteristicPolynomial:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_uniform_coefficients(self, d):
        poly = characteristic_polynomial(EdgeWeights.uniform(d))
        assert_allclose(poly.coeffs, UNIFORM_COEFFS[d], atol=1e-9)

    def test_triangular_support(self):
        poly = characteristic_polynomial(EdgeWeights.random(4, np.random.default_rng(2)))
        for i in range(5):
            for j in range(5):
                if i + j > 4:
                    assert poly.coeffs[i, j] == 0.0

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_gauge_invariance_up_to_scale(self, seed):
        # det K picks up the product of all gauge factors; the zero set and
        # the normalized coefficients do not move
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        w = EdgeWeights.random(d, rng)
        gauge = GaugeVector(
            d, np.exp(rng.uniform(-1, 1, (d, d))), np.exp(rng.uniform(-1, 1, (d, d)))
        )
        base = characteristic_polynomial(w).coeffs
        moved = characteristic_polynomial(apply_gauge(w, gauge)).coeffs
        assert_allclose(
            moved / moved[0, 0],
            base / base[0, 0],
            rtol=1e-9,
            atol=1e-9 * np.max(np.abs(base / base[0, 0])),
        )

    def test_magnetic_field_scales_coefficients(self):
        # the field acts on the curve as (z, w) -> (z e^{bx}, w e^{by})
        w = EdgeWeights.random(3, np.random.default_rng(6))
        bx, by = 0.35, -0.15
        base = characteristic_polynomial(w).coeffs
        moved = characteristic_polynomial(apply_magnetic_field(w, bx, by)).coeffs
        i = np.arange(4)[:, None]
        j = np.arange(4)[None, :]
        expected = base * np.exp(i * bx + j * by)
        assert_allclose(moved, expected, rtol=1e-9, atol=1e-9 * np.max(np.abs(expected)))


def _bareiss(matrix) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _lagrange_inverse(n: int) -> list:
    """inv[i][k] = coefficient of x^i in the Lagrange basis polynomial of
    node k on the nodes 0..n-1: the inverse of the Vandermonde matrix."""
    inv = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        poly = [Fraction(1)]
        for m in range(n):
            if m != k:
                # poly * (x - m) / (k - m)
                poly = [(lo - m * hi) / (k - m)
                        for lo, hi in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
        for i in range(n):
            inv[i][k] = poly[i]
    return inv


def _exact_coefficients(weights: EdgeWeights) -> list:
    """Every p_ij of det K as a Fraction.

    Floats are dyadic rationals, so one power of two scales all weights to
    integers; det K at the integer samples (z, w) in {0..d}^2 is then an
    exact integer, and the tensor Lagrange interpolation is exact."""
    d = weights.d
    arrays = (weights.a, weights.b, weights.c)
    den = max(float(v).as_integer_ratio()[1] for arr in arrays for v in arr.flat)

    def scaled(arr):
        return [[num * (den // q) for num, q in (float(v).as_integer_ratio() for v in row)]
                for row in arr]

    a, b, c = (scaled(arr) for arr in arrays)

    def kmat(z, w):
        k = [[0] * (d * d) for _ in range(d * d)]
        for i in range(d):
            for j in range(d):
                row = i * d + j
                k[row][row] += c[i][j]
                k[row][i * d + (j + 1) % d] += a[i][j] * (z if j == d - 1 else 1)
                k[row][(i + 1) % d * d + j] += b[i][j] * (w if i == d - 1 else 1)
        return k

    dets = [[_bareiss(kmat(z, w)) for w in range(d + 1)] for z in range(d + 1)]
    inv = _lagrange_inverse(d + 1)
    scale = Fraction(den) ** (d * d)
    return [[sum(inv[i][k] * inv[j][l] * dets[k][l]
                 for k in range(d + 1) for l in range(d + 1)) / scale
             for j in range(d + 1)] for i in range(d + 1)]


def _oracle_model(kind: str, d: int) -> EdgeWeights:
    if kind == "random":
        return EdgeWeights.random(d, np.random.default_rng(1000 * d))
    return isoradial_weights(IsoradialAngles.random(d, np.random.default_rng(1000 * d + 1)))


class TestExactOracle:
    @pytest.mark.parametrize("kind", ["random", "isoradial"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_every_coefficient_to_1e13(self, kind, d):
        weights = _oracle_model(kind, d)
        exact = _exact_coefficients(weights)
        sign = 1 if exact[0][0] > 0 else -1
        coeffs = characteristic_polynomial(weights).coeffs
        for i in range(d + 1):
            for j in range(d + 1):
                if i + j > d:
                    assert exact[i][j] == 0 and coeffs[i, j] == 0.0
                    continue
                truth = sign * exact[i][j]
                err = abs(Fraction(float(coeffs[i, j])) - truth) / abs(truth)
                assert err <= 1e-13, (i, j, float(err))


class TestBalancedTori:
    def test_uncovered_coefficient_raises(self, monkeypatch):
        # the unit torus alone cannot resolve the small coefficients of d = 8
        monkeypatch.setattr(kasteleyn, "_ROUNDS", 0)
        with pytest.raises(RuntimeError, match="interpolation inconsistency"):
            characteristic_polynomial(EdgeWeights.random(8, np.random.default_rng(808)))

    def test_equal_weights_give_the_same_polynomial(self):
        first = characteristic_polynomial(EdgeWeights.random(4, np.random.default_rng(41)))
        again = characteristic_polynomial(EdgeWeights.random(4, np.random.default_rng(41)))
        assert again is first
        assert not first.coeffs.flags.writeable

    def test_torus_that_reads_nothing_is_ignored(self, monkeypatch):
        # a torus whose determinants overflowed reads NaN: it must not become
        # the best reading of any coefficient or spoil the estimates
        w = EdgeWeights.random(6, np.random.default_rng(61))
        clean = characteristic_polynomial(w).coeffs
        kasteleyn._memo_polynomial.cache_clear()
        sample = kasteleyn._torus_readings

        def with_a_dead_torus(weights, fields):
            readings, mantissa, exponent = sample(weights, fields)
            return (np.concatenate([readings, np.full_like(readings[:1], np.nan)]),
                    np.concatenate([mantissa, mantissa[:1]]),
                    np.concatenate([exponent, exponent[:1]]))

        monkeypatch.setattr(kasteleyn, "_torus_readings", with_a_dead_torus)
        assert np.array_equal(characteristic_polynomial(w).coeffs, clean)

    @pytest.mark.parametrize("d, count", [(1, 4), (2, 5), (3, 10), (6, 25)])
    def test_half_the_grid_is_factored(self, monkeypatch, d, count):
        # det K at (-k, -l) is the conjugate of det K at (k, l): a torus
        # takes (n^2 + s)/2 seam determinants in one batch, n = d + 1 and
        # s = 1 (n odd) or 4 (n even) self-conjugate samples, besides the
        # two single determinants of its base and its guard
        batched, single = [], []
        det = np.linalg.det

        def counting(matrices):
            (batched if matrices.ndim == 3 else single).append(len(matrices))
            return det(matrices)

        monkeypatch.setattr(np.linalg, "det", counting)
        kasteleyn._torus_readings(EdgeWeights.random(d, np.random.default_rng(70 + d)),
                                  np.array([[0.0, 0.0], [0.5, -0.3]]))
        assert batched == [count, count]
        assert len(single) == 4

    @pytest.mark.parametrize("d", [3, 6])
    def test_one_bad_determinant_raises(self, monkeypatch, d):
        # one seam determinant off by 1e-6 relative (and so its mirrored
        # mate), away from the guard's sample (0, 0), spreads over every
        # reading, outside the triangle too
        det = np.linalg.det
        calls = []

        def one_off(matrices):
            out = det(matrices)
            if matrices.ndim == 3 and not calls:
                out[1] *= 1.0 + 1e-6
                calls.append(len(matrices))
            return out

        kasteleyn._memo_polynomial.cache_clear()
        monkeypatch.setattr(np.linalg, "det", one_off)
        with pytest.raises(RuntimeError, match="interpolation inconsistency"):
            characteristic_polynomial(EdgeWeights.random(d, np.random.default_rng(80 + d)))
        assert calls

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_seam_determinant_matches_direct(self, d):
        # det B det(I + T M) against the LU of the whole matrix, at random
        # samples off every grid; at d = 1 the z- and w-edges share K[0, 0]
        w = EdgeWeights.random(d, np.random.default_rng(90 + d))
        rng = np.random.default_rng(d)
        z = np.exp(rng.uniform(-0.5, 0.5, 8) + 1j * rng.uniform(0.0, 2.0 * np.pi, 8))
        v = np.exp(rng.uniform(-0.5, 0.5, 8) + 1j * rng.uniform(0.0, 2.0 * np.pi, 8))
        base = kasteleyn._BASES[0]
        seam = kasteleyn._seam_determinants(assemble_K(w, *base), base, w.a, w.b, z, v)
        direct = np.array([np.linalg.det(assemble_K(w, zs, vs)) for zs, vs in zip(z, v)])
        assert_allclose(seam, direct, rtol=1e-12)

    def test_base_on_the_curve_moves(self, monkeypatch):
        # P = 1 + z + w vanishes at (e^{2 pi i/3}, e^{-2 pi i/3}): with that
        # base first the guard rejects it and the next base gives the same
        # P; with that base alone the torus raises
        w = EdgeWeights.uniform(1)
        kasteleyn._memo_polynomial.cache_clear()
        clean = characteristic_polynomial(w).coeffs
        on_curve = np.exp(2j * np.pi / 3 * np.array([[1.0, -1.0]]))
        kasteleyn._memo_polynomial.cache_clear()
        monkeypatch.setattr(kasteleyn, "_BASES", np.concatenate([on_curve, kasteleyn._BASES]))
        assert np.array_equal(characteristic_polynomial(w).coeffs, clean)
        kasteleyn._memo_polynomial.cache_clear()
        monkeypatch.setattr(kasteleyn, "_BASES", on_curve)
        with pytest.raises(RuntimeError, match="interpolation inconsistency"):
            characteristic_polynomial(w)

    def test_weights_near_overflow(self):
        # det K of these weights overflows away from the unit torus; every
        # torus is rescaled by a power of two, so P is exactly that of the
        # small weights times 2^(60 d^2) up to the choice of fields
        w = EdgeWeights.random(4, np.random.default_rng(62))
        big = EdgeWeights(4, *(np.ldexp(v, 60) for v in (w.a, w.b, w.c)))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isinf(np.linalg.det(assemble_K(big, 1e6, 1.0)))
        assert_allclose(characteristic_polynomial(big).coeffs,
                        np.ldexp(characteristic_polynomial(w).coeffs, 60 * 16), rtol=1e-13)

    def test_changed_weight_gives_a_new_polynomial(self):
        w = EdgeWeights.random(3, np.random.default_rng(42))
        c = w.c.copy()
        c[1, 2] *= 1.5
        base = characteristic_polynomial(w)
        moved = characteristic_polynomial(EdgeWeights(3, w.a, w.b, c))
        assert moved is not base
        assert not np.array_equal(moved.coeffs, base.coeffs)


class TestBoundaryPoints:
    def test_uniform_triple_root(self):
        bp = boundary_points(characteristic_polynomial(EdgeWeights.uniform(3)))
        for family in (bp.on_w0, bp.on_z0, bp.at_inf):
            assert_allclose(np.sort(family), [-1.0, -1.0, -1.0], atol=1e-9)

    def test_single_cell(self):
        w = EdgeWeights(1, [[2.0]], [[3.0]], [[5.0]])
        bp = boundary_points(characteristic_polynomial(w))
        # 5 + 2z + 3w: intercepts -c/a, -c/b and the infinite direction -b/a
        assert_allclose(bp.on_w0, [-2.5])
        assert_allclose(bp.on_z0, [-5.0 / 3.0])
        assert_allclose(bp.at_inf, [-1.5])

    def test_all_real_and_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            w = EdgeWeights.random(3, rng)
            bp = boundary_points(characteristic_polynomial(w))
            for family in (bp.on_w0, bp.on_z0, bp.at_inf):
                assert family.dtype.kind == "f"
                assert np.all(family < 0.0)

    def test_complex_axis_roots_rejected(self):
        # P(z, 0) = 1 + z + z^2 has no real roots; not a spectral curve
        coeffs = np.zeros((3, 3))
        coeffs[0, 0] = 1.0
        coeffs[1, 0] = 1.0
        coeffs[2, 0] = 1.0
        coeffs[0, 1] = 3.0
        coeffs[0, 2] = 1.0
        coeffs[1, 1] = 3.0
        with pytest.raises(ValueError, match="non-Harnack boundary"):
            boundary_points(BivariatePolynomial(2, coeffs))

    def test_degenerate_axis_polynomial_rejected(self):
        # no z terms at all: P(z, 0) is constant and has no roots to compare
        coeffs = np.zeros((3, 3))
        coeffs[0, 0] = 1.0
        coeffs[0, 1] = 3.0
        coeffs[0, 2] = 1.0
        with pytest.raises(ValueError, match="degenerate axis polynomial"):
            boundary_points(BivariatePolynomial(2, coeffs))

    def test_low_degree_axis_polynomial_rejected(self):
        # P(z, 0) = 1 + z has one root where the degree demands two
        coeffs = np.array([[1.0, 3.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="degenerate axis polynomial"):
            boundary_points(BivariatePolynomial(2, coeffs))


class TestZigZagComparison:
    def test_orderings_are_permutations(self):
        w = EdgeWeights.random(3, np.random.default_rng(9))
        comparison = verify_boundary_vs_zigzag(w)
        assert comparison.passed()
        for orientation, perm in comparison.ordering.items():
            assert sorted(perm) == [0, 1, 2], orientation

    def test_close_pair_at_infinity(self):
        # a d = 9 draw whose nw-se products -0.0729879 and -0.0729643 lie
        # 3.2e-4 apart, relative: two roots, not one double root
        base = EdgeWeights.random(9, np.random.default_rng(9000))
        rng = np.random.default_rng(1)
        a, b, c = (x * np.exp(1e-3 * rng.standard_normal(x.shape)) for x in (base.a, base.b, base.c))
        assert verify_boundary_vs_zigzag(EdgeWeights(9, a, b, c)).passed()

    def test_per_orientation_keys(self):
        comparison = verify_boundary_vs_zigzag(EdgeWeights.uniform(2))
        assert sorted(comparison.per_orientation) == ["at_inf", "on_w0", "on_z0"]
        assert comparison.max_rel_error < 1e-10

    @pytest.mark.parametrize("kind", ["random", "isoradial"])
    @pytest.mark.parametrize("d", range(3, MAX_DOMAIN + 1))
    def test_rand_and_iso_models_up_to_the_largest_domain(self, kind, d):
        # criterion c02 on rand-d and iso-d (the random weights of
        # default_rng(1000 d) and the isoradial angles of the same seed)
        if kind == "random":
            w = EdgeWeights.random(d, np.random.default_rng(1000 * d))
        else:
            w = isoradial_weights(IsoradialAngles.random(d, np.random.default_rng(1000 * d)))
        assert verify_boundary_vs_zigzag(w).passed()


class TestLargestDomain:
    def test_sides_match_zigzag_products(self):
        # at d = MAX_DOMAIN the three sides of the Newton triangle are the
        # zig-zag polynomials: p_d0 prod (z - r) over the horizontal
        # products and so on. The products of one family share a sign, so
        # np.poly forms those coefficients without cancellation.
        d = MAX_DOMAIN
        w = EdgeWeights.random(d, np.random.default_rng(16))
        p = characteristic_polynomial(w).coeffs
        zz = all_zigzag_products(w)
        k = np.arange(d + 1)
        for side, orientation in ((p[:, 0], "horizontal"), (p[0, :], "vertical"),
                                  (p[k, d - k], "nw-se")):
            assert_allclose(side, np.poly(zz[orientation])[::-1] * side[d], rtol=1e-12)
        assert verify_boundary_vs_zigzag(w).passed()
