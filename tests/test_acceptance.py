"""Acceptance suite, one test_cNN_* group per criterion.

Grids, window pads, seeds, and tolerances are pinned to values checked to
finish within budget on a single core; loosening a tolerance here needs a
matching justification in the module that owns the computation.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from harnack import (
    BivariatePolynomial,
    EdgeWeights,
    Genus0Curve,
    IsoradialAngles,
    align_canonical,
    amoeba_area,
    auto_window,
    boundary_map,
    boundary_points,
    characteristic_polynomial,
    detect_holes,
    invert_boundary,
    is_standard_divisor,
    isoradial_spectral_check,
    jacobian_blocks,
    jacobian_kernel_vectors,
    jacobian_logABC,
    monge_ampere_residual,
    rasterize_amoeba,
    ronkin,
    trace_real_ovals,
    two_to_one_check,
    verify_boundary_vs_zigzag,
    vertex_divisor,
    volume_difference,
)

# ovals are traced at these settings everywhere a criterion needs them; the
# reduced seed count is enough for d <= 4 curves inside a pad-2 window
TRACE = dict(n_seed=160, max_steps=2500)


def _model(kind):
    if kind == "line":
        return characteristic_polynomial(EdgeWeights.uniform(1))
    if kind == "u2":
        return characteristic_polynomial(EdgeWeights.uniform(2))
    if kind == "u3":
        return characteristic_polynomial(EdgeWeights.uniform(3))
    if kind == "rand3":
        return characteristic_polynomial(EdgeWeights.random(3, np.random.default_rng(19)))
    raise KeyError(kind)


# --- c01: uniform-weight spectral curve factors into cube-root lines -------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_c01_uniform_product_formula(d):
    poly = characteristic_polynomial(EdgeWeights.uniform(d))
    eps = np.exp(2j * np.pi / d)
    rng = np.random.default_rng(100 + d)
    pts = rng.standard_normal((20, 4))
    sign = 0.0
    for xr, xi, yr, yi in pts:
        z = complex(xr, xi)
        w = complex(yr, yi)
        lhs = poly(z**d, w**d)
        rhs = np.prod([eps**i * z + eps**j * w + 1.0 for i in range(d) for j in range(d)])
        if sign == 0.0:
            sign = 1.0 if abs(lhs - rhs) < abs(lhs + rhs) else -1.0
        assert abs(lhs - sign * rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1.0)


# --- c02: axis intercepts equal the zig-zag alternating products ------------


def test_c02_boundary_vs_zigzag_random():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 5))
        weights = EdgeWeights.random(d, rng)
        comparison = verify_boundary_vs_zigzag(weights)
        worst = max(worst, comparison.max_rel_error)
        assert comparison.passed()
    assert worst < 1e-8


def test_c02_uniform_triple_multiplicity():
    # uniform d=3 collapses each intercept family to one triple root at -1
    bp = boundary_points(characteristic_polynomial(EdgeWeights.uniform(3)))
    for family in (bp.on_w0, bp.on_z0, bp.at_inf):
        assert_allclose(np.sort(family), [-1.0, -1.0, -1.0], atol=1e-9)


# --- c03: amoeba area against pi^2 d^2 / 2 ----------------------------------


@pytest.mark.parametrize("d", [1, 2])
def test_c03_amoeba_area(d):
    poly = characteristic_polynomial(EdgeWeights.uniform(d))
    target = math.pi**2 * d**2 / 2.0
    assert abs(amoeba_area(poly) - target) < 1e-9 * target


# --- c04: Monge-Ampere measure of the Ronkin function -----------------------


@pytest.mark.parametrize("kind", ["line", "rand3"])
def test_c04_monge_ampere_density(kind, interior_sampler):
    poly = _model(kind)
    points = interior_sampler(poly, 20, seed=5, margin=0.25)
    fine = [abs(monge_ampere_residual(poly, x, y, h=1e-2)) for x, y in points]
    coarse = [abs(monge_ampere_residual(poly, x, y, h=2e-2)) for x, y in points]
    assert float(np.median(fine)) < 5e-3
    # central differences: quartering the residual when h halves, with slack
    assert float(np.median(coarse)) / float(np.median(fine)) > 2.0


# --- c05: Ronkin value against an independent quadrature --------------------


def test_c05_ronkin_oracle(line_poly):
    value = ronkin(line_poly, 0.0, 0.0)
    assert abs(value - 0.323065947219) < 1e-9

    def integrand(psi, phi):
        return math.log(abs(1.0 + np.exp(1j * phi) + np.exp(1j * psi)))

    live, _ = integrate.dblquad(
        integrand, 0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi, epsabs=1e-9, epsrel=1e-9
    )
    assert abs(value - live / (2.0 * math.pi) ** 2) < 1e-6


# --- c06: the amoeba map is 2-to-1 over interior points ---------------------


@pytest.mark.parametrize("kind", ["line", "u2", "rand3"])
def test_c06_two_to_one(kind, interior_sampler):
    poly = _model(kind)
    for x, y in interior_sampler(poly, 10, seed=6, margin=0.25):
        assert two_to_one_check(poly, x, y) == 2


# --- c07: hole census agrees with the traced real ovals ---------------------

_GENUS_RNG = np.random.default_rng(2026)
GENUS_MODELS = [EdgeWeights.random(3, _GENUS_RNG) for _ in range(30)]


@pytest.mark.parametrize("idx", range(30))
def test_c07_holes_match_ovals(idx):
    poly = characteristic_polynomial(GENUS_MODELS[idx])
    report = detect_holes(poly)
    assert report.genus in (0, 1)
    assert report.candidate_nodes == []
    assert all(hole.order == (1, 1) for hole in report.holes)
    ovals = trace_real_ovals(poly, window=auto_window(poly, pad=2.0), **TRACE)
    closed = sum(1 for oval in ovals if oval.closed)
    assert closed == report.genus


# --- c08: boundary-data round trip ------------------------------------------


def _angle_gap(u, v):
    return float(np.max(np.abs(np.mod(u - v + np.pi, 2.0 * np.pi) - np.pi)))


def test_c08_boundary_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        curve = Genus0Curve.random(d, rng)
        reference = align_canonical(curve)
        recovered, stats = invert_boundary(boundary_map(curve), with_stats=True)
        assert stats["steps"] <= 30
        err = max(
            _angle_gap(recovered.alpha, reference.alpha),
            _angle_gap(recovered.beta, reference.beta),
            _angle_gap(recovered.gamma, reference.gamma),
            abs(recovered.rho_z - reference.rho_z),
            abs(recovered.rho_w - reference.rho_w),
        )
        assert err < 1e-8


# --- c09: structure of the boundary-map Jacobian -----------------------------


def test_c09_jacobian_structure():
    rng = np.random.default_rng(23)
    for d in (2, 3, 4):
        curve = Genus0Curve.random(d, rng)
        jac = jacobian_logABC(curve)
        scale = float(np.max(np.abs(jac)))
        assert float(np.max(np.abs(jac - jac.T))) < 1e-12 * max(1.0, scale)

        ones, coords = jacobian_kernel_vectors(curve)
        coord_scale = scale * float(np.max(np.abs(coords)))
        assert float(np.max(np.abs(jac @ ones))) < 1e-9 * scale
        assert float(np.max(np.abs(jac @ coords))) < 1e-9 * coord_scale

        fd = _fd_jacobian(curve, 1e-6)
        assert float(np.max(np.abs(fd - jac))) < 1e-6 * max(1.0, scale)

        # every elementary interaction block is rank one with a positive
        # eigenvalue, which is what makes the full Jacobian semidefinite
        blocks = jacobian_blocks(curve)
        assert blocks.shape == (d, d, d, 3, 3)
        # the Jacobian is the sum of the blocks over d, block (i, j, k)
        # acting on the columns of (alpha_i, gamma_j, beta_k)
        cols = np.stack(np.meshgrid(np.arange(d), d + np.arange(d), 2 * d + np.arange(d),
                                    indexing="ij"), axis=-1)
        summed = np.zeros((3 * d, 3 * d))
        np.add.at(summed, (cols[..., :, None], cols[..., None, :]), blocks / d)
        assert float(np.max(np.abs(summed - jac))) < 1e-12 * scale
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    eigs = np.linalg.eigvalsh(blocks[i, j, k])
                    lead = eigs[np.argmax(np.abs(eigs))]
                    rest = np.sort(np.abs(eigs))[:2]
                    assert lead > 0.0
                    assert float(rest[-1]) < 1e-9 * lead


def _fd_jacobian(curve, step):
    """Central differences of the chart boundary map, column by column."""
    from harnack.genus0 import chart_log_boundary, line_chart

    d = curve.d
    ta, tc, tb, _ = line_chart(curve)
    packed = np.concatenate([ta, tc, tb])

    def value(vec):
        return chart_log_boundary(vec[:d], vec[d : 2 * d], vec[2 * d :])

    out = np.zeros((3 * d, 3 * d))
    for col in range(3 * d):
        plus = packed.copy()
        minus = packed.copy()
        plus[col] += step
        minus[col] -= step
        out[:, col] = (value(plus) - value(minus)) / (2.0 * step)
    return out


# --- c10: isoradial embeddings land on the sine-quotient curve ---------------


def test_c10_isoradial_correspondence():
    rng = np.random.default_rng(31)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        angles = IsoradialAngles.random(d, rng)
        report = isoradial_spectral_check(angles)
        assert report.residual < 1e-8
        assert report.on_curve
        assert report.origin_in_amoeba


# --- c11: the vertex divisor is standard -------------------------------------

_DIVISOR_RNG = np.random.default_rng(41)
DIVISOR_MODELS = [EdgeWeights.random(3, _DIVISOR_RNG) for _ in range(10)]


@pytest.mark.parametrize("idx", range(10))
def test_c11_standard_divisor(idx):
    weights = DIVISOR_MODELS[idx]
    poly = characteristic_polynomial(weights)
    ovals = trace_real_ovals(poly, window=auto_window(poly, pad=2.0), **TRACE)
    for i in range(3):
        for j in range(3):
            divisor = vertex_divisor(weights, (i, j), ovals=ovals)
            assert len(divisor) == 1
            assert is_standard_divisor(divisor, ovals)


def test_c11_degree_two_divisor_is_empty():
    weights = EdgeWeights.random(2, np.random.default_rng(42))
    poly = characteristic_polynomial(weights)
    ovals = trace_real_ovals(poly, window=auto_window(poly, pad=2.0), **TRACE)
    assert vertex_divisor(weights, (0, 1), ovals=ovals) == []


# --- c12: characteristic polynomials minimize enclosed volume ----------------


def test_c12_volume_minimization(u3_poly):
    coeffs = u3_poly.coeffs.copy()
    coeffs[1, 1] *= 1.01
    perturbed = BivariatePolynomial(3, coeffs)
    # the united real point (1, 1) opens into a genuine interior hole
    report = detect_holes(perturbed)
    assert report.genus == 1
    assert report.holes[0].order == (1, 1)
    gain = volume_difference(perturbed, u3_poly)
    assert gain > 0.0
    assert abs(gain - 0.1227549) < 1e-4


def test_c12_opposite_direction_leaves_family(u3_poly):
    # pushing the coefficient the other way produces no hole at (1, 1), so
    # that side is not admissible and carries no volume comparison
    coeffs = u3_poly.coeffs.copy()
    coeffs[1, 1] *= 0.99
    report = detect_holes(BivariatePolynomial(3, coeffs))
    assert report.genus == 0
    assert report.holes == []


# --- c13: hole areas respond monotonically to one coefficient ----------------


def test_c13_variational_shrink():
    weights = EdgeWeights.random(4, np.random.default_rng(3))
    base = characteristic_polynomial(weights)
    window = auto_window(base)
    grid0 = rasterize_amoeba(base, window=window, nx=360, ny=360)
    report0 = detect_holes(base, grid=grid0)
    assert report0.genus == 3
    assert sorted(h.order for h in report0.holes) == [(1, 1), (1, 2), (2, 1)]

    coeffs = base.coeffs.copy()
    coeffs[1, 1] *= 0.95
    lowered = BivariatePolynomial(4, coeffs)
    grid1 = rasterize_amoeba(lowered, window=window, nx=360, ny=360)
    report1 = detect_holes(lowered, grid=grid1)

    px0 = {h.order: h.pixel_count for h in report0.holes}
    px1 = {h.order: h.pixel_count for h in report1.holes}
    assert px1[(1, 1)] < px0[(1, 1)]
    for order in ((1, 2), (2, 1)):
        # the raster can jitter by a pixel; everything else must not shrink
        assert px1[order] >= px0[order] - 1
