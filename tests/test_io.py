"""JSON round trips, canonical float policy, PGM and SVG writers."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from harnack import (
    EdgeWeights,
    Genus0Curve,
    IsoradialAngles,
    all_vertex_divisors,
    auto_window,
    boundary_map,
    detect_holes,
    rasterize_amoeba,
    verify_harnack,
)
from harnack import io as hio
from harnack.kasteleyn import characteristic_polynomial


class TestCanonicalFloat:
    def test_rounds_to_twelve_significant_digits(self):
        assert hio.canonical_float(0.1234567890123456789) == 0.123456789012
        assert hio.canonical_float(123456789012345.0) == 123456789012000.0

    def test_small_and_signed_zero(self):
        assert hio.canonical_float(1e-17) == 1e-17
        assert hio.canonical_float(0.0) == 0.0

    def test_dumps_json_format(self):
        text = hio.dumps_json({"b": 1, "a": np.float64(2.5)})
        assert text == '{\n  "b": 1,\n  "a": 2.5\n}\n'
        assert text.endswith("\n")


class TestRoundTrips:
    def test_weights(self):
        weights = EdgeWeights.random(3, np.random.default_rng(0))
        back = hio.weights_from_json(json.loads(hio.dumps_json(hio.weights_to_json(weights))))
        assert back.d == weights.d
        assert_allclose(back.a, weights.a, rtol=1e-11)
        assert_allclose(back.b, weights.b, rtol=1e-11)
        assert_allclose(back.c, weights.c, rtol=1e-11)

    def test_poly(self):
        poly = characteristic_polynomial(EdgeWeights.random(2, np.random.default_rng(1)))
        back = hio.poly_from_json(json.loads(hio.dumps_json(hio.poly_to_json(poly))))
        assert_allclose(back.coeffs, poly.coeffs, rtol=1e-11, atol=1e-14)

    def test_poly_entries_sorted_and_sparse(self):
        poly = characteristic_polynomial(EdgeWeights.uniform(2))
        entries = hio.poly_to_json(poly)["coeffs"]
        pairs = [(e["i"], e["j"]) for e in entries]
        assert pairs == sorted(pairs)
        assert all(e["v"] != 0.0 for e in entries)
        # upper anti-triangle of the support is identically zero
        assert (2, 2) not in pairs

    def test_curve(self):
        curve = Genus0Curve.random(3, np.random.default_rng(2))
        back = hio.curve_from_json(json.loads(hio.dumps_json(hio.curve_to_json(curve))))
        assert_allclose(back.alpha, curve.alpha, atol=1e-11)
        assert_allclose(back.beta, curve.beta, atol=1e-11)
        assert_allclose(back.gamma, curve.gamma, atol=1e-11)
        assert back.rho_z == pytest.approx(curve.rho_z, rel=1e-11)

    def test_angles(self):
        angles = IsoradialAngles.random(2, np.random.default_rng(3))
        back = hio.angles_from_json(json.loads(hio.dumps_json(hio.angles_to_json(angles))))
        assert_allclose(back.alpha, angles.alpha, atol=1e-11)

    def test_triple(self):
        triple = boundary_map(Genus0Curve.random(2, np.random.default_rng(4)))
        back = hio.triple_from_json(json.loads(hio.dumps_json(hio.triple_to_json(triple))))
        assert_allclose(back.A, triple.A, rtol=1e-11)
        assert_allclose(back.B, triple.B, rtol=1e-11)
        assert_allclose(back.C, triple.C, rtol=1e-11)


class TestReports:
    def test_divisor_entries(self):
        weights = EdgeWeights(1, [[2.0]], [[3.0]], [[5.0]])
        data = hio.divisor_to_json(all_vertex_divisors(weights)[(0, 0)])
        assert data == []

    def test_hole_report_shape(self):
        poly = characteristic_polynomial(EdgeWeights.uniform(1))
        data = hio.hole_report_to_json(detect_holes(poly))
        assert data == {"genus": 0, "holes": [], "candidate_nodes": []}

    def test_certificate_shape(self):
        cert = verify_harnack(characteristic_polynomial(EdgeWeights.uniform(1)))
        data = hio.certificate_to_json(cert)
        assert data["passed"] is True
        assert list(data["checks"].keys()) == sorted(data["checks"].keys())
        assert list(data["details"].keys()) == sorted(data["details"].keys())
        assert list(data["details"]) == [
            "area", "area_target", "candidate_nodes", "compact_ovals", "genus", "two_to_one_counts",
        ]


@pytest.fixture(scope="module")
def small_grid():
    poly = characteristic_polynomial(EdgeWeights.uniform(1))
    window = auto_window(poly, pad=1.0)
    return poly, rasterize_amoeba(poly, window=window, nx=24, ny=16)


class TestImages:
    def test_pgm_layout(self, small_grid, tmp_path):
        _, grid = small_grid
        path = tmp_path / "amoeba.pgm"
        hio.write_pgm(grid, str(path))
        raw = path.read_bytes()
        header = b"P5\n24 16\n255\n"
        assert raw.startswith(header)
        pixels = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(16, 24)
        expected = np.where(grid.membership, 0, 255).astype(np.uint8)
        # image rows run top-down while the grid's y axis runs bottom-up
        assert np.array_equal(pixels, expected[::-1])

    def test_svg_content(self, small_grid, tmp_path):
        poly, grid = small_grid
        path = tmp_path / "amoeba.svg"
        hio.write_svg(grid, detect_holes(poly), str(path))
        text = path.read_text()
        assert text.startswith("<svg")
        assert "#2a6f97" in text  # amoeba run color
        assert "#c1121f" not in text  # no holes on the genus-zero curve

    def test_svg_marks_holes(self, tmp_path):
        weights = EdgeWeights.uniform(3)
        coeffs = characteristic_polynomial(weights).coeffs.copy()
        coeffs[1, 1] *= 1.01
        from harnack.kasteleyn import BivariatePolynomial

        poly = BivariatePolynomial(3, coeffs)
        report = detect_holes(poly)
        assert report.genus == 1
        grid = rasterize_amoeba(poly, window=auto_window(poly, pad=1.5), nx=180, ny=180)
        path = tmp_path / "holes.svg"
        hio.write_svg(grid, report, str(path))
        text = path.read_text()
        assert "#c1121f" in text
        assert "(1,1)" in text and "area=" in text and "intercept=" in text
