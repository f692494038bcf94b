"""End-to-end command-line checks, run in process through main()."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from harnack import EdgeWeights, Genus0Curve, IsoradialAngles, boundary_map, sample_interior
from harnack import io as hio
from harnack.cli import main
from harnack.kasteleyn import BivariatePolynomial, characteristic_polynomial
from harnack.numerics import QuadratureResult

SUBCOMMANDS = [
    "spectral",
    "boundary",
    "amoeba",
    "ronkin",
    "ma-check",
    "holes",
    "verify-harnack",
    "genus0-fit",
    "isoradial",
    "divisor",
    "volume-diff",
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_weights(path, weights):
    path.write_text(hio.dumps_json(hio.weights_to_json(weights)))
    return str(path)


def write_poly(path, poly):
    path.write_text(hio.dumps_json(hio.poly_to_json(poly)))
    return str(path)


@pytest.fixture()
def line_poly_file(tmp_path):
    return write_poly(tmp_path / "line.json", characteristic_polynomial(EdgeWeights.uniform(1)))


class TestSpectral:
    def test_uniform_two_by_two(self, tmp_path, capsys):
        wfile = write_weights(tmp_path / "w.json", EdgeWeights.uniform(2))
        code, out, err = run(capsys, ["spectral", "--weights", wfile])
        assert code == 0 and err == ""
        poly = hio.poly_from_json(json.loads(out))
        assert_allclose(poly.coeffs, [[1, -2, 1], [-2, -2, 0], [1, 0, 0]], atol=1e-9)

    def test_out_file_and_determinism(self, tmp_path, capsys):
        wfile = write_weights(tmp_path / "w.json", EdgeWeights.random(2, np.random.default_rng(0)))
        out1 = tmp_path / "p1.json"
        out2 = tmp_path / "p2.json"
        assert run(capsys, ["spectral", "--weights", wfile, "--out", str(out1)])[0] == 0
        assert run(capsys, ["spectral", "--weights", wfile, "--out", str(out2)])[0] == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestBoundary:
    def test_uniform_three_by_three_agrees(self, tmp_path, capsys):
        wfile = write_weights(tmp_path / "w.json", EdgeWeights.uniform(3))
        code, out, _ = run(capsys, ["boundary", "--weights", wfile])
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert payload["max_rel_discrepancy"] < 1e-8
        assert payload["curve_roots"]["on_w0"] == payload["zigzag_products"]["horizontal"]


class TestAmoeba:
    def test_pgm_output_is_repeatable(self, tmp_path, capsys, line_poly_file):
        out1 = tmp_path / "a1.pgm"
        out2 = tmp_path / "a2.pgm"
        code, out, _ = run(
            capsys, ["amoeba", "--poly", line_poly_file, "--grid", "48", "--out", str(out1)]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["nx"] == 48 and payload["ny"] == 48
        assert payload["area"] > 0
        assert out1.read_bytes().startswith(b"P5\n48 48\n255\n")
        code, _, _ = run(
            capsys,
            ["amoeba", "--poly", line_poly_file, "--grid", "48", "--out", str(out2)],
        )
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_svg_adds_genus(self, tmp_path, capsys, line_poly_file):
        svg = tmp_path / "a.svg"
        code, out, _ = run(
            capsys,
            ["amoeba", "--poly", line_poly_file, "--grid", "48", "--out",
             str(tmp_path / "a.pgm"), "--svg", str(svg)],
        )
        assert code == 0
        assert json.loads(out)["genus"] == 0
        assert svg.read_text().startswith("<svg")

    def test_window_must_have_positive_extent(self, tmp_path, capsys, line_poly_file):
        code, _, err = run(
            capsys,
            ["amoeba", "--poly", line_poly_file, "--grid", "16", "--window", "1,0,0,1",
             "--out", str(tmp_path / "a.pgm")],
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["kind"] == "invalid"
        assert "positive extent" in payload["error"]

    def test_window_needs_four_numbers(self, tmp_path, capsys, line_poly_file):
        code, _, err = run(
            capsys,
            ["amoeba", "--poly", line_poly_file, "--window", "0,1,0",
             "--out", str(tmp_path / "a.pgm")],
        )
        assert code == 1
        assert "x0,x1,y0,y1" in json.loads(err)["error"]


class TestRonkin:
    def test_value_at_origin(self, capsys, line_poly_file):
        code, out, _ = run(capsys, ["ronkin", "--poly", line_poly_file, "--at", "0,0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.323065947219, abs=1e-9)

    def test_affine_slope_outside(self, capsys, line_poly_file):
        code, out, _ = run(capsys, ["ronkin", "--poly", line_poly_file, "--at", "3,0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["gradient"] == [1.0, 0.0]
        assert payload["value"] == pytest.approx(3.0, abs=1e-9)

    def test_unconverged_quadrature_exits_two(self, capsys, line_poly_file, monkeypatch):
        stalled = lambda f, kinks, tol=1e-11, max_rounds=30: QuadratureResult(0.0, 48, False)
        monkeypatch.setattr("harnack.amoeba.integrate_periodic_kinked", stalled)
        code, out, err = run(capsys, ["ronkin", "--poly", line_poly_file, "--at", "0,0"])
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["kind"] == "no-convergence"
        assert "Ronkin quadrature" in payload["error"]


class TestMaCheck:
    def test_residuals_small_and_seeded(self, capsys, line_poly_file, monkeypatch):
        monkeypatch.setenv("HARNACK_SEED", "4")
        code, out1, _ = run(capsys, ["ma-check", "--poly", line_poly_file, "--points", "3"])
        assert code == 0
        payload = json.loads(out1)
        assert len(payload["points"]) == 3
        assert payload["max_abs_residual"] < 0.05
        _, out2, _ = run(capsys, ["ma-check", "--poly", line_poly_file, "--points", "3"])
        assert out1 == out2
        monkeypatch.setenv("HARNACK_SEED", "5")
        _, out3, _ = run(capsys, ["ma-check", "--poly", line_poly_file, "--points", "3"])
        assert json.loads(out3)["points"] != payload["points"]

    @pytest.fixture()
    def d2_poly_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HARNACK_SEED", "1")
        poly = characteristic_polynomial(EdgeWeights.random(2, np.random.default_rng(5)))
        pfile = write_poly(tmp_path / "p2.json", poly)
        # the command reads the rounded JSON copy, so the sampler gets it too
        return hio.poly_from_json(json.loads((tmp_path / "p2.json").read_text())), pfile

    @pytest.mark.parametrize("step", ["0.05", "0.1"])
    def test_coarse_step_samples_points_that_fit_its_ring(self, capsys, d2_poly_file, step):
        # the 3 * step ring that each residual checks is wider than the
        # sampler's axis margin; the sampled points must still pass it
        _, pfile = d2_poly_file
        code, out, err = run(capsys, ["ma-check", "--poly", pfile, "--points", "4", "--step", step])
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert len(payload["points"]) == 4
        assert payload["step"] == float(step)

    def test_default_step_keeps_the_sampled_points(self, capsys, d2_poly_file):
        # every point of the plain sampler already fits the 0.03 ring here,
        # so requiring it changes nothing at the default step
        poly, pfile = d2_poly_file
        code, out, _ = run(capsys, ["ma-check", "--poly", pfile, "--points", "4"])
        assert code == 0
        expected = sample_interior(poly, 4, np.random.default_rng(1))
        assert json.loads(out)["points"] == json.loads(hio.dumps_json([[x, y] for x, y in expected]))


class TestHoles:
    def test_opened_hole_reported(self, tmp_path, capsys):
        base = characteristic_polynomial(EdgeWeights.uniform(3))
        coeffs = base.coeffs.copy()
        coeffs[1, 1] *= 1.01
        pfile = write_poly(tmp_path / "p.json", BivariatePolynomial(3, coeffs))
        code, out, _ = run(capsys, ["holes", "--poly", pfile])
        assert code == 0
        payload = json.loads(out)
        assert payload["genus"] == 1
        assert len(payload["holes"]) == 1
        assert payload["holes"][0]["order"] == [1, 1]
        assert payload["holes"][0]["area"] > 0


class TestVerifyHarnack:
    def test_single_cell_passes(self, capsys, line_poly_file):
        code, out, _ = run(capsys, ["verify-harnack", "--poly", line_poly_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(payload["checks"].values())

    def test_squeezed_curve_fails(self, tmp_path, capsys):
        base = characteristic_polynomial(EdgeWeights.uniform(3))
        coeffs = base.coeffs.copy()
        coeffs[1, 1] *= 0.90
        pfile = write_poly(tmp_path / "p.json", BivariatePolynomial(3, coeffs))
        code, out, _ = run(capsys, ["verify-harnack", "--poly", pfile])
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["checks"]["area"] is False


class TestGenus0Fit:
    def test_round_trip(self, tmp_path, capsys):
        curve = Genus0Curve.random(2, np.random.default_rng(8))
        target = boundary_map(curve)
        bfile = tmp_path / "triple.json"
        bfile.write_text(hio.dumps_json(hio.triple_to_json(target)))
        cfile = tmp_path / "curve.json"
        code, out, _ = run(capsys, ["genus0-fit", "--boundary", str(bfile), "--out", str(cfile)])
        assert code == 0
        stats = json.loads(out)
        assert stats["steps"] <= 30
        assert stats["residual"] < 1e-10
        fitted = hio.curve_from_json(json.loads(cfile.read_text()))
        back = boundary_map(fitted)
        assert_allclose(np.sort(back.A), np.sort(target.A), rtol=1e-8)
        assert_allclose(np.sort(back.C), np.sort(target.C), rtol=1e-8)

    def test_bad_sign_pattern_rejected(self, tmp_path, capsys):
        curve = Genus0Curve.random(2, np.random.default_rng(8))
        data = hio.triple_to_json(boundary_map(curve))
        data["A"] = [-a for a in data["A"]]  # constant sign, but the wrong one
        bfile = tmp_path / "triple.json"
        bfile.write_text(hio.dumps_json(data))
        code, _, err = run(capsys, ["genus0-fit", "--boundary", str(bfile)])
        assert code == 1
        payload = json.loads(err)
        assert payload["kind"] == "invalid"
        assert "sign pattern not realizable" in payload["error"]


class TestIsoradial:
    def test_check_passes(self, tmp_path, capsys):
        angles = IsoradialAngles.random(2, np.random.default_rng(9))
        afile = tmp_path / "angles.json"
        afile.write_text(hio.dumps_json(hio.angles_to_json(angles)))
        wfile = tmp_path / "weights.json"
        code, out, _ = run(
            capsys, ["isoradial", "--angles", str(afile), "--weights-out", str(wfile), "--check"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["on_curve"] is True
        assert payload["origin_in_amoeba"] is True
        weights = hio.weights_from_json(json.loads(wfile.read_text()))
        assert weights.d == 2
        assert np.all(weights.a > 0)


class TestDivisor:
    def test_single_cell_is_empty(self, tmp_path, capsys):
        wfile = write_weights(tmp_path / "w.json", EdgeWeights(1, [[2.0]], [[3.0]], [[5.0]]))
        code, out, _ = run(capsys, ["divisor", "--weights", wfile, "--vertex", "0,0"])
        assert code == 0
        assert out == "[]\n"

    def test_singular_curve_reports_no_convergence(self, tmp_path, capsys):
        # the uniform 3x3 curve has a node; the oval chase cannot meet its quota
        wfile = write_weights(tmp_path / "w.json", EdgeWeights.uniform(3))
        code, _, err = run(capsys, ["divisor", "--weights", wfile, "--vertex", "0,0"])
        assert code == 2
        payload = json.loads(err)
        assert payload["kind"] == "no-convergence"
        assert "divisor count mismatch" in payload["error"]

    def test_vertex_parse_error(self, tmp_path, capsys):
        wfile = write_weights(tmp_path / "w.json", EdgeWeights.uniform(2))
        code, _, err = run(capsys, ["divisor", "--weights", wfile, "--vertex", "1"])
        assert code == 1
        assert "vertex must be i,j" in json.loads(err)["error"]

    def test_vertex_domain_error(self, tmp_path, capsys):
        wfile = write_weights(tmp_path / "w.json", EdgeWeights.uniform(2))
        code, _, err = run(capsys, ["divisor", "--weights", wfile, "--vertex", "5,0"])
        assert code == 1
        assert "outside the 2x2 fundamental domain" in json.loads(err)["error"]


class TestVolumeDiff:
    def test_identical_curves(self, tmp_path, capsys):
        pfile = write_poly(
            tmp_path / "p.json", characteristic_polynomial(EdgeWeights.uniform(2))
        )
        code, out, _ = run(capsys, ["volume-diff", "--poly1", pfile, "--poly2", pfile])
        assert code == 0
        assert abs(json.loads(out)["volume_difference"]) < 1e-9


class TestErrorPaths:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_help_exits_zero(self, capsys, name):
        assert main([name, "--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["amoeba", "--grid", "0", "--out", "a.pgm"],
            ["holes", "--grid", "0"],
            ["holes", "--grid", "-3"],
            ["verify-harnack", "--resolution", "0"],
            ["ma-check", "--points", "0"],
            ["ma-check", "--step", "0"],
            ["ma-check", "--step", "nan"],
            ["ma-check", "--step", "x"],
        ],
    )
    def test_non_positive_sizes_rejected(self, capsys, line_poly_file, argv):
        code, out, err = run(capsys, [argv[0], "--poly", line_poly_file, *argv[1:]])
        assert code == 1 and out == ""
        payload = json.loads(err.splitlines()[-1])
        assert payload["kind"] == "invalid"
        assert "must be a positive" in payload["error"]

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1
        assert json.loads(err.splitlines()[-1])["kind"] == "invalid"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["spectral", "--weights", str(tmp_path / "nope.json")])
        assert code == 1
        assert "file not found" in json.loads(err)["error"]

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, ["spectral", "--weights", str(bad)])
        assert code == 1
        assert "malformed JSON" in json.loads(err)["error"]

    def test_missing_key(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d": 2, "a": [[1.0, 1.0], [1.0, 1.0]]}')
        code, _, err = run(capsys, ["spectral", "--weights", str(bad)])
        assert code == 1
        assert "malformed input" in json.loads(err)["error"]
