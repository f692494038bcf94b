"""Command-line entry points.

Exit codes: 0 success, 1 invalid input (including a failed certificate),
2 numerical non-convergence. Errors go to stderr as one-line JSON objects
{"error": message, "kind": "invalid" | "no-convergence"}. All stdout and file
output is canonical JSON (see io.py), so repeated runs are byte-identical.
The HARNACK_SEED environment variable fixes every randomized sample.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import io as hio
from .amoeba import (
    amoeba_area,
    detect_holes,
    gradient_ronkin,
    monge_ampere_residual,
    rasterize_amoeba,
    ronkin,
    sample_interior,
    verify_harnack,
    volume_difference,
)
from .divisor import vertex_divisor
from .genus0 import (
    invert_boundary,
    isoradial_spectral_check,
    isoradial_weights,
    validate_boundary_triple,
)
from .kasteleyn import boundary_points, characteristic_polynomial, verify_boundary_vs_zigzag
from .lattice import all_zigzag_products

__all__ = ["main"]


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": message, "kind": kind}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Argument errors are validation errors: JSON on stderr, exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _emit_error("invalid", message)
        raise SystemExit(1)


def _seed() -> int:
    raw = os.environ.get("HARNACK_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"HARNACK_SEED must be an integer, got {raw!r}")


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _positive(kind):
    """argparse type: a finite number of ``kind`` above zero."""

    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            value = None
        if value is None or not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a positive {kind.__name__}, got {raw!r}")
        return value

    return parse


def _parse_window(raw: str):
    if raw == "auto":
        return None
    parts = raw.split(",")
    if len(parts) != 4:
        raise ValueError("window must be 'auto' or x0,x1,y0,y1")
    x0, x1, y0, y1 = (float(p) for p in parts)
    if x1 <= x0 or y1 <= y0:
        raise ValueError("window must have positive extent")
    return (x0, x1, y0, y1)


def _parse_point(raw: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError("point must be x,y")
    return float(parts[0]), float(parts[1])


# ---------------------------------------------------------------- commands


def _cmd_spectral(args) -> int:
    weights = hio.weights_from_json(_load(args.weights))
    poly = characteristic_polynomial(weights)
    _output(hio.dumps_json(hio.poly_to_json(poly)), args.out)
    return 0


def _cmd_boundary(args) -> int:
    weights = hio.weights_from_json(_load(args.weights))
    comparison = verify_boundary_vs_zigzag(weights)
    bp = boundary_points(characteristic_polynomial(weights))
    zz = all_zigzag_products(weights)
    payload = {
        "d": weights.d,
        "curve_roots": {
            "on_w0": sorted(bp.on_w0.tolist()),
            "on_z0": sorted(bp.on_z0.tolist()),
            "at_inf": sorted(bp.at_inf.tolist()),
        },
        "zigzag_products": {
            "horizontal": sorted(zz["horizontal"].tolist()),
            "vertical": sorted(zz["vertical"].tolist()),
            "nw_se": sorted(zz["nw-se"].tolist()),
        },
        "max_rel_discrepancy": comparison.max_rel_error,
        "agree": comparison.passed(),
    }
    _output(hio.dumps_json(payload), None)
    return 0 if comparison.passed() else 1


def _cmd_amoeba(args) -> int:
    poly = hio.poly_from_json(_load(args.poly))
    window = _parse_window(args.window)
    grid = rasterize_amoeba(poly, window=window, nx=args.grid, ny=args.grid)
    hio.write_pgm(grid, args.out)
    report = None
    if args.svg is not None:
        report = detect_holes(poly, grid=grid)
        hio.write_svg(grid, report, args.svg)
    est = amoeba_area(grid)
    payload = {
        "window": list(grid.window),
        "nx": grid.nx,
        "ny": grid.ny,
        "area": est.value,
        "area_error_bar": est.error_bar,
        "frame_warning": est.frame_warning,
    }
    if report is not None:
        payload["genus"] = report.genus
    _output(hio.dumps_json(payload), None)
    return 0


def _cmd_ronkin(args) -> int:
    poly = hio.poly_from_json(_load(args.poly))
    x, y = _parse_point(args.at)
    value = ronkin(poly, x, y)
    gx, gy = gradient_ronkin(poly, x, y)
    payload = {"x": x, "y": y, "value": value, "gradient": [gx, gy]}
    _output(hio.dumps_json(payload), None)
    return 0


def _cmd_ma_check(args) -> int:
    poly = hio.poly_from_json(_load(args.poly))
    rng = np.random.default_rng(_seed())
    # only points whose 3h ring passes monge_ampere_residual's check
    points = sample_interior(poly, args.points, rng, ring=3 * args.step)
    residuals = [
        monge_ampere_residual(poly, x, y, h=args.step) for x, y in points
    ]
    abs_res = np.abs(residuals)
    payload = {
        "points": [[x, y] for x, y in points],
        "step": args.step,
        "residuals": residuals,
        "median_abs_residual": float(np.median(abs_res)),
        "max_abs_residual": float(abs_res.max()),
    }
    _output(hio.dumps_json(payload), None)
    return 0


def _cmd_holes(args) -> int:
    poly = hio.poly_from_json(_load(args.poly))
    report = detect_holes(poly, nx=args.grid)
    _output(hio.dumps_json(hio.hole_report_to_json(report)), None)
    return 0


def _cmd_verify_harnack(args) -> int:
    poly = hio.poly_from_json(_load(args.poly))
    cert = verify_harnack(poly, resolution=args.resolution, seed=_seed())
    _output(hio.dumps_json(hio.certificate_to_json(cert)), None)
    return 0 if cert.passed else 1


def _cmd_genus0_fit(args) -> int:
    triple = hio.triple_from_json(_load(args.boundary))
    validate_boundary_triple(triple)
    curve, stats = invert_boundary(triple, with_stats=True)
    _output(hio.dumps_json(hio.curve_to_json(curve)), args.out)
    if args.out is not None:
        _output(hio.dumps_json({"steps": stats["steps"],
                                "residual": stats["residual"]}), None)
    return 0


def _cmd_isoradial(args) -> int:
    angles = hio.angles_from_json(_load(args.angles))
    weights = isoradial_weights(angles)
    _output(hio.dumps_json(hio.weights_to_json(weights)), args.weights_out)
    if args.check:
        report = isoradial_spectral_check(angles)
        payload = {
            "residual": report.residual,
            "on_curve": report.on_curve,
            "origin_in_amoeba": report.origin_in_amoeba,
        }
        _output(hio.dumps_json(payload), None)
        if not (report.on_curve and report.origin_in_amoeba):
            return 1
    return 0


def _cmd_divisor(args) -> int:
    weights = hio.weights_from_json(_load(args.weights))
    parts = args.vertex.split(",")
    if len(parts) != 2:
        raise ValueError("vertex must be i,j")
    i, j = int(parts[0]), int(parts[1])
    if not (0 <= i < weights.d and 0 <= j < weights.d):
        raise ValueError(f"vertex ({i},{j}) outside the {weights.d}x{weights.d} fundamental domain")
    points = vertex_divisor(weights, (i, j))
    _output(hio.dumps_json(hio.divisor_to_json(points)), None)
    return 0


def _cmd_volume_diff(args) -> int:
    poly1 = hio.poly_from_json(_load(args.poly1))
    poly2 = hio.poly_from_json(_load(args.poly2))
    value = volume_difference(poly1, poly2)
    _output(hio.dumps_json({"volume_difference": value}), None)
    return 0


# ---------------------------------------------------------------- parser


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="harnack",
        description="Spectral curves of periodic bipartite dimer models: "
        "characteristic polynomials, amoebas, Ronkin functions, and the "
        "genus-zero / isoradial correspondence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectral", help="characteristic polynomial det K from edge weights")
    p.add_argument("--weights", required=True, help="weights JSON file")
    p.add_argument("--out", default=None, help="output polynomial JSON (default stdout)")
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("boundary", help="boundary points: curve roots vs zig-zag products")
    p.add_argument("--weights", required=True, help="weights JSON file")
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("amoeba", help="raster the amoeba to a PGM image")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--grid", type=_positive(int), default=600, help="pixels per side (default 600)")
    p.add_argument("--window", default="auto", help="'auto' or x0,x1,y0,y1")
    p.add_argument("--out", required=True, help="output PGM (P5) file")
    p.add_argument("--svg", default=None, help="also write an SVG with labeled holes")
    p.set_defaults(func=_cmd_amoeba)

    p = sub.add_parser("ronkin", help="Ronkin function value and gradient at a point")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--at", required=True, help="evaluation point x,y")
    p.set_defaults(func=_cmd_ronkin)

    p = sub.add_parser("ma-check", help="Monge-Ampere residual at random interior points")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--points", type=_positive(int), default=20, help="number of sample points")
    p.add_argument("--step", type=_positive(float), default=1e-2, help="finite-difference step")
    p.set_defaults(func=_cmd_ma_check)

    p = sub.add_parser("holes", help="bounded amoeba complement components")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--grid", type=_positive(int), default=360, help="raster resolution")
    p.set_defaults(func=_cmd_holes)

    p = sub.add_parser("verify-harnack", help="Harnack certificate; exit 0 iff all checks pass")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--resolution", type=_positive(int), default=420, help="raster resolution")
    p.set_defaults(func=_cmd_verify_harnack)

    p = sub.add_parser("genus0-fit", help="recover angle data from a boundary triple")
    p.add_argument("--boundary", required=True, help="boundary triple JSON file")
    p.add_argument("--out", default=None, help="output curve JSON (default stdout)")
    p.set_defaults(func=_cmd_genus0_fit)

    p = sub.add_parser("isoradial", help="edge weights of an isoradial immersion")
    p.add_argument("--angles", required=True, help="angles JSON file")
    p.add_argument("--weights-out", default=None, help="output weights JSON (default stdout)")
    p.add_argument("--check", action="store_true",
                   help="verify the sine parametrization lies on the spectral curve")
    p.set_defaults(func=_cmd_isoradial)

    p = sub.add_parser("divisor", help="divisor point of one white vertex on each compact oval")
    p.add_argument("--weights", required=True, help="weights JSON file")
    p.add_argument("--vertex", required=True, help="white vertex i,j")
    p.set_defaults(func=_cmd_divisor)

    p = sub.add_parser("volume-diff", help="Ronkin volume difference of two curves")
    p.add_argument("--poly1", required=True, help="first polynomial JSON file")
    p.add_argument("--poly2", required=True, help="second polynomial JSON file")
    p.set_defaults(func=_cmd_volume_diff)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        _emit_error("invalid", f"file not found: {exc.filename}")
        return 1
    except json.JSONDecodeError as exc:
        _emit_error("invalid", f"malformed JSON: {exc}")
        return 1
    except (KeyError, TypeError) as exc:
        _emit_error("invalid", f"malformed input: {exc}")
        return 1
    except ValueError as exc:
        _emit_error("invalid", str(exc))
        return 1
    except RuntimeError as exc:
        _emit_error("no-convergence", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
