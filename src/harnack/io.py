"""Canonical JSON, PGM, and SVG serialization.

All floats pass through a 12-significant-digit normalization before JSON
encoding, and every object is emitted with a fixed field order, so identical
inputs produce byte-identical files regardless of platform or thread count.
"""

from __future__ import annotations

import json

import numpy as np

from .amoeba import AmoebaGrid, HarnackCertificate, Hole, HoleReport
from .divisor import DivisorPoint
from .genus0 import BoundaryTriple, Genus0Curve, IsoradialAngles
from .kasteleyn import BivariatePolynomial
from .lattice import EdgeWeights

__all__ = [
    "canonical_float",
    "dumps_json",
    "weights_to_json", "weights_from_json",
    "poly_to_json", "poly_from_json",
    "curve_to_json", "curve_from_json",
    "angles_to_json", "angles_from_json",
    "triple_to_json", "triple_from_json",
    "divisor_to_json",
    "hole_report_to_json",
    "certificate_to_json",
    "write_pgm", "write_svg",
]


def canonical_float(x) -> float:
    """Round to 12 significant digits so emitted JSON is reproducible."""
    return float(format(float(x), ".12g"))


def _canon(obj):
    if isinstance(obj, dict):
        return {k: _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return canonical_float(obj)
    return obj


def dumps_json(obj) -> str:
    """Serialize with canonical floats, two-space indent, trailing newline."""
    return json.dumps(_canon(obj), indent=2) + "\n"


def _matrix(arr) -> list:
    return [[canonical_float(v) for v in row] for row in np.asarray(arr)]


def weights_to_json(weights: EdgeWeights) -> dict:
    return {
        "d": weights.d,
        "a": _matrix(weights.a),
        "b": _matrix(weights.b),
        "c": _matrix(weights.c),
    }


def weights_from_json(data: dict) -> EdgeWeights:
    return EdgeWeights(int(data["d"]), data["a"], data["b"], data["c"])


def poly_to_json(poly: BivariatePolynomial) -> dict:
    entries = []
    for i in range(poly.d + 1):
        for j in range(poly.d + 1 - i):
            v = poly.coeffs[i, j]
            if v != 0.0:
                entries.append({"i": i, "j": j, "v": canonical_float(v)})
    return {"d": poly.d, "coeffs": entries}


def poly_from_json(data: dict) -> BivariatePolynomial:
    d = int(data["d"])
    coeffs = np.zeros((d + 1, d + 1))
    for entry in data["coeffs"]:
        coeffs[int(entry["i"]), int(entry["j"])] = float(entry["v"])
    return BivariatePolynomial(d, coeffs)


def curve_to_json(curve: Genus0Curve) -> dict:
    return {
        "d": curve.d,
        "alpha": [canonical_float(v) for v in curve.alpha],
        "beta": [canonical_float(v) for v in curve.beta],
        "gamma": [canonical_float(v) for v in curve.gamma],
        "rho_z": canonical_float(curve.rho_z),
        "rho_w": canonical_float(curve.rho_w),
    }


def curve_from_json(data: dict) -> Genus0Curve:
    return Genus0Curve(int(data["d"]), data["alpha"], data["beta"],
                       data["gamma"], float(data.get("rho_z", 1.0)),
                       float(data.get("rho_w", 1.0)))


def angles_to_json(angles: IsoradialAngles) -> dict:
    return {
        "d": angles.d,
        "alpha": [canonical_float(v) for v in angles.alpha],
        "beta": [canonical_float(v) for v in angles.beta],
        "gamma": [canonical_float(v) for v in angles.gamma],
    }


def angles_from_json(data: dict) -> IsoradialAngles:
    return IsoradialAngles(int(data["d"]), data["alpha"], data["beta"],
                           data["gamma"])


def triple_to_json(triple: BoundaryTriple) -> dict:
    return {
        "d": triple.d,
        "A": [canonical_float(v) for v in triple.A],
        "B": [canonical_float(v) for v in triple.B],
        "C": [canonical_float(v) for v in triple.C],
    }


def triple_from_json(data: dict) -> BoundaryTriple:
    return BoundaryTriple(int(data["d"]), data["A"], data["B"], data["C"])


def divisor_to_json(points: list[DivisorPoint]) -> list:
    return [
        {
            "vertex": [point.vertex[0], point.vertex[1]],
            "oval_id": point.oval_id,
            "z": canonical_float(point.z),
            "w": canonical_float(point.w),
        }
        for point in points
    ]


def _hole_to_json(hole: Hole) -> dict:
    return {
        "order": [hole.order[0], hole.order[1]],
        "pixel_count": hole.pixel_count,
        "area": canonical_float(hole.area),
        "deep_point": [canonical_float(hole.deep_point[0]),
                       canonical_float(hole.deep_point[1])],
        "intercept": canonical_float(hole.intercept),
    }


def hole_report_to_json(report: HoleReport) -> dict:
    return {
        "genus": report.genus,
        "holes": [_hole_to_json(h) for h in report.holes],
        "candidate_nodes": [_hole_to_json(h) for h in report.candidate_nodes],
    }


def certificate_to_json(cert: HarnackCertificate) -> dict:
    return {
        "passed": cert.passed,
        "checks": {k: bool(v) for k, v in sorted(cert.checks.items())},
        "details": _canon({k: cert.details[k] for k in sorted(cert.details)}),
    }


def write_pgm(grid: AmoebaGrid, path: str) -> None:
    """Binary PGM: amoeba pixels black on white, top row at the window top."""
    img = np.where(grid.membership[::-1, :], 0, 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + img.tobytes())


def _row_runs(mask_row: np.ndarray):
    """Start/stop index pairs of the True runs in one raster row."""
    padded = np.concatenate([[False], mask_row, [False]])
    flips = np.flatnonzero(padded[1:] != padded[:-1])
    return zip(flips[0::2], flips[1::2])


def write_svg(grid: AmoebaGrid, report: HoleReport | None, path: str) -> None:
    """Amoeba membership as row runs plus labeled hole outlines."""
    x0, x1, y0, y1 = grid.window
    px, py = grid.pixel_size
    width, height = 720.0, 720.0 * (y1 - y0) / (x1 - x0)
    sx = width / (x1 - x0)
    sy = height / (y1 - y0)

    def to_svg(x, y):
        return (x - x0) * sx, (y1 - y) * sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<rect width="{width:.2f}" height="{height:.2f}" fill="#ffffff"/>',
        '<g fill="#2a6f97" stroke="none">',
    ]
    ys = grid.y_centers()
    for iy in range(grid.membership.shape[0]):
        for start, stop in _row_runs(grid.membership[iy]):
            xs, ysvg = to_svg(x0 + start * px, ys[iy] + 0.5 * py)
            parts.append(
                f'<rect x="{xs:.2f}" y="{ysvg:.2f}" '
                f'width="{(stop - start) * px * sx:.2f}" '
                f'height="{py * sy:.2f}"/>')
    parts.append("</g>")
    if report is not None:
        for hole in report.holes:
            cx, cy = to_svg(*hole.deep_point)
            radius = max(3.0, np.sqrt(hole.pixel_count) * px * sx * 0.5)
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius:.2f}" '
                'fill="none" stroke="#c1121f" stroke-width="2"/>')
            parts.append(
                f'<text x="{cx + radius + 4:.2f}" y="{cy:.2f}" '
                'font-family="monospace" font-size="13" fill="#c1121f">'
                f'({hole.order[0]},{hole.order[1]}) '
                f'area={hole.area:.4g} intercept={hole.intercept:.4g}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")
