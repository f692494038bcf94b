#!/usr/bin/env python3
"""Render a small gallery of amoebas (PGM + SVG) for stock weight choices.

Writes one image pair per model into --outdir and prints a table of the
exact amoeba area, pi^2 d^2 / 2 on these Harnack curves, and the genus.
Intended as a quick visual regression check after touching the raster code.
"""

import argparse
import os
import time

import numpy as np

from harnack import (
    EdgeWeights,
    amoeba_area,
    auto_window,
    detect_holes,
    rasterize_amoeba,
)
from harnack import io as hio
from harnack.kasteleyn import BivariatePolynomial, characteristic_polynomial


def stock_models():
    models = {
        "line": characteristic_polynomial(EdgeWeights.uniform(1)),
        "uniform2": characteristic_polynomial(EdgeWeights.uniform(2)),
        "uniform3": characteristic_polynomial(EdgeWeights.uniform(3)),
        "random3": characteristic_polynomial(EdgeWeights.random(3, np.random.default_rng(19))),
    }
    # open the node of the uniform 3x3 curve into a genuine hole
    coeffs = models["uniform3"].coeffs.copy()
    coeffs[1, 1] *= 1.05
    models["opened3"] = BivariatePolynomial(3, coeffs)
    return models


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="gallery")
    ap.add_argument("--grid", type=int, default=360)
    ap.add_argument("--pad", type=float, default=2.0)
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    print(f"{'model':>10} {'grid':>5} {'area':>10} {'frame ok':>8} {'genus':>5} {'secs':>6}")
    for name, poly in stock_models().items():
        t0 = time.time()
        window = auto_window(poly, pad=args.pad)
        grid = rasterize_amoeba(poly, window=window, nx=args.grid, ny=args.grid)
        report = detect_holes(poly, grid=grid)
        hio.write_pgm(grid, os.path.join(args.outdir, f"{name}.pgm"))
        hio.write_svg(grid, report, os.path.join(args.outdir, f"{name}.svg"))
        print(
            f"{name:>10} {args.grid:>5} {amoeba_area(poly):>10.4f} {str(grid.frame_ok):>8} "
            f"{report.genus:>5} {time.time() - t0:>6.2f}"
        )
    print(f"images written to {args.outdir}/")


if __name__ == "__main__":
    main()
