#!/usr/bin/env python3
"""Stress the shift-point search: transport a unit-prefactor curve by a random
disk automorphism, then recover the shift and compare implicit coefficients.

Every isoradial curve has rho_z = rho_w = 1. A Mobius transport hides that
normalization; find_isoradial_shift must undo it exactly when the origin
stays inside the amoeba.
"""

import argparse

import numpy as np

from harnack import (
    IsoradialAngles,
    find_isoradial_shift,
    implicitize,
    transport_gauge,
)


def random_automorphism(rng):
    # |zeta| < 1 keeps the map a disk automorphism
    zeta = (rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)) * 0.7
    return np.array([[1.0, -zeta], [-np.conj(zeta), 1.0]], dtype=complex)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--dmax", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol", type=float, default=1e-7)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    failures = 0
    for trial in range(args.trials):
        d = int(rng.integers(1, args.dmax + 1))
        curve = IsoradialAngles.random(d, rng).as_curve()
        moved = transport_gauge(curve, random_automorphism(rng))
        found = find_isoradial_shift(moved)
        if found is None:
            failures += 1
            print(f"trial {trial:3d} d={d}  shift search returned None")
            continue
        recovered = found[1]
        p0 = implicitize(curve).coeffs
        p1 = implicitize(recovered).coeffs
        # scaled to largest coefficient 1: p_00 can be rounding-small from d = 8 on
        err = np.max(np.abs(p1 / np.abs(p1).max() - p0 / np.abs(p0).max()))
        rho_err = max(abs(recovered.rho_z - 1.0), abs(recovered.rho_w - 1.0))
        worst = max(worst, err, rho_err)
        if err > args.tol or rho_err > args.tol:
            failures += 1
            print(f"trial {trial:3d} d={d}  coeff err {err:.3e}  rho err {rho_err:.3e}")

    print(f"{args.trials} trials, worst error {worst:.3e}")
    print("roundtrip:", "PASS" if failures == 0 else f"FAIL ({failures} bad trials)")


if __name__ == "__main__":
    main()
