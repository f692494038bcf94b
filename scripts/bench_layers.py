#!/usr/bin/env python3
"""Time the library's layers on fixed inputs and write one JSON record.

For now only the Kasteleyn layer is timed: ``characteristic_polynomial``
on rand-d (``EdgeWeights.random(d, default_rng(1000 d))``) and iso-d
(``isoradial_weights(IsoradialAngles.random(d, default_rng(1000 d)))``)
for d = 3, 8, 12 and 16. Every timing is cold: the polynomial memo is
cleared before a warm-up call made apart and before each of the k
repeats, and the median of the repeats is reported. Next to each timing
stand counts that compare across hosts, where times do not: the tori
read, and the matrices handed to ``np.linalg.det`` and
``np.linalg.solve`` while they are read, by order. The record also holds nproc, Python,
numpy, the load averages and the git SHA.

    python3 scripts/bench_layers.py --repeats 5 --out bench.json
    python3 scripts/bench_layers.py --quick --out bench.json   # d = 2, one repeat
"""

import argparse
import json
import os
import platform
import subprocess
import time
from collections import Counter
from pathlib import Path

import numpy as np

from harnack import kasteleyn
from harnack.genus0 import IsoradialAngles, isoradial_weights
from harnack.lattice import EdgeWeights


def models(sizes):
    for d in sizes:
        yield f"rand-{d}", EdgeWeights.random(d, np.random.default_rng(1000 * d))
        yield f"iso-{d}", isoradial_weights(IsoradialAngles.random(d, np.random.default_rng(1000 * d)))


def counted_call(weights):
    """One cold characteristic_polynomial call with its tori and the
    matrices factored while reading them (the greedy cover's 2 x 2 Newton
    solves do not count)."""
    tori, factored, active = [0], Counter(), [False]
    read, det, solve = kasteleyn._torus_readings, np.linalg.det, np.linalg.solve

    def reading(w, fields):
        tori[0] += len(fields)
        active[0] = True
        try:
            return read(w, fields)
        finally:
            active[0] = False

    def counting(fn):
        def wrapped(a, *rest):
            if active[0]:
                factored[str(a.shape[-1])] += int(np.prod(a.shape[:-2]))
            return fn(a, *rest)
        return wrapped

    kasteleyn._memo_polynomial.cache_clear()
    kasteleyn._torus_readings = reading
    np.linalg.det, np.linalg.solve = counting(det), counting(solve)
    try:
        kasteleyn.characteristic_polynomial(weights)
    finally:
        kasteleyn._torus_readings = read
        np.linalg.det, np.linalg.solve = det, solve
    return tori[0], dict(sorted(factored.items(), key=lambda kv: int(kv[0])))


def cold_median(weights, repeats):
    times = []
    for _ in range(repeats):
        kasteleyn._memo_polynomial.cache_clear()
        start = time.perf_counter()
        kasteleyn.characteristic_polynomial(weights)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def environment():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=Path(__file__).resolve().parent,
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "loadavg": list(os.getloadavg()), "git_sha": sha}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--quick", action="store_true", help="d = 2 only, one repeat")
    ap.add_argument("--out", help="JSON file (default: standard output)")
    args = ap.parse_args()

    sizes, repeats = ([2], 1) if args.quick else ([3, 8, 12, 16], args.repeats)
    rows = []
    for name, weights in models(sizes):
        tori, factored = counted_call(weights)  # also the warm-up call
        seconds = cold_median(weights, repeats)
        rows.append({"model": name, "d": weights.d, "median_s": seconds, "repeats": repeats,
                     "tori": tori, "factored": factored})
        if args.out:
            print(f"{name:8s} {seconds:9.4f} s  tori {tori:3d}  factored {factored}")
    record = {"environment": environment(),
              "layers": {"kasteleyn.characteristic_polynomial": rows}}
    text = json.dumps(record, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
