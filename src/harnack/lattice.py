"""Periodically weighted hexagonal lattices on a d x d fundamental domain.

Conventions used throughout the package: white vertex W(i,j) and black vertex
B(i,j) share cell (i,j) of the domain, with i the row index and j the column
index, both modulo d. Each white vertex carries three edges:

  * c-edge  W(i,j) -- B(i,j),        weight c[i,j]
  * a-edge  W(i,j) -- B(i,(j+1)%d),  weight a[i,j]   (crosses the horizontal
    period when j = d-1; picks up the Bloch factor z there)
  * b-edge  W(i,j) -- B((i+1)%d,j),  weight b[i,j]   (crosses the vertical
    period when i = d-1; picks up w)

Gauge transformations rescale weights by functions of the endpoints; the
gauge-invariant content of a weight system is the collection of face and
torus-cycle alternating products exposed by ``loop_invariants``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EdgeWeights",
    "GaugeVector",
    "ZigZagCycle",
    "apply_gauge",
    "loop_invariants",
    "zigzag_product",
    "all_zigzag_products",
    "zigzag_closure_product",
    "apply_magnetic_field",
]

MAX_DOMAIN = 16

_ORIENTATIONS = ("horizontal", "nw-se", "vertical")


def _as_weight_array(values, d: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (d, d):
        raise ValueError(f"{name} must have shape ({d}, {d}), got {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} entries must be finite and strictly positive")
    out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class EdgeWeights:
    """Strictly positive edge weights (a, b, c) on a d x d fundamental domain."""

    d: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __init__(self, d: int, a, b, c) -> None:
        if not (1 <= int(d) <= MAX_DOMAIN):
            raise ValueError(f"domain size must lie in 1..{MAX_DOMAIN}")
        d = int(d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", _as_weight_array(a, d, "a"))
        object.__setattr__(self, "b", _as_weight_array(b, d, "b"))
        object.__setattr__(self, "c", _as_weight_array(c, d, "c"))

    @classmethod
    def uniform(cls, d: int) -> "EdgeWeights":
        block = np.ones((d, d))
        return cls(d, block, block, block)

    @classmethod
    def random(cls, d: int, rng: np.random.Generator) -> "EdgeWeights":
        """Log-uniform positive weights in [0.2, 2], handy for randomized tests."""
        def draw():
            return np.exp(rng.uniform(math.log(0.2), math.log(2.0), size=(d, d)))

        return cls(d, draw(), draw(), draw())


@dataclass(frozen=True)
class GaugeVector:
    """Nonzero multipliers attached to white and black vertices."""

    d: int
    white: np.ndarray
    black: np.ndarray

    def __init__(self, d: int, white, black) -> None:
        d = int(d)
        w = np.asarray(white, dtype=float)
        b = np.asarray(black, dtype=float)
        if w.shape != (d, d) or b.shape != (d, d):
            raise ValueError(f"gauge arrays must have shape ({d}, {d})")
        if np.any(w == 0.0) or np.any(b == 0.0) or not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("gauge entries must be finite and nonzero")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "white", w.copy())
        object.__setattr__(self, "black", b.copy())


@dataclass(frozen=True)
class ZigZagCycle:
    """One of the 3d zig-zag paths of the domain.

    ``orientation`` selects the family: "horizontal" cycles follow a row
    (alternating c- and a-edges), "vertical" cycles follow a column (c- and
    b-edges), "nw-se" cycles follow an anti-diagonal i+j = index (a- and
    b-edges).
    """

    orientation: str
    index: int

    def __post_init__(self) -> None:
        if self.orientation not in _ORIENTATIONS:
            raise ValueError(f"orientation must be one of {_ORIENTATIONS}")
        if self.index < 0:
            raise ValueError("cycle index must be nonnegative")


def apply_gauge(weights: EdgeWeights, gauge: GaugeVector) -> EdgeWeights:
    """Rescale each edge weight by the gauge values at its two endpoints."""
    if gauge.d != weights.d:
        raise ValueError("gauge and weights must share the domain size")
    d = weights.d
    gw, gb = gauge.white, gauge.black
    a = weights.a * gw * np.roll(gb, -1, axis=1)
    b = weights.b * gw * np.roll(gb, -1, axis=0)
    c = weights.c * gw * gb
    if np.any(a <= 0.0) or np.any(b <= 0.0) or np.any(c <= 0.0):
        raise ValueError("gauge breaks positivity")
    return EdgeWeights(d, a, b, c)


def loop_invariants(weights: EdgeWeights) -> np.ndarray:
    """Gauge-invariant alternating products: d^2 - 1 faces plus two torus cycles.

    The face product at cell (i,j) multiplies the three edges oriented one way
    around the hexagon and divides by the other three. The product of all d^2
    face values is identically 1, so the last face is dropped; two
    torus-cycle products (one horizontal, one vertical) complete a coordinate
    system of d^2 + 1 independent values.
    """
    d = weights.d
    a, b, c = weights.a, weights.b, weights.c
    up = np.roll(a, 1, axis=0)          # a[i-1, j]
    up_right = np.roll(np.roll(c, 1, axis=0), -1, axis=1)  # c[i-1, j+1]
    up_b = np.roll(b, 1, axis=0)        # b[i-1, j]
    up_b_right = np.roll(up_b, -1, axis=1)                  # b[i-1, j+1]
    faces = (a * up_right * up_b) / (up_b_right * up * c)
    horizontal = float(np.prod(c[0] / a[0]))
    vertical = float(np.prod(c[:, 0] / b[:, 0]))
    return np.concatenate([faces.ravel()[:-1], [horizontal, vertical]])


def zigzag_product(weights: EdgeWeights, cycle: ZigZagCycle) -> float:
    """Signed alternating weight product along one zig-zag cycle.

    The value equals the boundary point of the spectral curve attached to the
    cycle: horizontal cycles give the z-axis intercepts (roots of the curve on
    w = 0), vertical cycles the w-axis intercepts, and nw-se cycles the
    directions at infinity. All three carry the common sign (-1)^d.
    """
    d = weights.d
    if cycle.index >= d:
        raise ValueError(f"cycle index must be below d = {d}")
    sign = (-1.0) ** d
    a, b, c = weights.a, weights.b, weights.c
    k = cycle.index
    if cycle.orientation == "horizontal":
        return sign * float(np.prod(c[k] / a[k]))
    if cycle.orientation == "vertical":
        return sign * float(np.prod(c[:, k] / b[:, k]))
    rows = np.arange(d)
    cols = (k - rows) % d
    return sign * float(np.prod(b[rows, cols] / a[rows, cols]))


def all_zigzag_products(weights: EdgeWeights) -> dict[str, np.ndarray]:
    """Zig-zag products for every cycle, keyed by orientation."""
    return {
        orientation: np.array(
            [zigzag_product(weights, ZigZagCycle(orientation, k)) for k in range(weights.d)]
        )
        for orientation in _ORIENTATIONS
    }


def zigzag_closure_product(weights: EdgeWeights) -> float:
    """Product of the orientation-consistent cycle monomials; identically 1.

    Each edge appears in exactly two zig-zag cycles, once in the numerator and
    once in the denominator when every cycle is traversed consistently
    (horizontal rows contribute c/a, vertical columns b/c, nw-se diagonals
    a/b), so the product over all 3d cycles telescopes to 1 exactly.
    """
    d = weights.d
    a, b, c = weights.a, weights.b, weights.c
    total = 1.0
    for k in range(d):
        total *= float(np.prod(c[k] / a[k]))
        total *= float(np.prod(b[:, k] / c[:, k]))
        rows = np.arange(d)
        cols = (k - rows) % d
        total *= float(np.prod(a[rows, cols] / b[rows, cols]))
    return total


def apply_magnetic_field(weights: EdgeWeights, bx: float, by: float) -> EdgeWeights:
    """Twist the weights by a magnetic field (Bx, By).

    Every periodic matching uses exactly d*i a-edges and d*j b-edges for
    lattice exponents (i, j), so scaling a by exp(Bx/d) and b by exp(By/d)
    multiplies the (i,j) coefficient of the characteristic polynomial by
    exp(i*Bx + j*By). The spectral curve maps to P(exp(Bx) z, exp(By) w) = 0
    and the amoeba translates by (-Bx, -By).
    """
    return EdgeWeights(
        weights.d,
        weights.a * math.exp(bx / weights.d),
        weights.b * math.exp(by / weights.d),
        weights.c,
    )
