"""Kasteleyn operators and spectral curves of hexagonal dimer models.

The operator K(z, w) acts from black to white vertices of the d x d
fundamental domain (rows indexed by white vertices, columns by black, both
flattened row-major). Edges crossing the horizontal period carry the Bloch
factor z, edges crossing the vertical period carry w; the hexagonal lattice
needs no extra sign twist. The characteristic polynomial

    P(z, w) = det K(z, w) = sum_{i+j <= d} p_ij z^i w^j

has Newton polygon contained in the triangle with vertices (0,0), (d,0),
(0,d), and its coefficients are recovered exactly from determinant samples on
a (d+1) x (d+1) product grid of scaled roots of unity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import EdgeWeights, all_zigzag_products
from .numerics import det_complex, roots

__all__ = [
    "BivariatePolynomial",
    "BoundaryPoints",
    "ZigZagComparison",
    "assemble_K",
    "characteristic_polynomial",
    "boundary_points",
    "verify_boundary_vs_zigzag",
]

_REAL_TOL = 1e-8


@dataclass(frozen=True)
class BivariatePolynomial:
    """Real bivariate polynomial supported on the triangle i + j <= d."""

    d: int
    coeffs: np.ndarray  # shape (d+1, d+1), coeffs[i, j] multiplies z^i w^j

    def __init__(self, d: int, coeffs) -> None:
        d = int(d)
        arr = np.asarray(coeffs, dtype=float)
        if arr.shape != (d + 1, d + 1):
            raise ValueError(f"coefficient array must have shape ({d+1}, {d+1})")
        ii, jj = np.indices(arr.shape)
        outside = ii + jj > d
        if np.any(np.abs(arr[outside]) > 0.0):
            raise ValueError("support must lie inside the triangle i + j <= d")
        out = arr.copy()
        out.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coeffs", out)

    def __call__(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        # Horner in w, coefficients polynomials in z evaluated by Horner too
        out = np.zeros(np.broadcast(z, w).shape, dtype=complex)
        for j in range(self.d, -1, -1):
            col = np.zeros_like(out)
            for i in range(self.d, -1, -1):
                col = col * z + self.coeffs[i, j]
            out = out * w + col
        return out if out.shape else complex(out)

    def w_coefficients(self, z) -> np.ndarray:
        """Coefficient rows of w -> P(z, w) for an array of z values."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        powers = z[:, None] ** np.arange(self.d + 1)[None, :]
        return powers @ self.coeffs

    def z_coefficients(self, w) -> np.ndarray:
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        powers = w[:, None] ** np.arange(self.d + 1)[None, :]
        return powers @ self.coeffs.T

    def corner(self, which: str) -> float:
        return {
            "origin": self.coeffs[0, 0],
            "z": self.coeffs[self.d, 0],
            "w": self.coeffs[0, self.d],
        }[which]

    def scaled(self, factor: float) -> "BivariatePolynomial":
        return BivariatePolynomial(self.d, self.coeffs * factor)


@dataclass(frozen=True)
class BoundaryPoints:
    """Boundary data of a spectral curve.

    ``on_w0`` holds the z-roots of P(z, 0), ``on_z0`` the w-roots of P(0, w),
    ``at_inf`` the roots of the leading form in s = z/w. Each list is real
    with constant sign for Harnack curves. ``ordering`` optionally ties each
    point to the zig-zag cycle producing it.
    """

    on_w0: np.ndarray
    on_z0: np.ndarray
    at_inf: np.ndarray
    ordering: dict[str, list[int]] | None = field(default=None)

    def constant_signs(self) -> bool:
        return all(
            arr.size == 0 or np.all(arr > 0) or np.all(arr < 0)
            for arr in (self.on_w0, self.on_z0, self.at_inf)
        )


@dataclass(frozen=True)
class ZigZagComparison:
    """Per-cycle relative discrepancies between curve boundary and zig-zag data."""

    max_rel_error: float
    per_orientation: dict[str, np.ndarray]
    ordering: dict[str, list[int]]

    def passed(self, tol: float = 1e-8) -> bool:
        return self.max_rel_error < tol


def assemble_K(weights: EdgeWeights, z: complex, w: complex) -> np.ndarray:
    """Kasteleyn matrix at Bloch phases (z, w); rows white, columns black."""
    d = weights.d
    n = d * d
    K = np.zeros((n, n), dtype=complex)
    a, b, c = weights.a, weights.b, weights.c
    for i in range(d):
        for j in range(d):
            row = i * d + j
            K[row, i * d + j] += c[i, j]
            jz = (j + 1) % d
            K[row, i * d + jz] += a[i, j] * (z if j == d - 1 else 1.0)
            ib = (i + 1) % d
            K[row, ib * d + j] += b[i, j] * (w if i == d - 1 else 1.0)
    return K


def _det_grid(weights: EdgeWeights, r_z: float, r_w: float) -> np.ndarray:
    d = weights.d
    n = d + 1
    zeta = np.exp(2j * np.pi / n)
    dets = np.empty((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            dets[k, l] = det_complex(assemble_K(weights, r_z * zeta ** k, r_w * zeta ** l))
    return dets


def characteristic_polynomial(weights: EdgeWeights) -> BivariatePolynomial:
    """P(z, w) = det K(z, w) recovered by inverse DFT of determinant samples.

    Samples on the unit torus are rescaled when the determinant magnitudes
    span more than twelve decades; residual imaginary parts or coefficients
    outside the Newton triangle above 1e-9 of the largest coefficient raise
    an error.
    """
    d = weights.d
    r_z = r_w = 1.0
    dets = _det_grid(weights, r_z, r_w)
    mags = np.abs(dets)
    if mags.min() == 0.0 or mags.max() / max(mags.min(), 1e-300) > 1e12:
        r_z = float(np.prod(weights.c / weights.a) ** (1.0 / d ** 2))
        r_w = float(np.prod(weights.c / weights.b) ** (1.0 / d ** 2))
        dets = _det_grid(weights, r_z, r_w)

    raw = np.fft.fft2(dets) / (d + 1) ** 2
    i_idx = np.arange(d + 1)
    scale = np.outer(r_z ** i_idx.astype(float), r_w ** i_idx.astype(float))
    raw = raw / scale

    top = np.max(np.abs(raw))
    if top == 0.0:
        raise ValueError("interpolation inconsistency")
    bound = 1e-9 * top
    if np.max(np.abs(raw.imag)) > bound:
        raise ValueError("interpolation inconsistency")
    coeffs = raw.real.copy()
    ii, jj = np.indices(coeffs.shape)
    outside = ii + jj > d
    if np.max(np.abs(coeffs[outside]), initial=0.0) > bound:
        raise ValueError("interpolation inconsistency")
    coeffs[outside] = 0.0
    if coeffs[0, 0] < 0:
        coeffs = -coeffs
    return BivariatePolynomial(d, coeffs)


def _real_roots_of(coeffs: np.ndarray, label: str) -> np.ndarray:
    try:
        found = roots(coeffs)
    except ValueError:
        # constant or identically zero axis section: no intercepts to compare
        raise ValueError("non-Harnack boundary: degenerate axis polynomial") from None
    out = []
    for r in found:
        if abs(r.imag) > _REAL_TOL * max(1.0, abs(r.real)):
            raise ValueError(f"non-Harnack boundary: complex {label} root {r:.6g}")
        out.append(r.real)
    return np.sort(np.asarray(out, dtype=float))


def boundary_points(poly: BivariatePolynomial) -> BoundaryPoints:
    """Boundary points of the spectral curve on the three axes of its triangle.

    Roots are clustered to centroids (relative tolerance 1e-6) and returned
    with multiplicity; a genuinely complex root means the curve cannot come
    from positive edge weights.
    """
    d = poly.d
    on_w0 = _real_roots_of(poly.coeffs[:, 0], "w = 0")
    on_z0 = _real_roots_of(poly.coeffs[0, :], "z = 0")
    lead = np.array([poly.coeffs[i, d - i] for i in range(d + 1)])
    at_inf = _real_roots_of(lead, "infinity")
    if on_w0.size != d or on_z0.size != d or at_inf.size != d:
        raise ValueError("non-Harnack boundary: degenerate axis polynomial")
    return BoundaryPoints(on_w0=on_w0, on_z0=on_z0, at_inf=at_inf)


_ORIENTATION_FOR_FAMILY = {
    "on_w0": "horizontal",
    "on_z0": "vertical",
    "at_inf": "nw-se",
}


def verify_boundary_vs_zigzag(weights: EdgeWeights) -> ZigZagComparison:
    """Match curve boundary points against zig-zag alternating products.

    Horizontal cycles must reproduce the w = 0 roots, vertical cycles the
    z = 0 roots, nw-se cycles the roots at infinity, as multisets. Returns
    per-cycle relative errors and the matching permutation.
    """
    poly = characteristic_polynomial(weights)
    bp = boundary_points(poly)
    zz = all_zigzag_products(weights)
    per: dict[str, np.ndarray] = {}
    ordering: dict[str, list[int]] = {}
    worst = 0.0
    for family, orientation in _ORIENTATION_FOR_FAMILY.items():
        root_vals = getattr(bp, family)
        cycle_vals = zz[orientation]
        perm = list(np.argsort(cycle_vals))
        matched = cycle_vals[perm]
        errs = np.abs(root_vals - matched) / np.maximum(1.0, np.abs(matched))
        per[family] = errs
        ordering[family] = [int(p) for p in perm]
        if errs.size:
            worst = max(worst, float(errs.max()))
    return ZigZagComparison(max_rel_error=worst, per_orientation=per, ordering=ordering)
