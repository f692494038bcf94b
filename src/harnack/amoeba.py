"""Amoeba and Ronkin-function numerics for spectral curves.

The amoeba of P is the image of its zero set under (z, w) -> (log|z|, log|w|).
P is real, so the w-root moduli of z = exp(x + i phi) are even in phi, and
the amoeba column at x is the union of the ranges of the sorted w-root
log-modulus branches m_k(phi) over [0, pi]. Raster and point membership
both read those ranges, the points of one query in one call over their
distinct columns: the end values come from the real roots at z = +-exp(x),
widened where a sampled interior extremum of a branch passes them. On a
Harnack curve the amoeba map is at most 2-to-1 and critical only on the
real locus, so the branches are monotone and the end values decide. The
exact area (``amoeba_area``) integrates the lengths of the lines that
those end values alone cover: pi^2 d^2 / 2 on a Harnack curve
(Mikhalkin-Rullgard), a lower bound elsewhere, and the certificate's
area check.
The Ronkin function is evaluated by a Jensen-type reduction to a
one-dimensional integral over the half period [0, pi], split at the angles
where a root modulus crosses exp(y). A sweep brackets those crossings and
Illinois regula falsi (``numerics.illinois``) on the crossing branch
refines them, all brackets in lockstep; the Monge-Ampere stencil's nine
values share one sweep per column and one quadrature. The gradient has
exact piecewise-constant counting integrands over the same half period,
which makes facet slopes of complement components come out at nearly
machine precision. R's exact
Hessian, read at the same crossings, drives one Newton solve of
grad R = (i, j) per interior lattice order, which finds the holes. The
same crossings count the preimages of a point for the 2-to-1 check.
Raster, Ronkin, gradient, volume and the 2-to-1 count all read [0, pi] only.
R is affine on every complement component, and Jensen's formula along the
tentacles gives each unbounded facet's intercept in closed form from the
boundary roots. One Horner kernel (``_partials``) gives P, z P_z and w P_w
at a point, for the exact Hessian's rho and for the real-oval trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kasteleyn import BivariatePolynomial, BoundaryPoints, boundary_points
from .numerics import horner, illinois, integrate_panels, polyroots_batch

__all__ = [
    "AmoebaGrid",
    "Hole",
    "HoleReport",
    "RealOval",
    "HarnackCertificate",
    "auto_window",
    "amoeba_membership",
    "sample_interior",
    "rasterize_amoeba",
    "amoeba_area",
    "ronkin",
    "gradient_ronkin",
    "monge_ampere_residual",
    "detect_holes",
    "facet_intercepts",
    "legendre_transform",
    "legendre_dual_residual",
    "volume_difference",
    "two_to_one_check",
    "trace_real_ovals",
    "verify_harnack",
]

_NEG_INF = -745.0  # log of the smallest positive double, used for |w| = 0


@dataclass(frozen=True)
class AmoebaGrid:
    """Raster of amoeba membership over a rectangular window."""

    window: tuple[float, float, float, float]  # (x0, x1, y0, y1)
    nx: int
    ny: int
    membership: np.ndarray  # bool, shape (ny, nx), row iy = y index
    frame_ok: bool = True
    refined: int = 0  # interior branch extrema that passed their end range and were zoomed

    @property
    def pixel_size(self) -> tuple[float, float]:
        x0, x1, y0, y1 = self.window
        return (x1 - x0) / self.nx, (y1 - y0) / self.ny

    def x_centers(self) -> np.ndarray:
        x0, x1, _, _ = self.window
        return x0 + (np.arange(self.nx) + 0.5) * (x1 - x0) / self.nx

    def y_centers(self) -> np.ndarray:
        _, _, y0, y1 = self.window
        return y0 + (np.arange(self.ny) + 0.5) * (y1 - y0) / self.ny


@dataclass(frozen=True)
class Hole:
    order: tuple[int, int]
    pixel_count: int
    area: float
    deep_point: tuple[float, float]
    intercept: float


@dataclass(frozen=True)
class HoleReport:
    holes: list[Hole]
    genus: int
    candidate_nodes: list[Hole]


@dataclass(frozen=True)
class RealOval:
    """Connected arc or loop of the real locus in one sign quadrant."""

    points: np.ndarray  # (n, 2) of (z, w), with fixed signs
    closed: bool
    quadrant: tuple[int, int]
    stalled: bool = False  # a walk ended on a tiny step or on max_steps, not by closing or leaving


def _tentacle_logs(bp: BoundaryPoints) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted log|root| of the south (``on_w0``), west (``on_z0``) and
    north-east (``at_inf``) tentacle families."""
    return tuple(np.sort(np.log(np.abs(family))) for family in (bp.on_w0, bp.on_z0, bp.at_inf))


def auto_window(poly: BivariatePolynomial, pad: float = 2.0) -> tuple[float, float, float, float]:
    """Bounding box of the boundary-point logs, padded."""
    pool = np.concatenate(_tentacle_logs(boundary_points(poly)))
    lo, hi = float(pool.min()) - pad, float(pool.max()) + pad
    return (lo, hi, lo, hi)


def _half_sweep(n_phi: int) -> np.ndarray:
    """n_phi equally spaced angles in [0, 2pi), folded onto [0, pi], in angle order."""
    # irrational offset keeps samples off symmetry axes
    phis = 2.0 * np.pi * (np.arange(n_phi) + 0.382) / n_phi
    return np.sort(np.minimum(phis, 2.0 * np.pi - phis))


def _root_logmods(rows: np.ndarray) -> np.ndarray:
    """log|root| for each coefficient row, shape (rows, degree); _NEG_INF for a zero root."""
    mods = np.abs(polyroots_batch(rows))
    return np.where(mods > 0, np.log(np.where(mods > 0, mods, 1.0)), _NEG_INF)


def _w_logmods(poly: BivariatePolynomial, x: float, phis: np.ndarray) -> np.ndarray:
    """log|w_r| for the roots of w -> P(e^{x+i phi}, w), shape (len(phis), d)."""
    return _root_logmods(poly.w_coefficients(np.exp(x + 1j * phis)))


_RANGE_TOL = 1e-9  # slack in log|w| before a sampled interior extremum widens a branch range


def _branch_ranges(poly: BivariatePolynomial, xs: np.ndarray):
    """The amoeba column at each x in ``xs``, as the ranges of its sorted w-root branches.

    Returns (lo, hi, zoomed): the column at xs[i] is the union of the
    ranges [lo[i, k], hi[i, k]] of the sorted log-modulus branches m_k over
    phi in [0, pi] (P is real, so |w| is even in phi), and ``zoomed``
    counts the extrema refined. Each column makes one root batch, over
    z = e^x, the 160-angle sweep folded onto [0, pi], and z = -e^x. A
    branch's range is the range of its two end values, widened where a
    sampled interior local extremum passes it by more than ``_RANGE_TOL``.
    The extrema of all columns are zoomed in lockstep, one root batch per
    round: 17 points over one sample step either side, then over a quarter
    of the previous span around the best point, 8 rounds, and the range
    takes the last best value. A zero root has log-modulus ``_NEG_INF``.
    """
    xs = np.asarray(xs, dtype=float)
    ez = np.exp(xs)
    phis = _half_sweep(160)
    lo = np.empty((xs.size, poly.d))
    hi = np.empty((xs.size, poly.d))
    # past[i, 0] marks the sampled interior minima below the end range of
    # column i, past[i, 1] the maxima above it, by sweep angle and branch
    past = np.empty((xs.size, 2, phis.size, poly.d), dtype=bool)
    for i, x in enumerate(xs.tolist()):
        z = np.concatenate([ez[i:i + 1], np.exp(x + 1j * phis), -ez[i:i + 1]])
        m = np.sort(_root_logmods(poly.w_coefficients(z)), axis=1)
        lo[i], hi[i] = np.minimum(m[0], m[-1]), np.maximum(m[0], m[-1])
        inner, before, after = m[1:-1], m[:-2], m[2:]
        past[i, 0] = (inner <= before) & (inner <= after) & (inner < lo[i] - _RANGE_TOL)
        past[i, 1] = (inner >= before) & (inner >= after) & (inner > hi[i] + _RANGE_TOL)
    col, side, j, k = np.nonzero(past)
    if col.size:
        sign = 1.0 - 2.0 * side  # a maximum of m_k is a minimum of -m_k
        rows = np.arange(col.size)
        step = 2.0 * np.pi / phis.size
        a, b = phis[j] - step, phis[j] + step
        for _ in range(8):
            grid = np.linspace(a, b, 17, axis=1)
            z = np.exp(xs[col, None] + 1j * grid).reshape(-1)
            logs = np.sort(_root_logmods(poly.w_coefficients(z)).reshape(col.size, 17, -1), axis=2)
            vals = sign[:, None] * logs[rows, :, k]
            best = np.argmin(vals, axis=1)
            width = (b - a) / 8.0
            a, b = grid[rows, best] - width, grid[rows, best] + width
        best = vals[rows, best]
        low = sign > 0
        np.minimum.at(lo, (col[low], k[low]), best[low])
        np.maximum.at(hi, (col[~low], k[~low]), -best[~low])
    return lo, hi, int(col.size)


# log units: a narrower gap of an interior order is a node, and a root at a
# real end that near a level is a real preimage
_NODE_TOL = 1e-6


def _crossings(coefficients, cols, levels) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Sorted angles in (0, pi) where the number of root log-moduli below a level changes.

    Column i holds the roots of the coefficient rows ``coefficients(z)``
    (``poly.w_coefficients`` or ``poly.z_coefficients``) at
    z = e^{cols[i] + i phi}; P is real, so their log-moduli are even in phi.
    ``levels[i]`` lists the levels of column i, and one array of angles is
    returned per (column, level) pair, in row-major order. One root batch
    reads every column on the 256-angle sweep folded onto [0, pi] plus the
    real ends 0 and pi, and all levels of a column share it. A real end
    with a root within ``_NODE_TOL`` of the level reads its inner
    neighbour's count: that root is a real preimage (a node's double root
    lies at +-1 ulp of the level), not a crossing in (0, pi).

    Where the count changes between two sweep angles, the sorted branch with
    index min(count at lo, count at hi) crosses the level, so that branch
    minus the level changes sign across the bracket. ``numerics.illinois``
    refines all brackets in lockstep, one root batch per round, so each
    result is the same however many columns and levels share a call.
    Also returns the root counts below the level on the segments between
    crossings, read off the sweep: the count at angle 0 (after the real-end
    rule), then the count at the first angle after each bracket.
    """
    cols = np.asarray(cols, dtype=float)
    levels = np.asarray(levels, dtype=float)
    phis = np.concatenate([[0.0], _half_sweep(256), [np.pi]])
    z = np.exp(np.repeat(cols, phis.size) + 1j * np.tile(phis, cols.size))
    logs = np.sort(_root_logmods(coefficients(z)), axis=1).reshape(cols.size, 1, phis.size, -1)
    # counts[i, l, j]: the roots of column i below its level l at sweep angle j
    counts = (logs < levels[:, :, None, None]).sum(axis=3)
    on_level = (np.abs(logs[:, :, [0, -1]] - levels[:, :, None, None]) < _NODE_TOL).any(axis=3)
    counts[:, :, [0, -1]] = np.where(on_level, counts[:, :, [1, -2]], counts[:, :, [0, -1]])
    col, lev, j = np.nonzero(np.diff(counts, axis=2))
    branch = np.minimum(counts[col, lev, j], counts[col, lev, j + 1])
    level = levels[col, lev]

    def branch_minus_level(t, todo):
        at = np.sort(_root_logmods(coefficients(np.exp(cols[col[todo]] + 1j * t))), axis=1)
        return at[np.arange(todo.size), branch[todo]] - level[todo]

    best = illinois(branch_minus_level, phis[j], phis[j + 1],
                    logs[col, 0, j, branch] - level, logs[col, 0, j + 1, branch] - level)
    split = np.cumsum(np.bincount(col * levels.shape[1] + lev, minlength=levels.size))[:-1]
    after = np.split(counts[col, lev, j + 1], split)
    return np.split(best, split), [np.append(first, rest) for first, rest in zip(counts[:, :, 0].flat, after)]


def _membership(poly: BivariatePolynomial, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Whether each point (xs[i], ys[i]) lies in the amoeba of P.

    The raster's rule: ys[i] lies in one of the branch ranges of the column
    at xs[i]. One ``_branch_ranges`` call reads the distinct columns.
    """
    cols, at = np.unique(xs, return_inverse=True)
    lo, hi, _ = _branch_ranges(poly, cols)
    ys = np.asarray(ys, dtype=float)[:, None]
    return np.any((lo[at] <= ys) & (ys <= hi[at]), axis=1)


def amoeba_membership(poly: BivariatePolynomial, x: float, y: float) -> bool:
    """Whether (x, y) lies in the amoeba of P, the one-point case of the
    raster's rule (``_membership``)."""
    return bool(_membership(poly, np.array([x], dtype=float), np.array([y]))[0])


def _ring(radius: float) -> list[tuple[float, float]]:
    """The offsets of the eight points at ``radius`` around a point, 45 degrees apart."""
    angles = [2.0 * math.pi * k / 8.0 for k in range(8)]
    return [(radius * math.cos(ang), radius * math.sin(ang)) for ang in angles]


def sample_interior(
    poly: BivariatePolynomial,
    count: int,
    rng: np.random.Generator,
    margin: float = 0.12,
    ring: float = 0.0,
) -> list[tuple[float, float]]:
    """Random amoeba points with a clear margin to the boundary on all sides.

    Points are drawn uniformly from ``auto_window(poly, pad=0.5)`` and kept
    when the point and its four axis-shifted copies at distance ``margin``
    are all amoeba members, so they stay clear of the boundary where the
    Ronkin function loses smoothness. A positive ``ring`` also requires the
    eight points at that radius to be members, the check that
    ``monge_ampere_residual`` makes at ring = 3h. The points of one draw are
    tested together (``_membership``). Raises RuntimeError after 4000 draws
    per requested point.
    """
    x0, x1, y0, y1 = auto_window(poly, pad=0.5)
    offsets = [(0.0, 0.0), (margin, 0.0), (-margin, 0.0), (0.0, margin), (0.0, -margin)]
    dx, dy = np.array(offsets + (_ring(ring) if ring > 0.0 else [])).T
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 4000 * count:
            raise RuntimeError("no convergence: interior point sampling stalled")
        x = rng.uniform(x0, x1)
        y = rng.uniform(y0, y1)
        if _membership(poly, x + dx, y + dy).all():
            points.append((x, y))
    return points


def _frame_consistent(member: np.ndarray, grid_window, nx, ny, poly) -> bool:
    """Every member pixel on the frame must sit near an expected tentacle ray."""
    x0, x1, y0, y1 = grid_window
    px = (x1 - x0) / nx
    py = (y1 - y0) / ny
    xc = x0 + (np.arange(nx) + 0.5) * px
    yc = y0 + (np.arange(ny) + 0.5) * py
    south, west, diag = _tentacle_logs(boundary_points(poly))
    tol = 0.6 + 2.0 * max(px, py)

    def near(vals, targets):
        if vals.size == 0:
            return True
        return bool(np.all(np.min(np.abs(vals[:, None] - targets[None, :]), axis=1) < tol))

    ok = near(xc[member[0, :]], south)        # bottom edge: south tentacles
    ok &= near(yc[member[:, 0]], west)        # left edge: west tentacles
    ok &= near(xc[member[-1, :]], diag + y1)  # top edge: x - y = log|at_inf|
    ok &= near(yc[member[:, -1]], x1 - diag)  # right edge, same rays
    return ok


def rasterize_amoeba(
    poly: BivariatePolynomial,
    window: tuple[float, float, float, float] | None = None,
    nx: int = 600,
    ny: int = 600,
) -> AmoebaGrid:
    """Pixel raster of amoeba membership.

    A pixel is a member exactly when its center level lies in one of the
    branch ranges of its column (``_branch_ranges``, one call for all
    columns), with no tolerance. ``AmoebaGrid.refined`` counts the branch
    extrema that were zoomed; on a Harnack curve the branches are monotone
    and it reads 0.
    """
    if window is None:
        window = auto_window(poly)
    x0, x1, y0, y1 = window
    if not (x1 > x0 and y1 > y0):
        raise ValueError("window must have positive extent")
    xc = x0 + (np.arange(nx) + 0.5) * (x1 - x0) / nx
    yc = y0 + (np.arange(ny) + 0.5) * (y1 - y0) / ny
    lo, hi, refined = _branch_ranges(poly, xc)
    member = np.zeros((ny, nx), dtype=bool)
    for k in range(lo.shape[1]):
        member |= (yc[:, None] >= lo[:, k]) & (yc[:, None] <= hi[:, k])
    frame_ok = _frame_consistent(member, window, nx, ny, poly)
    return AmoebaGrid(window=window, nx=nx, ny=ny, membership=member, frame_ok=frame_ok, refined=refined)


def _row_lengths(poly: BivariatePolynomial, side: np.ndarray, vs: np.ndarray, cut: float) -> np.ndarray:
    """Length left of ``cut`` of the real-end part of each amoeba row y = vs[i].

    The z-roots of P(z, w) at w = e^v and w = -e^v, sorted by log-modulus,
    give each branch its two end values, and the part is the union of the
    ranges between them. It lies in the amoeba row, because each sorted
    branch is continuous over [0, pi], and it is the whole row on a Harnack
    curve, where the branches are monotone. The constant coefficient P(0, w)
    is taken as p_{0,d} prod (w - r) over its roots r, ``side``, and every
    root gets two Newton steps, so a root that a multiple boundary root
    pulls towards 0 keeps its relative accuracy.
    """
    d = poly.d
    w = np.concatenate([np.exp(vs), -np.exp(vs)])
    rows = poly.z_coefficients(w)
    rows[:, 0] = poly.coeffs[0, d] * np.prod(w[:, None] - side, axis=1)
    drows = rows[:, 1:] * np.arange(1, d + 1)
    z = polyroots_batch(rows)
    for _ in range(2):
        with np.errstate(divide="ignore", invalid="ignore"):
            step = horner(rows.T[:, :, None], z) / horner(drows.T[:, :, None], z)
        z = z - np.where(np.isfinite(step), step, 0.0)
    m = np.sort(np.log(np.abs(z)), axis=1).reshape(2, vs.size, d)
    lo, hi = np.minimum(m.min(axis=0), cut), np.minimum(m.max(axis=0), cut)
    # both ends rise with the branch, so a range adds only what lies above the hi below it
    below = np.concatenate([np.full((vs.size, 1), -np.inf), hi[:, :-1]], axis=1)
    return np.maximum(hi - np.maximum(lo, below), 0.0).sum(axis=1)


def amoeba_area(poly: BivariatePolynomial) -> float:
    """Exact area of the real-end part of the amoeba (``_row_lengths``).

    That part is the whole amoeba of a Harnack curve, of area pi^2 d^2 / 2
    (Mikhalkin-Rullgard), and a subset elsewhere, so the value is a lower
    bound. Fubini splits the plane, with no tail, at x0 and x1, one unit
    outside the south tentacles: the columns over [x0, x1] as the rows of
    P(w, z), the rows of P left of x0 (the west tentacles), and the rows
    left of -x1 of the image q_{d-i-j, j} = p_{ij} of P under
    (z, w) -> (1/z, w/z), which swaps the west and north-east sides and
    keeps areas. A row piece's y-range starts 2 beyond its side's root logs
    and widens by 2 until both end rows are empty left of the cut. Each
    piece is split at its side's root logs, where the line length is
    log-singular, each part [a, b] is mapped by v = a + (b - a)(1 - cos t)/2,
    and all parts share one ``integrate_panels`` call at 1e-10. Raises
    RuntimeError ("no convergence") when a part does not converge or a row
    range does not close.
    """
    d = poly.d
    c = poly.coeffs
    bp = boundary_points(poly)
    south = np.log(np.abs(bp.on_w0))
    x0, x1 = float(south.min()) - 1.0, float(south.max()) + 1.0
    i, j = np.nonzero(np.add.outer(np.arange(d + 1), np.arange(d + 1)) <= d)
    image = np.zeros_like(c)
    image[d - i - j, j] = c[i, j]
    # (polynomial, the roots of its constant coefficient in w, the cut)
    pieces = [(BivariatePolynomial(d, c.T), bp.on_w0, math.inf),
              (poly, bp.on_z0, x0),
              (BivariatePolynomial(d, image), 1.0 / bp.at_inf, -x1)]
    parts = []
    for k, (piece, side, cut) in enumerate(pieces):
        logs = np.log(np.abs(side))
        if k == 0:
            a, b = x0, x1
        else:
            a, b = float(logs.min()) - 2.0, float(logs.max()) + 2.0
            for _ in range(40):
                ends = _row_lengths(piece, side, np.array([a, b]), cut)
                if not ends.any():
                    break
                a, b = a - 2.0 * (ends[0] > 0), b + 2.0 * (ends[1] > 0)
            else:
                raise RuntimeError(f"no convergence: amoeba area rows left of {cut} do not close")
        edges = np.unique(np.concatenate([[a], logs, [b]]))
        parts += [(k, lo, hi) for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist())]
    which, a, b = (np.array(v) for v in zip(*parts))

    def integrand(t, owner):
        v = a[owner] + (b[owner] - a[owner]) * 0.5 * (1.0 - np.cos(t))
        out = 0.5 * (b[owner] - a[owner]) * np.sin(t)
        for k, (piece, side, cut) in enumerate(pieces):
            at = which[owner] == k
            if at.any():
                out[at] *= _row_lengths(piece, side, v[at], cut)
        return out

    results = integrate_panels(integrand, [np.array([0.0, math.pi])] * len(parts), 1e-10)
    for (k, lo, hi), q in zip(parts, results):
        if not q.converged:
            raise RuntimeError(f"no convergence: amoeba area over [{lo}, {hi}] of piece {k} after {q.n} evaluations")
    return math.fsum(q.value for q in results)


def ronkin(poly: BivariatePolynomial, x: float, y: float) -> float:
    """Ronkin function R(x, y) of P, the one-point case of ``_ronkin_grid``.

    Averages log|P(e^{x+i phi}, e^{y+i psi})| over the torus; the psi average
    collapses by Jensen's formula to log|p_{0,d}| + sum_r max(y, log|w_r|).
    That integrand is even in phi (P is real), so it is integrated over
    [0, pi] with panels split at the crossings of y (``_crossings``), to
    1e-11 by ``integrate_panels``. Raises RuntimeError when that quadrature
    does not converge.
    """
    return float(_ronkin_grid(poly, np.array([x], dtype=float), np.array([y], dtype=float))[0, 0])


def _ronkin_grid(poly: BivariatePolynomial, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """R(xs[i], ys[l]) for every column xs[i] and level ys[l], shape (len(xs), len(ys)).

    One ``_crossings`` call finds the w-crossings of every level, each
    column's levels sharing its sweep, and one ``integrate_panels`` call
    integrates all the Jensen integrands over [0, pi], split at those
    crossings, by ``owner``: the kernel and half-period convention of
    ``_column_integrals``. Each value is the same to the bit as when its
    point is evaluated alone. Raises RuntimeError, naming the point, when a
    quadrature does not converge.
    """
    lead = abs(poly.corner("w"))
    if lead == 0.0:
        raise ValueError("vanishing corner coefficient p_{0,d}")
    crossings, _ = _crossings(poly.w_coefficients, xs, np.broadcast_to(ys, (xs.size, ys.size)))
    col, level = np.repeat(xs, ys.size), np.tile(ys, xs.size)

    def integrand(phis, owner):
        return np.maximum(level[owner, None], _w_logmods(poly, col[owner], phis)).sum(axis=1)

    results = integrate_panels(integrand, [np.concatenate([[0.0], c, [math.pi]]) for c in crossings], 1e-11)
    for x, y, q in zip(col.tolist(), level.tolist(), results):
        if not q.converged:
            raise RuntimeError(f"no convergence: Ronkin quadrature at ({x}, {y}) after {q.n} evaluations")
    return (math.log(lead) + np.array([q.value for q in results]) / math.pi).reshape(xs.size, ys.size)


def gradient_ronkin(poly: BivariatePolynomial, x: float, y: float) -> tuple[float, float]:
    """Exact gradient of the Ronkin function via root-count averages.

    dR/dx is the mean over psi of the number of z-roots inside |z| < e^x,
    dR/dy the mean over phi of the number of w-roots inside |w| < e^y. Both
    counts are even in the angle and piecewise constant, so each mean is
    the sum over the segments of [0, pi] between crossings (``_crossings``)
    of segment length times the count on the segment, over pi, both read
    off the same sweep. On complement components they are integers to
    machine precision.
    """
    gx, gy, _ = _gradient_crossings(poly, x, y)
    return gx, gy


def _gradient_crossings(poly: BivariatePolynomial, x: float, y: float) -> tuple[float, float, np.ndarray]:
    """``gradient_ronkin`` at (x, y), with the w-crossings in (0, pi) it read for dR/dy."""
    out = []
    for coefficients, col, level in ((poly.z_coefficients, y, x), (poly.w_coefficients, x, y)):
        (crossings,), (counts,) = _crossings(coefficients, np.array([col]), np.array([[level]]))
        edges = np.concatenate([[0.0], crossings, [math.pi]])
        # edges in units of pi: a single segment has length 1.0, so a constant count stays exact
        out.append(float(np.dot(np.diff(edges / math.pi), counts)))
    return out[0], out[1], crossings


def _ronkin_hessian(poly: BivariatePolynomial, x: float, y: float, phis: np.ndarray) -> np.ndarray:
    """Exact Hessian of R at (x, y) from its w-crossings ``phis`` in (0, pi).

    At a crossing the w-root w_c of P(z_c, w) with z_c = e^{x + i phi_c} has
    log|w_c| = y. Along the curve d log w / d log z = -rho with
    rho = z P_z / (w P_w), read from ``_partials``, so the crossing moves
    with x and the root count changes with y at the rates that give
    H = sum_c [[|rho|^2, Re rho], [Re rho, 1]] / (pi |Im rho|).
    With one crossing det H = 1/pi^2 identically; with none H = 0 (a facet).
    """
    z = np.exp(x + 1j * phis)
    roots = polyroots_batch(poly.w_coefficients(z))
    w = roots[np.arange(phis.size), np.argmin(np.abs(np.log(np.abs(roots)) - y), axis=1)]
    parts = [_partials(poly, zc, wc) for zc, wc in zip(z.tolist(), w.tolist())]
    rho = np.array([pz / pw for _, pz, pw, _ in parts], dtype=complex)
    weight = 1.0 / (math.pi * np.abs(rho.imag))
    hxy = float(np.dot(weight, rho.real))
    return np.array([[float(np.dot(weight, np.abs(rho) ** 2)), hxy], [hxy, float(weight.sum())]])


def _hessian_fd(f: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Hessian at step h from the values f[i, j] of a
    function at (x + (i - 1) h, y + (j - 1) h), i, j in 0, 1, 2."""
    fxx = (f[2, 1] + f[0, 1] - 2.0 * f[1, 1]) / h ** 2
    fyy = (f[1, 2] + f[1, 0] - 2.0 * f[1, 1]) / h ** 2
    fxy = (f[2, 2] + f[0, 0] - f[2, 0] - f[0, 2]) / (4.0 * h ** 2)
    return np.array([[fxx, fxy], [fxy, fyy]])


def monge_ampere_residual(
    poly: BivariatePolynomial,
    x: float,
    y: float,
    h: float = 1e-2,
) -> float:
    """det Hess R - 1/pi^2 by central differences at step h.

    Harnack curves satisfy det Hess R = 1/pi^2 on the amoeba interior. The
    stencil is the plain O(h^2) one, so refinement studies see clean decay.
    The point must be strictly inside the amoeba: the point and the ring of
    eight points at radius 3h around it are tested in one ``_membership``
    call. The nine stencil values come from one ``_ronkin_grid`` call over
    the columns x - h, x, x + h and the levels y - h, y, y + h.
    """
    dx, dy = np.array([(0.0, 0.0)] + _ring(3 * h)).T
    inside = _membership(poly, x + dx, y + dy)
    if not inside[0]:
        raise ValueError("point outside amoeba")
    if not inside.all():
        raise ValueError("point too close to amoeba boundary")
    hess = _hessian_fd(_ronkin_grid(poly, np.array([x - h, x, x + h]), np.array([y - h, y, y + h])), h)
    det = hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2
    return float(det - 1.0 / math.pi ** 2)


def _solve_gradient(poly: BivariatePolynomial, s: float, t: float) -> tuple[float, float, bool]:
    """Newton iteration on grad R = (s, t) with R's exact Hessian.

    Starts at the centre of ``auto_window(poly, pad=1)``. Each step solves
    H d = (s, t) - grad R with ``_ronkin_hessian``, read from the crossings
    the gradient found; where det H is below 1e-14 (a facet, no crossing)
    the step is twice the residual instead. Steps are clipped to 3 in the
    max norm and the point to the box [-35, 35]^2. Returns (x, y, converged):
    converged once the misfit is below 1e-10, within at most 60 steps.
    """
    win = auto_window(poly, pad=1.0)
    x, y = 0.5 * (win[0] + win[1]), 0.5 * (win[2] + win[3])
    for _ in range(60):
        gx, gy, phis = _gradient_crossings(poly, x, y)
        rx, ry = s - gx, t - gy
        if math.hypot(rx, ry) < 1e-10:
            return x, y, True
        (hxx, hxy), (_, hyy) = _ronkin_hessian(poly, x, y, phis)
        det = hxx * hyy - hxy * hxy
        if abs(det) < 1e-14:
            # near a facet: gradient is almost constant, walk uphill directly
            dx_step, dy_step = 2.0 * rx, 2.0 * ry
        else:
            dx_step = (hyy * rx - hxy * ry) / det
            dy_step = (-hxy * rx + hxx * ry) / det
        limit = max(abs(dx_step), abs(dy_step))
        if limit > 3.0:
            dx_step *= 3.0 / limit
            dy_step *= 3.0 / limit
        x = min(max(x + dx_step, -35.0), 35.0)
        y = min(max(y + dy_step, -35.0), 35.0)
    return x, y, False


def _hole_pixels(grid: AmoebaGrid, x: float, y: float) -> int:
    """Non-member pixels of ``grid`` 4-connected to the pixel holding (x, y).

    The region grows by repeated 4-neighbour dilation within the non-member
    mask. It is 0 when (x, y) lies outside the window or on a member pixel.
    """
    x0, x1, y0, y1 = grid.window
    ix = math.floor((x - x0) / (x1 - x0) * grid.nx)
    iy = math.floor((y - y0) / (y1 - y0) * grid.ny)
    free = ~grid.membership
    if not (0 <= ix < grid.nx and 0 <= iy < grid.ny and free[iy, ix]):
        return 0
    region = np.zeros_like(free)
    region[iy, ix] = True
    while True:
        grown = region.copy()
        grown[1:] |= region[:-1]
        grown[:-1] |= region[1:]
        grown[:, 1:] |= region[:, :-1]
        grown[:, :-1] |= region[:, 1:]
        grown &= free
        if np.array_equal(grown, region):
            return int(region.sum())
        region = grown


def _order_gaps(poly: BivariatePolynomial) -> tuple[list[Hole], list[Hole]]:
    """The holes and candidate nodes of ``detect_holes`` with no pixels counted."""
    holes, nodes = [], []
    for i in range(1, poly.d - 1):
        for j in range(1, poly.d - i):
            x, y, converged = _solve_gradient(poly, float(i), float(j))
            if not converged:
                raise RuntimeError(f"no convergence: hole solve of order ({i}, {j}) stopped at ({x}, {y})")
            lo, hi, _ = _branch_ranges(poly, np.array([x]))
            below, above = float(hi[0, j - 1]), float(lo[0, j])
            if above - below < -_NODE_TOL:
                continue
            mid = 0.5 * (below + above)
            hole = Hole(order=(i, j), pixel_count=0, area=0.0, deep_point=(float(x), mid),
                        intercept=ronkin(poly, x, mid) - i * x - j * mid)
            (holes if above - below > _NODE_TOL else nodes).append(hole)
    return holes, nodes


def detect_holes(poly: BivariatePolynomial, grid: AmoebaGrid | None = None, nx: int = 360) -> HoleReport:
    """Holes and candidate nodes of the amoeba, one per interior lattice order.

    On a Harnack curve each interior lattice point (i, j) of the Newton
    triangle is the order of one complement component, a hole or a node,
    where grad R = (i, j) (Passare-Rullgard); ``_solve_gradient`` lands
    there, whatever the component's size or position, or raises RuntimeError
    ("no convergence"). The gap of order j at the landing point (x, y) lies
    between the j-th and (j+1)-st sorted branch ranges of the column at x
    (``_branch_ranges``). Where they overlap by more than ``_NODE_TOL``
    (1e-6) the point is inside the amoeba, neither hole nor node; a gap
    wider than ``_NODE_TOL`` is a hole, a narrower one a candidate node.
    Each is reported at the deep point (x, middle of the gap), with
    intercept R - i x - j y there. ``pixel_count`` and ``area`` are the
    non-member pixels 4-connected to the deep point's pixel, from ``grid``
    or, when a hole was found, from an ``nx`` by ``nx`` raster over
    ``auto_window(poly)``; they are 0 for a node or a hole thinner than a pixel.
    """
    holes, nodes = _order_gaps(poly)
    if holes and grid is None:
        grid = rasterize_amoeba(poly, nx=nx, ny=nx)
    for k, hole in enumerate(holes):
        px, py = grid.pixel_size
        count = _hole_pixels(grid, *hole.deep_point)
        holes[k] = replace(hole, pixel_count=count, area=count * px * py)
    return HoleReport(holes=holes, genus=len(holes), candidate_nodes=nodes)


def facet_intercepts(poly: BivariatePolynomial) -> dict:
    """Intercepts of the affine-linear pieces of R over all complement components.

    The unbounded facets come in closed form from the boundary roots. Far
    south, R(x, y) tends to the Jensen mean of log|P(e^{x+i phi}, 0)|, that
    is log|p_{d,0}| + sum_i max(x, log|r_i|) over the ``on_w0`` roots r:
    between the k-th and (k+1)-st of them, sorted by log-modulus, R is
    k x + c_(k,0) with c_(k,0) = log|p_{d,0}| + sum_{i>k} log|r_i|. The west
    facets (0, k) read the ``on_z0`` roots with p_{0,d}, and the north-east
    facets (k, d-k) the ``at_inf`` roots (of s = z/w) with p_{d,0}. The
    corners (0, 0), (d, 0) and (0, d) are log|p_{0,0}|, log|p_{d,0}| and
    log|p_{0,d}|. Two roots within 1e-9 in log-modulus pinch their facet to
    a ray, which has no entry. The holes are those of ``detect_holes``, one
    Newton solve of grad R = (i, j) per interior order, without its raster.
    """
    d = poly.d
    c = poly.coeffs
    south, west, diag = _tentacle_logs(boundary_points(poly))
    out = {(0, 0): math.log(abs(c[0, 0])), (d, 0): math.log(abs(c[d, 0])), (0, d): math.log(abs(c[0, d]))}
    for k in range(1, d):
        for logs, lead, order in ((south, c[d, 0], (k, 0)), (west, c[0, d], (0, k)), (diag, c[d, 0], (k, d - k))):
            if logs[k] - logs[k - 1] > 1e-9:
                out[order] = math.log(abs(lead)) + float(logs[k:].sum())
    for hole in _order_gaps(poly)[0]:
        out[hole.order] = hole.intercept
    return out


def legendre_transform(poly: BivariatePolynomial, s: float, t: float) -> float:
    """R^v(s, t) = sup_{x,y} (s x + t y - R(x, y)) on the Newton triangle.

    For (s, t) interior to the triangle the supremum is attained where
    grad R = (s, t), which ``_solve_gradient`` finds by Newton iteration
    with R's exact Hessian. Boundary or lattice (s, t) make the maximizer
    run to infinity, so the iteration is capped and the value is read where
    it stopped.
    """
    d = poly.d
    if not (-1e-12 <= s and -1e-12 <= t and s + t <= d + 1e-12):
        raise ValueError("dual point outside the Newton triangle")
    x, y, _ = _solve_gradient(poly, s, t)
    return s * x + t * y - ronkin(poly, x, y)


def legendre_dual_residual(poly: BivariatePolynomial, s: float, t: float) -> float:
    """det Hess R^v - pi^2 by central differences at step 1e-2.

    The dual Monge-Ampere check.
    """
    h = 1e-2
    values = [[legendre_transform(poly, s + i * h, t + j * h) for j in (-1, 0, 1)] for i in (-1, 0, 1)]
    hess = _hessian_fd(np.array(values), h)
    return float(hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2 - math.pi ** 2)


def _column_integrals(poly: BivariatePolynomial, xs, y0, y1) -> np.ndarray:
    """Integral of R(x, y) over y in [y0, y1] for each x in ``xs``; exact in y,
    adaptive in phi to 1e-9.

    ``y0`` and ``y1`` are scalars or arrays shaped like ``xs``. P has real
    coefficients, so the w-root moduli at phi and 2pi - phi agree and the phi
    integrand is even: each column is integrated over [0, pi] only, and all
    columns share one ``integrate_panels`` call. Raises RuntimeError, naming
    the column's x, when a phi quadrature does not converge.
    """
    xs = np.asarray(xs, dtype=float)
    y0 = np.broadcast_to(np.asarray(y0, dtype=float), xs.shape)
    y1 = np.broadcast_to(np.asarray(y1, dtype=float), xs.shape)
    lead = abs(poly.corner("w"))

    def integrand(phis, owner):
        # the y-integral of max(y, log|w_r|): clip each log modulus into [y0, y1]
        logs = _w_logmods(poly, xs[owner], phis)
        lo, hi = y0[owner, None], y1[owner, None]
        clipped = np.clip(logs, lo, hi)
        return (logs * (clipped - lo) + 0.5 * (hi ** 2 - clipped ** 2)).sum(axis=1)

    results = integrate_panels(integrand, [np.array([0.0, math.pi])] * xs.size, 1e-9)
    for x, q in zip(xs, results):
        if not q.converged:
            raise RuntimeError(f"no convergence: Ronkin column integral at x = {float(x)} after {q.n} evaluations")
    return (y1 - y0) * math.log(lead) + np.array([q.value for q in results]) / math.pi


def _simpson(vals: np.ndarray, h: float) -> float:
    """Composite Simpson sum of samples at spacing h over an even number of panels."""
    return h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-2:2].sum())


def _volume_over_box(poly1, poly2, box) -> float:
    """Integral of R1 - R2 over the box by Simpson in x, doubling from 64
    panels until two sums agree to relative 1e-6 (at most four doublings).
    Each Simpson level integrates all its new columns together."""
    x0, x1, y0, y1 = box

    def f(xs):
        return _column_integrals(poly1, xs, y0, y1) - _column_integrals(poly2, xs, y0, y1)

    n = 64
    xs = np.linspace(x0, x1, n + 1)
    vals = f(xs)
    simpson = _simpson(vals, (x1 - x0) / n)
    for _ in range(4):
        mids = 0.5 * (xs[:-1] + xs[1:])
        mid_vals = f(mids)
        n *= 2
        merged = np.empty(n + 1)
        merged[0::2] = vals
        merged[1::2] = mid_vals
        xs = np.linspace(x0, x1, n + 1)
        vals = merged
        refined = _simpson(vals, (x1 - x0) / n)
        if abs(refined - simpson) < 1e-6 * max(1e-3, abs(refined)):
            return refined
        simpson = refined
    return simpson


def _strips_integral(poly1, poly2, strips) -> float:
    """Integral of R1 - R2 over strips (x0, x1, y0, y1) by a fixed 16-panel
    Simpson rule in x each; the integrand decays exponentially out there.
    The columns of all strips are integrated together."""
    n = 16
    xs = np.concatenate([np.linspace(sx0, sx1, n + 1) for sx0, sx1, _, _ in strips])
    y0 = np.repeat([sy0 for _, _, sy0, _ in strips], n + 1)
    y1 = np.repeat([sy1 for _, _, _, sy1 in strips], n + 1)
    vals = _column_integrals(poly1, xs, y0, y1) - _column_integrals(poly2, xs, y0, y1)
    return sum(
        _simpson(v, (sx1 - sx0) / n) for v, (sx0, sx1, _, _) in zip(vals.reshape(len(strips), n + 1), strips)
    )


def volume_difference(poly1: BivariatePolynomial, poly2: BivariatePolynomial) -> float:
    """Integral of R1 - R2 over the plane for curves with equal boundary data.

    Both polynomials are normalized to constant term 1; their boundary
    coefficients must then agree to relative 1e-9, which makes R1 - R2 decay
    exponentially and the integral converge. The integral over the padded
    amoeba box is followed by up to six rings of width 1, and the loop stops
    early once a ring contributes less than 1e-4 of the accumulated value.
    On the c12 pair that early stop never fires (the ring sums fall from
    1.2e-2 to 5.6e-4, still 4.6e-3 of the total), so the six-ring cap
    decides the value.

    Every column integral runs over half the phi period (P is real), and
    the columns of one Simpson level, or of the four strips of one ring,
    share one adaptive quadrature whose integrand sees at most
    ``numerics.MAX_PANELS_PER_CALL`` panels (3,072 phi nodes) per root
    batch.
    """
    if poly1.d != poly2.d:
        raise ValueError("different boundary data: degrees differ")
    c1 = poly1.coeffs / poly1.coeffs[0, 0]
    c2 = poly2.coeffs / poly2.coeffs[0, 0]
    d = poly1.d
    scale = max(np.max(np.abs(c1)), np.max(np.abs(c2)))
    for i in range(d + 1):
        for j in range(d + 1):
            if i + j > d:
                continue
            on_boundary = i == 0 or j == 0 or i + j == d
            if on_boundary and abs(c1[i, j] - c2[i, j]) > 1e-9 * scale:
                raise ValueError("different boundary data")
    p1 = BivariatePolynomial(d, c1)
    p2 = BivariatePolynomial(d, c2)

    w1 = auto_window(p1, pad=3.0)
    w2 = auto_window(p2, pad=3.0)
    box = (min(w1[0], w2[0]), max(w1[1], w2[1]), min(w1[2], w2[2]), max(w1[3], w2[3]))
    total = _volume_over_box(p1, p2, box)

    for _ in range(6):
        x0, x1, y0, y1 = box
        gx0, gx1, gy0, gy1 = x0 - 1.0, x1 + 1.0, y0 - 1.0, y1 + 1.0
        # left, right, bottom and top strips of the ring around the box
        ring = _strips_integral(p1, p2, [
            (gx0, x0, gy0, gy1),
            (x1, gx1, gy0, gy1),
            (x0, x1, gy0, y0),
            (x0, x1, y1, gy1),
        ])
        total += ring
        box = (gx0, gx1, gy0, gy1)
        if abs(ring) < 1e-4 * max(1e-8, abs(total)):
            break
    return float(total)


def two_to_one_check(
    poly: BivariatePolynomial,
    x: float,
    y: float,
) -> int:
    """Number of preimages of (x, y) under the amoeba map.

    A preimage is a curve point with |z| = e^x and |w| = e^y. P is real, so
    one off the real z-axis comes with its conjugate: each w-crossing of y
    in (0, pi) (``_crossings``) gives two. At z = +-e^x the preimages are the
    roots of P(z, w) whose log-modulus lies within ``_NODE_TOL`` of y, and
    roots closer than ``_NODE_TOL`` relative to each other count once, so a
    real node counts 1. Harnack curves give exactly 2 at interior points
    (Mikhalkin-Rullgard).
    """
    count = 2 * _crossings(poly.w_coefficients, np.array([x]), np.array([[y]]))[0][0].size
    for roots in polyroots_batch(poly.w_coefficients(np.array([math.exp(x), -math.exp(x)]))):
        near = roots[np.abs(np.log(np.maximum(np.abs(roots), 1e-300)) - y) < _NODE_TOL]
        count += sum(all(abs(r - s) >= _NODE_TOL * abs(r) for s in near[:k]) for k, r in enumerate(near))
    return count


def _partials(poly: BivariatePolynomial, z, w):
    """P, z P_z, w P_w and the term-modulus scale sum |p_ij| |z|^i |w|^j at (z, w).

    One plain-Python Horner pass, for real or complex z and w, in the
    Horner order of ``BivariatePolynomial.__call__``. At real z and w
    numpy's complex product has real part ar*br - 0*0 = ar*br, so P equals
    ``poly(z, w).real`` (a zero may differ in sign).
    """
    d = poly.d
    c = poly.coeffs.tolist()
    az, aw = abs(z), abs(w)
    p = pz = pw = scale = 0.0
    for j in range(d, -1, -1):
        col = dcol = acol = 0.0
        for i in range(d, -1, -1):
            dcol = dcol * z + col
            col = col * z + c[i][j]
            acol = acol * az + abs(c[i][j])
        pw = pw * w + p
        p = p * w + col
        pz = pz * w + dcol
        scale = scale * aw + acol
    return p, z * pz, w * pw, scale


def _newton_to_curve(poly, signs, point):
    """Project a (X, Y) log-point onto the real curve branch in its quadrant.

    Newton steps along the log gradient (z P_z, w P_w), at most 30, until
    |P| is below 1e-13 of the sum of its term moduli at the point the step
    starts from; None when that fails.
    """
    sz, sw = signs
    X, Y = point
    for _ in range(30):
        f, fx, fy, scale = _partials(poly, sz * math.exp(X), sw * math.exp(Y))
        norm2 = fx * fx + fy * fy
        if norm2 == 0:
            return None
        step = f / norm2
        X, Y = X - step * fx, Y - step * fy
        if abs(f) < 1e-13 * scale:
            return X, Y
    return None


def trace_real_ovals(
    poly: BivariatePolynomial,
    window: tuple[float, float, float, float] | None = None,
    n_seed: int = 240,
    max_steps: int = 4000,
) -> list[RealOval]:
    """Trace connected components of the real locus, one sign quadrant at a time.

    Seeds come from real roots along coordinate slices. Each unclaimed seed is
    projected onto the curve and continued by predictor-corrector steps in log
    coordinates. A component is a closed (compact) oval when the walk returns
    to its start inside the window. Otherwise the walk is repeated backward
    from the same start, and the two walks join into one open arc. Every seed
    near the component is then claimed, so each component inside the window is
    traced once. ``stalled`` marks a component whose walk ended on a tiny step
    or on max_steps rather than by closing or leaving the window.
    """
    if window is None:
        window = auto_window(poly, pad=3.0)
    ovals: list[RealOval] = []
    for signs, seeds in _quadrant_seeds(poly, window, n_seed).items():
        sz, sw = signs
        seed_arr = np.asarray(seeds, dtype=float).reshape(-1, 2)
        claimed = np.zeros(len(seeds), dtype=bool)
        for idx in range(len(seeds)):
            if claimed[idx]:
                continue
            claimed[idx] = True
            start = _newton_to_curve(poly, signs, seeds[idx])
            if start is None:
                continue
            path, end = _trace_from(poly, signs, start, window, max_steps, 1)
            stalled = end == "stalled"
            if end != "closed":
                back, back_end = _trace_from(poly, signs, start, window, max_steps, -1)
                stalled = stalled or back_end == "stalled"
                path = back[::-1] + path[1:]
            if len(path) < 4:
                continue
            arr = np.asarray(path)
            _claim_near(seed_arr, claimed, arr, 0.08)
            pts = np.column_stack([sz * np.exp(arr[:, 0]), sw * np.exp(arr[:, 1])])
            ovals.append(RealOval(points=pts, closed=end == "closed", quadrant=signs, stalled=stalled))
    return ovals


def _claim_near(seeds: np.ndarray, claimed: np.ndarray, path: np.ndarray, radius: float) -> None:
    """Claim every seed closer than radius to a point of path.

    The path is taken in blocks of 32 points, which bounds the seed-by-point
    distance matrix of a long walk.
    """
    for k in range(0, len(path), 32):
        open_idx = np.flatnonzero(~claimed)
        block = path[k:k + 32]
        dist = np.hypot(seeds[open_idx, 0, None] - block[:, 0], seeds[open_idx, 1, None] - block[:, 1])
        claimed[open_idx[(dist < radius).any(axis=1)]] = True


def _quadrant_seeds(poly, window, n_seed):
    """Real points of the curve on n_seed z-slices and n_seed w-slices of the window.

    Returns a dict from sign quadrant (sz, sw) to its (X, Y) log-points: the
    z-slice points in slice order, then the w-slice points. One root batch is
    solved per slice axis and sign, and both signs of the other coordinate
    share it.
    """
    x0, x1, y0, y1 = window
    seeds: dict[tuple[int, int], list] = {(sz, sw): [] for sz in (1, -1) for sw in (1, -1)}
    for axis, slices, (lo, hi) in ((0, np.linspace(x0, x1, n_seed), (y0, y1)),
                                    (1, np.linspace(y0, y1, n_seed), (x0, x1))):
        coefficients = poly.w_coefficients if axis == 0 else poly.z_coefficients
        for s in (1, -1):
            roots = polyroots_batch(coefficients(np.array([s * math.exp(v) for v in slices])))
            for other in (1, -1):
                quadrant = seeds[(s, other) if axis == 0 else (other, s)]
                for v, rts in zip(slices, roots):
                    for r in rts:
                        if abs(r.imag) < 1e-9 * max(1.0, abs(r)) and r.real * other > 0:
                            u = math.log(abs(r.real))
                            if lo <= u <= hi:
                                quadrant.append((v, u) if axis == 0 else (u, v))
    return seeds


def _trace_from(poly, signs, start, window, max_steps, sense):
    """Walk the real curve from the on-curve log-point start along sense times its tangent.

    Returns the path and how the walk ended: "closed" (back at start after
    one full turn), "left" (outside the window plus a margin) or "stalled"
    (the step fell below 1e-6, or max_steps ran out).
    """
    x0, x1, y0, y1 = window
    sz, sw = signs
    margin = 0.5

    def tangent(X, Y):
        _, fx, fy, _ = _partials(poly, sz * math.exp(X), sw * math.exp(Y))
        norm = math.hypot(fx, fy)
        if norm == 0:
            return None
        return -fy / norm, fx / norm

    path = [start]
    X, Y = start
    t = tangent(X, Y)
    if t is None:
        return path, "stalled"
    if sense < 0:
        t = (-t[0], -t[1])
    h = 0.02
    total_turn = 0.0
    for step_idx in range(max_steps):
        Xp, Yp = X + h * t[0], Y + h * t[1]
        proj = _newton_to_curve(poly, signs, (Xp, Yp))
        far = proj is None or math.hypot(proj[0] - Xp, proj[1] - Yp) > 2.0 * h
        tn = None if far else tangent(*proj)
        # keep orientation consistent
        if tn is not None and t[0] * tn[0] + t[1] * tn[1] < 0:
            tn = (-tn[0], -tn[1])
        turn = math.inf if tn is None else math.atan2(t[0] * tn[1] - t[1] * tn[0], t[0] * tn[0] + t[1] * tn[1])
        if abs(turn) > 0.35:
            # no projection near the predictor, no tangent there, or too sharp a turn
            h *= 0.5
            if h < 1e-6:
                return path, "stalled"
            continue
        total_turn += turn
        X, Y, t = proj[0], proj[1], tn
        path.append((X, Y))
        if abs(turn) < 0.05 and h < 0.08:
            h = min(1.5 * h, 0.08)
        if not (x0 - margin <= X <= x1 + margin and y0 - margin <= Y <= y1 + margin):
            return path, "left"
        if step_idx > 8:
            dx = X - start[0]
            dy = Y - start[1]
            if math.hypot(dx, dy) < 1.2 * h and abs(abs(total_turn) - 2 * math.pi) < 1.0:
                path.append(start)
                return path, "closed"
    return path, "stalled"


@dataclass(frozen=True)
class HarnackCertificate:
    checks: dict[str, bool]
    details: dict[str, object]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def verify_harnack(poly: BivariatePolynomial, seed: int = 0) -> HarnackCertificate:
    """Certificate that P is (numerically) the polynomial of a Harnack curve.

    Checks: real constant-sign boundary points, ``amoeba_area`` within
    1e-7 relative of pi^2 d^2 / 2 (that area is a lower bound off the
    Harnack family, so a pass is sound; no raster is built), 2-to-1
    covering at 10 interior points of ``sample_interior`` (seeded by
    ``seed``), and compact ovals at most Harnack's bound (d-1)(d-2)/2 and as
    many as the holes, which come from the per-order Newton solves of
    ``detect_holes`` without its pixel counts. A failed boundary or area
    check returns at once, without the later checks.
    """
    checks: dict[str, bool] = {}
    details: dict[str, object] = {}

    try:
        bp = boundary_points(poly)
        checks["boundary_real"] = True
        checks["boundary_signs"] = bp.constant_signs()
    except ValueError as exc:
        checks["boundary_real"] = False
        checks["boundary_signs"] = False
        details["boundary_error"] = str(exc)
        return HarnackCertificate(checks=checks, details=details)

    d = poly.d
    area = amoeba_area(poly)
    target = math.pi ** 2 * d ** 2 / 2.0
    checks["area"] = abs(area - target) < 1e-7 * target
    details["area"] = area
    details["area_target"] = target
    if not checks["area"]:
        return HarnackCertificate(checks=checks, details=details)

    holes, nodes = _order_gaps(poly)
    details["genus"] = len(holes)
    details["candidate_nodes"] = len(nodes)

    values = [two_to_one_check(poly, x, y) for x, y in sample_interior(poly, 10, np.random.default_rng(seed))]
    checks["two_to_one"] = all(n == 2 for n in values)
    details["two_to_one_counts"] = values

    ovals = trace_real_ovals(poly)
    compact = sum(1 for o in ovals if o.closed)
    details["compact_ovals"] = compact
    # Harnack's bound: a curve with this Newton triangle has at most (d-1)(d-2)/2 compact ovals
    checks["genus_bound"] = compact <= (d - 1) * (d - 2) // 2
    checks["ovals_match_holes"] = compact == len(holes)
    return HarnackCertificate(checks=checks, details=details)
