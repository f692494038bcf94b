"""Amoeba and Ronkin-function numerics for spectral curves.

The amoeba of P is the image of its zero set under (z, w) -> (log|z|, log|w|).
Membership at (x, y) is decided by sweeping phi in z = exp(x + i phi) and
watching the count of w-roots below the circle |w| = exp(y): any change in the
count, or a root grazing the circle, certifies intersection. The Ronkin
function is evaluated by a Jensen-type reduction to a one-dimensional
integral over phi, split at the angles where a root modulus crosses exp(y);
its gradient has exact piecewise-constant counting integrands, which makes
facet slopes of complement components come out at nearly machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kasteleyn import BivariatePolynomial, BoundaryPoints, boundary_points
from .numerics import integrate_periodic_kinked, polyroots_batch

__all__ = [
    "AmoebaGrid",
    "AreaEstimate",
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
    ronkin_values: np.ndarray | None = field(default=None)
    refined: int = 0  # pixels sent to the refined (dip-zoom) membership test

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
class AreaEstimate:
    value: float
    error_bar: float
    frame_warning: bool

    def __float__(self) -> float:
        return self.value


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


def auto_window(poly: BivariatePolynomial, pad: float = 2.0) -> tuple[float, float, float, float]:
    """Bounding box of the boundary-point logs, padded."""
    bp = boundary_points(poly)
    pool = np.concatenate([
        np.log(np.abs(bp.on_w0)),
        np.log(np.abs(bp.on_z0)),
        np.log(np.abs(bp.at_inf)),
    ])
    lo, hi = float(pool.min()) - pad, float(pool.max()) + pad
    return (lo, hi, lo, hi)


def _sweep_angles(n_phi: int) -> np.ndarray:
    """The phi-sweep grid: n_phi equally spaced angles in [0, 2pi)."""
    # irrational offset keeps samples off symmetry axes
    return 2.0 * np.pi * (np.arange(n_phi) + 0.382) / n_phi


def _root_logmods(rows: np.ndarray) -> np.ndarray:
    """log|root| for each coefficient row, shape (rows, degree); _NEG_INF for a zero root."""
    mods = np.abs(polyroots_batch(rows))
    return np.where(mods > 0, np.log(np.where(mods > 0, mods, 1.0)), _NEG_INF)


def _w_logmods(poly: BivariatePolynomial, x: float, phis: np.ndarray) -> np.ndarray:
    """log|w_r| for the roots of w -> P(e^{x+i phi}, w), shape (len(phis), d)."""
    return _root_logmods(poly.w_coefficients(np.exp(x + 1j * phis)))


def _dips(poly: BivariatePolynomial, x: float, ys: np.ndarray, phis: np.ndarray, gaps: np.ndarray,
          cap: float, points: int, zooms: int):
    """Refined local minima of gap_j(phi) = min_r |log|w_r| - ys[j]| along the sweep.

    ``gaps`` holds the samples on the sweep grid ``phis``, one row per level
    in ``ys``. Each sampled local minimum below ``cap`` is zoomed ``zooms``
    times: a ``points``-point grid over one sample step either side, then
    over a quarter of the previous span around its best point. All dips are
    zoomed in lockstep, one root batch per round. Returns (owner, phi, gap):
    the row of each dip, ordered by row and then by angle, and phi and gap
    at its last best point.
    """
    is_min = (gaps <= np.roll(gaps, 1, axis=1)) & (gaps <= np.roll(gaps, -1, axis=1)) & (gaps < cap)
    owner, idx = np.nonzero(is_min)
    if owner.size == 0:
        return owner, np.empty(0), np.empty(0)
    step = 2.0 * np.pi / phis.size
    lo, hi = phis[idx] - step, phis[idx] + step
    levels = ys[owner][:, None, None]
    rows = np.arange(owner.size)
    for _ in range(zooms):
        grid = np.linspace(lo, hi, points, axis=1)
        logs = _w_logmods(poly, x, np.mod(grid, 2.0 * np.pi).reshape(-1))
        vals = np.min(np.abs(logs.reshape(owner.size, points, -1) - levels), axis=2)
        k = np.argmin(vals, axis=1)
        width = (hi - lo) / 8.0
        best = grid[rows, k]
        lo, hi = best - width, best + width
    return owner, np.mod(best, 2.0 * np.pi), vals[rows, k]


def _column_members(poly: BivariatePolynomial, x: float, ys: np.ndarray, n_phi: int = 256,
                    dip_tol: float = 1e-7) -> np.ndarray:
    """Amoeba membership of (x, y) for every y in ``ys``, from one phi sweep at x.

    A level is a member when the w-root count below exp(y) changes along the
    sweep. Along the real locus the two conjugate intersections collide, the
    root modulus only touches the level tangentially and the count never
    jumps, so local minima of the modulus distance at the remaining levels
    are refined and compared to ``dip_tol``.
    """
    phis = _sweep_angles(n_phi)
    logs = _w_logmods(poly, x, phis)
    counts = (logs[None, :, :] < ys[:, None, None]).sum(axis=2)
    member = counts.min(axis=1) != counts.max(axis=1)
    rest = np.nonzero(~member)[0]
    if rest.size:
        gaps = np.min(np.abs(logs[None, :, :] - ys[rest, None, None]), axis=2)
        owner, _, dip = _dips(poly, x, ys[rest], phis, gaps, cap=0.05, points=17, zooms=8)
        member[rest[owner[dip < dip_tol]]] = True
    return member


def _crossing_angles(logmods_fn, level: float, n_phi: int = 256, refine: int = 50):
    """Angles where the root count below ``level`` jumps, with interval data.

    Returns (angles, counts, jumps): sorted crossing angles in [0, 2pi), the
    root count on the sampled grid, and the signed jump at each crossing.
    Crossings are refined by vectorized bisection on the count function.
    """
    phis = _sweep_angles(n_phi)
    counts = (logmods_fn(phis) < level).sum(axis=1)
    diff = np.diff(np.concatenate([counts, counts[:1]]))
    idx = np.nonzero(diff)[0]
    if idx.size == 0:
        return np.empty(0), counts, np.empty(0, dtype=int)
    lo = phis[idx]
    hi = np.where(idx + 1 < n_phi, phis[(idx + 1) % n_phi], phis[0] + 2.0 * np.pi)
    clo = counts[idx]
    for _ in range(refine):
        mid = 0.5 * (lo + hi)
        cmid = (logmods_fn(np.mod(mid, 2.0 * np.pi)) < level).sum(axis=1)
        take_hi = cmid != clo
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
        if np.max(hi - lo) < 1e-14:
            break
    angles = np.mod(0.5 * (lo + hi), 2.0 * np.pi)
    order = np.argsort(angles)
    return angles[order], counts, diff[idx][order]


def amoeba_membership(
    poly: BivariatePolynomial,
    x: float,
    y: float,
    n_phi: int = 256,
    dip_tol: float = 1e-7,
) -> bool:
    """Whether (x, y) lies in the amoeba of P.

    True when the w-root count below exp(y) changes along the phi sweep, or
    a refined dip of the root-modulus distance falls below ``dip_tol``; the
    one-point case of the raster's column test.
    """
    return bool(_column_members(poly, x, np.array([y], dtype=float), n_phi, dip_tol)[0])


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
    ``monge_ampere_residual`` makes at ring = 3h. Raises RuntimeError after
    4000 draws per requested point.
    """
    x0, x1, y0, y1 = auto_window(poly, pad=0.5)
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 4000 * count:
            raise RuntimeError("no convergence: interior point sampling stalled")
        x = rng.uniform(x0, x1)
        y = rng.uniform(y0, y1)
        if all(
            amoeba_membership(poly, x + dx, y + dy)
            for dx, dy in ((0, 0), (margin, 0), (-margin, 0), (0, margin), (0, -margin))
        ) and (ring <= 0.0 or _ring_inside(poly, x, y, ring)):
            points.append((x, y))
    return points


def _ring_inside(poly: BivariatePolynomial, x: float, y: float, radius: float) -> bool:
    """Whether the eight points at ``radius`` around (x, y) are amoeba members."""
    for k in range(8):
        ang = 2.0 * math.pi * k / 8.0
        if not amoeba_membership(poly, x + radius * math.cos(ang), y + radius * math.sin(ang)):
            return False
    return True


def _frame_consistent(member: np.ndarray, grid_window, nx, ny, poly) -> bool:
    """Every member pixel on the frame must sit near an expected tentacle ray."""
    x0, x1, y0, y1 = grid_window
    px = (x1 - x0) / nx
    py = (y1 - y0) / ny
    xc = x0 + (np.arange(nx) + 0.5) * px
    yc = y0 + (np.arange(ny) + 0.5) * py
    bp = boundary_points(poly)
    south = np.log(np.abs(bp.on_w0))
    west = np.log(np.abs(bp.on_z0))
    diag = np.log(np.abs(bp.at_inf))
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
    n_phi: int = 160,
) -> AmoebaGrid:
    """Pixel raster of amoeba membership.

    Each pixel column shares one phi sweep: the pixel at row iy is a member
    when the root count below its center level varies over phi. A narrow
    grazing band (capped well below the pixel size so the area estimator
    stays unbiased) catches tangential intersections the count cannot see:
    the column's pixels in that band get the refined test of
    ``amoeba_membership`` together, from one finer sweep with their dips
    zoomed in lockstep. ``AmoebaGrid.refined`` counts them.
    """
    if window is None:
        window = auto_window(poly)
    x0, x1, y0, y1 = window
    if not (x1 > x0 and y1 > y0):
        raise ValueError("window must have positive extent")
    px = (x1 - x0) / nx
    py = (y1 - y0) / ny
    xc = x0 + (np.arange(nx) + 0.5) * px
    yc = y0 + (np.arange(ny) + 0.5) * py
    # count-constant pixels this close to the root-modulus pool may hide a
    # narrow dip (real-locus tangency or a sub-sample crossing pair) and get
    # the refined point query instead of the coarse verdict
    suspect = max(1.5 * py, 4e-3)
    phis = _sweep_angles(n_phi)
    member = np.empty((ny, nx), dtype=bool)
    refined = 0
    for ix in range(nx):
        x = float(xc[ix])
        logs = _w_logmods(poly, x, phis)
        counts = (logs[:, :, None] < yc[None, None, :]).sum(axis=1)
        varying = counts.max(axis=0) != counts.min(axis=0)
        flat = np.sort(logs.reshape(-1))
        pos = np.searchsorted(flat, yc)
        left = np.where(pos > 0, yc - flat[np.maximum(pos - 1, 0)], np.inf)
        right = np.where(pos < flat.size, flat[np.minimum(pos, flat.size - 1)] - yc, np.inf)
        member[:, ix] = varying
        rows = np.nonzero(~varying & (np.minimum(left, right) < suspect))[0]
        if rows.size:
            member[rows, ix] = _column_members(poly, x, yc[rows])
            refined += int(rows.size)
    frame_ok = _frame_consistent(member, window, nx, ny, poly)
    return AmoebaGrid(window=window, nx=nx, ny=ny, membership=member, frame_ok=frame_ok, refined=refined)


def amoeba_area(grid: AmoebaGrid) -> AreaEstimate:
    """Pixel-count area with a boundary-pixel error bar."""
    px, py = grid.pixel_size
    m = grid.membership
    inside = int(m.sum())
    # boundary pixels: members with a non-member 4-neighbour
    shifted = np.zeros_like(m)
    boundary = np.zeros_like(m)
    for axis, sign in ((0, 1), (0, -1), (1, 1), (1, -1)):
        shifted = np.roll(m, sign, axis=axis)
        if axis == 0:
            if sign == 1:
                shifted[0, :] = False
            else:
                shifted[-1, :] = False
        else:
            if sign == 1:
                shifted[:, 0] = False
            else:
                shifted[:, -1] = False
        boundary |= m & ~shifted
    err = float(boundary.sum()) * px * py * 0.5
    return AreaEstimate(value=inside * px * py, error_bar=err, frame_warning=not grid.frame_ok)


def ronkin(poly: BivariatePolynomial, x: float, y: float, tol: float = 1e-11) -> float:
    """Ronkin function R(x, y) of P.

    Averages log|P(e^{x+i phi}, e^{y+i psi})| over the torus; the psi average
    collapses by Jensen's formula to log|p_{0,d}| + sum_r max(y, log|w_r|),
    which is integrated over phi with panels split at the crossing angles.
    Raises RuntimeError when that quadrature does not converge.
    """
    lead = abs(poly.corner("w"))
    if lead == 0.0:
        raise ValueError("vanishing corner coefficient p_{0,d}")

    def logs_at(phis):
        return _w_logmods(poly, x, phis)

    kinks, _, _ = _crossing_angles(logs_at, y)

    def integrand(phis):
        return np.maximum(y, _w_logmods(poly, x, phis)).sum(axis=1)

    q = integrate_periodic_kinked(integrand, kinks, tol=tol)
    if not q.converged:
        raise RuntimeError(f"no convergence: Ronkin quadrature at ({x}, {y}) after {q.n} evaluations")
    return math.log(lead) + q.value / (2.0 * math.pi)


def gradient_ronkin(poly: BivariatePolynomial, x: float, y: float) -> tuple[float, float]:
    """Exact gradient of the Ronkin function via root-count averages.

    dR/dy is the mean over phi of the number of w-roots inside |w| < e^y;
    dR/dx the mean over psi of the number of z-roots inside |z| < e^x. Both
    integrands are piecewise constant, so the averages reduce to the crossing
    angles found by bisection; on complement components they are integers to
    machine precision.
    """
    out = []
    for which in ("x", "y"):
        if which == "y":
            fn = lambda phis: _w_logmods(poly, x, phis)
            level = y
        else:
            fn = lambda psis: _root_logmods(poly.z_coefficients(np.exp(y + 1j * psis)))
            level = x
        angles, counts, jumps = _crossing_angles(fn, level)
        if angles.size == 0:
            out.append(float(counts[0]))
            continue
        # counts between consecutive crossing angles: start from the count at
        # the first sample beyond angles[-1], then accumulate jumps
        probe = np.mod(angles[0] - 1e-9, 2.0 * np.pi)
        base = int((fn(np.array([probe])) < level).sum())
        total = 0.0
        current = base
        for k in range(angles.size):
            current = current + int(jumps[k])
            seg = (angles[(k + 1) % angles.size] - angles[k]) % (2.0 * np.pi)
            total += current * seg
        out.append(total / (2.0 * math.pi))
    return out[0], out[1]


def _hessian_fd(poly, x, y, h):
    r = lambda xx, yy: ronkin(poly, xx, yy)
    rxx = (r(x + h, y) + r(x - h, y) - 2.0 * r(x, y)) / h ** 2
    ryy = (r(x, y + h) + r(x, y - h) - 2.0 * r(x, y)) / h ** 2
    rxy = (r(x + h, y + h) + r(x - h, y - h) - r(x + h, y - h) - r(x - h, y + h)) / (4.0 * h ** 2)
    return np.array([[rxx, rxy], [rxy, ryy]])


def monge_ampere_residual(
    poly: BivariatePolynomial,
    x: float,
    y: float,
    h: float = 1e-2,
    richardson: bool = False,
) -> float:
    """det Hess R - 1/pi^2 by central differences at step h.

    Harnack curves satisfy det Hess R = 1/pi^2 on the amoeba interior. The
    default is the plain O(h^2) stencil so refinement studies see clean decay;
    ``richardson`` switches on one extrapolation level. The point must be
    strictly inside the amoeba (a ring of radius 3h is checked).
    """
    if not amoeba_membership(poly, x, y):
        raise ValueError("point outside amoeba")
    if not _ring_inside(poly, x, y, 3 * h):
        raise ValueError("point too close to amoeba boundary")
    hess = _hessian_fd(poly, x, y, h)
    if richardson:
        hess = (4.0 * _hessian_fd(poly, x, y, h / 2.0) - hess) / 3.0
    det = hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2
    return float(det - 1.0 / math.pi ** 2)


def _components(mask: np.ndarray):
    """4-connected components of a boolean mask; returns labels and count."""
    ny, nx = mask.shape
    labels = np.full((ny, nx), -1, dtype=int)
    current = 0
    for sy in range(ny):
        for sx in range(nx):
            if not mask[sy, sx] or labels[sy, sx] >= 0:
                continue
            stack = [(sy, sx)]
            labels[sy, sx] = current
            while stack:
                cy, cx = stack.pop()
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ty, tx = cy + dy, cx + dx
                    if 0 <= ty < ny and 0 <= tx < nx and mask[ty, tx] and labels[ty, tx] < 0:
                        labels[ty, tx] = current
                        stack.append((ty, tx))
            current += 1
    return labels, current


def _deep_pixel(comp_mask: np.ndarray) -> tuple[int, int]:
    """Pixel of the component farthest from its boundary (BFS distance)."""
    from collections import deque

    ny, nx = comp_mask.shape
    dist = np.full((ny, nx), -1, dtype=int)
    queue = deque()
    ys, xs = np.nonzero(comp_mask)
    for cy, cx in zip(ys, xs):
        edge = cy in (0, ny - 1) or cx in (0, nx - 1)
        if not edge:
            for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if not comp_mask[cy + dy, cx + dx]:
                    edge = True
                    break
        if edge:
            dist[cy, cx] = 0
            queue.append((cy, cx))
    while queue:
        cy, cx = queue.popleft()
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ty, tx = cy + dy, cx + dx
            if 0 <= ty < ny and 0 <= tx < nx and comp_mask[ty, tx] and dist[ty, tx] < 0:
                dist[ty, tx] = dist[cy, cx] + 1
                queue.append((ty, tx))
    flat = int(np.argmax(np.where(comp_mask, dist, -1)))
    return flat // nx, flat % nx


def _complement_components(grid: AmoebaGrid):
    labels, count = _components(~grid.membership)
    bounded = []
    unbounded = []
    for lab in range(count):
        comp = labels == lab
        touches = comp[0, :].any() or comp[-1, :].any() or comp[:, 0].any() or comp[:, -1].any()
        (unbounded if touches else bounded).append(comp)
    return bounded, unbounded


def _hole_from_component(poly, grid, comp):
    xc, yc = grid.x_centers(), grid.y_centers()
    px, py = grid.pixel_size
    iy, ix = _deep_pixel(comp)
    x, y = float(xc[ix]), float(yc[iy])
    if amoeba_membership(poly, x, y, n_phi=512):
        # raster artifact: the pixel is actually inside the amoeba
        return None
    gx, gy = gradient_ronkin(poly, x, y)
    order = (round(gx), round(gy))
    if abs(gx - order[0]) > 1e-3 or abs(gy - order[1]) > 1e-3:
        # R is affine on a true complement component, so its gradient is an
        # integer pair to machine precision there. A fractional gradient means
        # the pixel sits inside the amoeba on the conjugate-collision line
        # where the membership probe can misfire; the component is a raster
        # sliver, not a hole.
        return None
    d = poly.d
    if not (0 <= order[0] and 0 <= order[1] and order[0] + order[1] <= d):
        raise ValueError("hole assignment failed: order outside the Newton triangle")
    intercept = ronkin(poly, x, y) - order[0] * x - order[1] * y
    return Hole(
        order=(int(order[0]), int(order[1])),
        pixel_count=int(comp.sum()),
        area=float(comp.sum()) * px * py,
        deep_point=(x, y),
        intercept=float(intercept),
    )


def _is_interior_order(order: tuple[int, int], d: int) -> bool:
    return order[0] >= 1 and order[1] >= 1 and order[0] + order[1] <= d - 1


def detect_holes(poly: BivariatePolynomial, grid: AmoebaGrid | None = None, nx: int = 360) -> HoleReport:
    """Bounded complement components with their lattice orders and intercepts.

    The order of a hole is the rounded Ronkin gradient at its deepest pixel;
    orders of genuine holes are distinct interior lattice points of the
    Newton triangle. A bounded component whose order lands on the triangle
    boundary is an unresolved gap between tentacles (the raster sealed it),
    not a hole, and is dropped. Components above 4 pixels count toward the
    genus, smaller ones are reported as candidate nodes.
    """
    if grid is None:
        grid = rasterize_amoeba(poly, nx=nx, ny=nx)
    bounded, _ = _complement_components(grid)
    holes = []
    for comp in bounded:
        hole = _hole_from_component(poly, grid, comp)
        if hole is not None and _is_interior_order(hole.order, poly.d):
            holes.append(hole)
    orders = [h.order for h in holes]
    if len(set(orders)) != len(orders):
        raise ValueError("hole assignment failed: duplicate orders")
    big = [h for h in holes if h.pixel_count > 4]
    small = [h for h in holes if h.pixel_count <= 4]
    big.sort(key=lambda h: h.order)
    return HoleReport(holes=big, genus=len(big), candidate_nodes=small)


def facet_intercepts(poly: BivariatePolynomial, grid: AmoebaGrid | None = None, nx: int = 360) -> dict:
    """Intercepts of the affine-linear pieces of R over all complement components.

    Unbounded facets are probed directly: the component of lattice order
    (k, 0) sits between the k-th and (k+1)-st south tentacle (sorted by their
    root logs), far below the amoeba body, and similarly for the west and
    north-east families. Probes move deeper until the exact Ronkin gradient
    matches the expected order, so tentacles thinner than any raster pixel
    are still separated. Bounded components come from ``detect_holes``.
    """
    bp = boundary_points(poly)
    d = poly.d
    south = np.sort(np.log(np.abs(bp.on_w0)))
    west = np.sort(np.log(np.abs(bp.on_z0)))
    diag = np.sort(np.log(np.abs(bp.at_inf)))
    floor = float(min(south.min(), west.min(), diag.min()))
    ceil = float(max(south.max(), west.max(), diag.max()))

    def gaps(roots, lo_pad, hi_pad):
        probes = [float(roots[0]) - lo_pad]
        for a, b in zip(roots[:-1], roots[1:]):
            if b - a > 1e-9:
                probes.append(float(0.5 * (a + b)))
            else:
                probes.append(None)  # pinched facet, no 2-D component
        probes.append(float(roots[-1]) + hi_pad)
        return probes

    out: dict[tuple[int, int], float] = {}

    def try_probe(x, y, order):
        for depth in (0.0, 4.0, 12.0, 24.0):
            xx = x(depth) if callable(x) else x
            yy = y(depth) if callable(y) else y
            gx, gy = gradient_ronkin(poly, xx, yy)
            if abs(gx - order[0]) < 1e-9 and abs(gy - order[1]) < 1e-9:
                val = ronkin(poly, xx, yy) - order[0] * xx - order[1] * yy
                if order in out and abs(val - out[order]) > 1e-7 * max(1.0, abs(val)):
                    raise ValueError(f"facet probe mismatch at {order}")
                out.setdefault(order, float(val))
                return
        raise ValueError(f"hole assignment failed: no facet probe for {order}")

    for k, x_probe in enumerate(gaps(south, 4.0, 4.0)):
        if x_probe is not None:
            try_probe(x_probe, lambda dep: floor - 4.0 - dep, (k, 0))
    for k, y_probe in enumerate(gaps(west, 4.0, 4.0)):
        if y_probe is not None:
            try_probe(lambda dep: floor - 4.0 - dep, y_probe, (0, k))
    # u = x - y increasing from -inf sweeps orders (0,d) ... (d,0)
    for k, u_probe in enumerate(gaps(diag, 4.0, 4.0)):
        if u_probe is not None:
            order = (k, d - k)
            try_probe(
                lambda dep, u=u_probe: ceil + 4.0 + dep + 0.5 * u,
                lambda dep, u=u_probe: ceil + 4.0 + dep - 0.5 * u,
                order,
            )
    for hole in detect_holes(poly, grid=grid, nx=nx).holes:
        out[hole.order] = hole.intercept
    return out


def legendre_transform(poly: BivariatePolynomial, s: float, t: float, tol: float = 1e-10) -> float:
    """R^v(s, t) = sup_{x,y} (s x + t y - R(x, y)) on the Newton triangle.

    For (s, t) interior to the triangle the supremum is attained where
    grad R = (s, t); Newton iteration on that equation uses the exact gradient
    and a finite-difference Hessian. Boundary or lattice (s, t) make the
    maximizer run to infinity, so the iteration is capped.
    """
    d = poly.d
    if not (-1e-12 <= s and -1e-12 <= t and s + t <= d + 1e-12):
        raise ValueError("dual point outside the Newton triangle")
    x, y = 0.0, 0.0
    win = auto_window(poly, pad=1.0)
    x = 0.5 * (win[0] + win[1])
    y = 0.5 * (win[2] + win[3])
    cap = 35.0
    for _ in range(60):
        gx, gy = gradient_ronkin(poly, x, y)
        rx, ry = s - gx, t - gy
        if math.hypot(rx, ry) < tol:
            break
        fd = 1e-4
        gxp = gradient_ronkin(poly, x + fd, y)
        gxm = gradient_ronkin(poly, x - fd, y)
        gyp = gradient_ronkin(poly, x, y + fd)
        gym = gradient_ronkin(poly, x, y - fd)
        hxx = (gxp[0] - gxm[0]) / (2 * fd)
        hxy = (gyp[0] - gym[0]) / (2 * fd)
        hyx = (gxp[1] - gxm[1]) / (2 * fd)
        hyy = (gyp[1] - gym[1]) / (2 * fd)
        det = hxx * hyy - hxy * hyx
        if abs(det) < 1e-14:
            # near a facet: gradient is almost constant, walk uphill directly
            dx_step, dy_step = 2.0 * rx, 2.0 * ry
        else:
            dx_step = (hyy * rx - hxy * ry) / det
            dy_step = (-hyx * rx + hxx * ry) / det
        limit = max(abs(dx_step), abs(dy_step))
        if limit > 3.0:
            dx_step *= 3.0 / limit
            dy_step *= 3.0 / limit
        x = min(max(x + dx_step, -cap), cap)
        y = min(max(y + dy_step, -cap), cap)
    return s * x + t * y - ronkin(poly, x, y)


def legendre_dual_residual(poly: BivariatePolynomial, s: float, t: float, h: float = 1e-2) -> float:
    """det Hess R^v - pi^2 by central differences; dual Monge-Ampere check."""
    rv = lambda ss, tt: legendre_transform(poly, ss, tt)
    vxx = (rv(s + h, t) + rv(s - h, t) - 2.0 * rv(s, t)) / h ** 2
    vyy = (rv(s, t + h) + rv(s, t - h) - 2.0 * rv(s, t)) / h ** 2
    vxy = (rv(s + h, t + h) + rv(s - h, t - h) - rv(s + h, t - h) - rv(s - h, t + h)) / (4.0 * h ** 2)
    return float(vxx * vyy - vxy ** 2 - math.pi ** 2)


def _column_integral(poly: BivariatePolynomial, x: float, y0: float, y1: float, tol: float = 1e-9) -> float:
    """Integral of R(x, y) over y in [y0, y1]; exact in y, adaptive in phi.

    Raises RuntimeError when the phi quadrature does not converge.
    """
    lead = abs(poly.corner("w"))

    def integrand(phis):
        logs = _w_logmods(poly, x, phis)
        below = logs <= y0
        above = logs >= y1
        mid = ~(below | above)
        vals = np.where(below, 0.5 * (y1 ** 2 - y0 ** 2), 0.0)
        vals = vals + np.where(above, logs * (y1 - y0), 0.0)
        vals = vals + np.where(mid, logs * (logs - y0) + 0.5 * (y1 ** 2 - logs ** 2), 0.0)
        return vals.sum(axis=1)

    q = integrate_periodic_kinked(integrand, [], tol=tol)
    if not q.converged:
        raise RuntimeError(f"no convergence: Ronkin column integral at x = {x} after {q.n} evaluations")
    return (y1 - y0) * math.log(lead) + q.value / (2.0 * math.pi)


def _simpson(vals: np.ndarray, h: float) -> float:
    """Composite Simpson sum of samples at spacing h over an even number of panels."""
    return h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-2:2].sum())


def _volume_over_box(poly1, poly2, box, rel_tol: float = 1e-6) -> float:
    """Integral of R1 - R2 over the box by adaptive Simpson in x."""
    x0, x1, y0, y1 = box

    def f(x):
        return _column_integral(poly1, x, y0, y1) - _column_integral(poly2, x, y0, y1)

    n = 64
    xs = np.linspace(x0, x1, n + 1)
    vals = np.array([f(x) for x in xs])
    simpson = _simpson(vals, (x1 - x0) / n)
    for _ in range(4):
        mids = 0.5 * (xs[:-1] + xs[1:])
        mid_vals = np.array([f(x) for x in mids])
        n *= 2
        merged = np.empty(n + 1)
        merged[0::2] = vals
        merged[1::2] = mid_vals
        xs = np.linspace(x0, x1, n + 1)
        vals = merged
        refined = _simpson(vals, (x1 - x0) / n)
        if abs(refined - simpson) < rel_tol * max(1e-3, abs(refined)):
            return refined
        simpson = refined
    return simpson


def volume_difference(poly1: BivariatePolynomial, poly2: BivariatePolynomial, ring_tol: float = 1e-4) -> float:
    """Integral of R1 - R2 over the plane for curves with equal boundary data.

    Both polynomials are normalized to constant term 1; their boundary
    coefficients must then agree to relative 1e-9, which makes R1 - R2 decay
    exponentially and the integral converge. The box expands until the last
    ring contributes less than ``ring_tol`` of the accumulated value.
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

    def strip(sx0, sx1, sy0, sy1, n=16):
        # fixed Simpson: the integrand decays exponentially out here
        xs = np.linspace(sx0, sx1, n + 1)
        vals = np.array([
            _column_integral(p1, x, sy0, sy1) - _column_integral(p2, x, sy0, sy1) for x in xs
        ])
        return _simpson(vals, (sx1 - sx0) / n)

    for _ in range(6):
        x0, x1, y0, y1 = box
        grown = (x0 - 1.0, x1 + 1.0, y0 - 1.0, y1 + 1.0)
        ring = (
            strip(grown[0], x0, grown[2], grown[3])
            + strip(x1, grown[1], grown[2], grown[3])
            + strip(x0, x1, grown[2], y0)
            + strip(x0, x1, y1, grown[3])
        )
        total += ring
        box = grown
        if abs(ring) < ring_tol * max(1e-8, abs(total)):
            break
    return float(total)


def two_to_one_check(
    poly: BivariatePolynomial,
    x: float,
    y: float,
    cluster_tol: float = 0.05,
    touch_tol: float = 1e-6,
    n_phi: int = 512,
) -> int:
    """Number of preimages of (x, y) on the unit-torus fibre of the amoeba map.

    Intersection points of the curve with the torus over (x, y) are the
    angles phi where some w-root modulus equals e^y. They are found as zeros
    of the distance min_r |log|w_r| - y| (this catches tangential touches a
    count-jump scan cannot see) and clustered in (phi, arg w). Harnack curves
    give exactly 2 at interior points (a complex-conjugate pair); a real node
    collapses them to a single cluster.
    """
    phis = _sweep_angles(n_phi)
    gap = np.min(np.abs(_w_logmods(poly, x, phis) - y), axis=1)
    _, dip_phis, dips = _dips(poly, x, np.array([y], dtype=float), phis, gap[None, :],
                              cap=0.3, points=33, zooms=10)
    events: list[tuple[float, float]] = []
    for phi in dip_phis[dips < touch_tol].tolist():
        z = np.exp(x + 1j * phi)
        rts = polyroots_batch(poly.w_coefficients(np.array([z])))[0]
        w = rts[int(np.argmin(np.abs(np.log(np.maximum(np.abs(rts), 1e-300)) - y)))]
        events.append((phi, float(np.angle(w))))

    # real coefficients pair every preimage with its conjugate at
    # (2 pi - phi, -psi); adding the reflections recovers a partner whose
    # phi sits closer to its twin than the scan resolution (both near 0 or
    # pi), while a genuinely real point reflects onto itself and still
    # collapses to one cluster.
    events = events + [
        (float(np.mod(2.0 * math.pi - ph, 2.0 * math.pi)), -aw) for ph, aw in events
    ]

    clusters: list[tuple[float, float]] = []
    for ev in events:
        for ph, aw in clusters:
            dphi = min(abs(ev[0] - ph), 2 * math.pi - abs(ev[0] - ph))
            darg = min(abs(ev[1] - aw), 2 * math.pi - abs(ev[1] - aw))
            if math.hypot(dphi, darg) < cluster_tol:
                break
        else:
            clusters.append(ev)
    return len(clusters)


def _log_gradient(poly, signs, X: float, Y: float, eps: float) -> tuple[float, float]:
    """Central differences at step eps of Re P(sz e^X, sw e^Y) in X and in Y.

    These are Re z dP/dz and Re w dP/dw on the real quadrant ``signs``.
    """
    sz, sw = signs
    z = sz * math.exp(X)
    w = sw * math.exp(Y)
    fx = (poly(sz * math.exp(X + eps), w).real - poly(sz * math.exp(X - eps), w).real) / (2 * eps)
    fy = (poly(z, sw * math.exp(Y + eps)).real - poly(z, sw * math.exp(Y - eps)).real) / (2 * eps)
    return fx, fy


def _newton_to_curve(poly, signs, point, max_iter: int = 30):
    """Project a (X, Y) log-point onto the real curve branch in its quadrant."""
    sz, sw = signs
    X, Y = point
    for _ in range(max_iter):
        f = poly(sz * math.exp(X), sw * math.exp(Y)).real
        fx, fy = _log_gradient(poly, signs, X, Y, 1e-7)
        norm2 = fx * fx + fy * fy
        if norm2 == 0:
            return None
        step = f / norm2
        X, Y = X - step * fx, Y - step * fy
        if abs(f) < 1e-13 * _poly_scale(poly, math.exp(X), math.exp(Y)):
            return X, Y
    return None


def _poly_scale(poly, zabs, wabs):
    i = np.arange(poly.d + 1)
    return float(((np.abs(poly.coeffs) * (zabs ** i)[:, None]) * (wabs ** i)[None, :]).sum())


def trace_real_ovals(
    poly: BivariatePolynomial,
    window: tuple[float, float, float, float] | None = None,
    n_seed: int = 240,
    max_steps: int = 4000,
) -> list[RealOval]:
    """Trace connected components of the real locus, one sign quadrant at a time.

    Seeds come from real roots along coordinate slices; each unclaimed seed is
    continued by predictor-corrector steps in log coordinates. A component is
    a closed (compact) oval when the trace returns to its start inside the
    window; arcs that leave the window are open tentacle pieces.
    """
    if window is None:
        window = auto_window(poly, pad=3.0)
    x0, x1, y0, y1 = window
    ovals: list[RealOval] = []
    for sz in (1, -1):
        for sw in (1, -1):
            seeds = _quadrant_seeds(poly, (sz, sw), window, n_seed)
            claimed = np.zeros(len(seeds), dtype=bool)
            for idx in range(len(seeds)):
                if claimed[idx]:
                    continue
                path, closed = _trace_from(poly, (sz, sw), seeds[idx], window, max_steps)
                if path is None or len(path) < 4:
                    claimed[idx] = True
                    continue
                arr = np.asarray(path)
                # claim seeds near the traced path
                for k in range(len(seeds)):
                    if claimed[k]:
                        continue
                    dmin = np.min(np.hypot(arr[:, 0] - seeds[k][0], arr[:, 1] - seeds[k][1]))
                    if dmin < 0.08:
                        claimed[k] = True
                claimed[idx] = True
                pts = np.column_stack([sz * np.exp(arr[:, 0]), sw * np.exp(arr[:, 1])])
                ovals.append(RealOval(points=pts, closed=closed, quadrant=(sz, sw)))
    return ovals


def _quadrant_seeds(poly, signs, window, n_seed):
    sz, sw = signs
    x0, x1, y0, y1 = window
    seeds = []
    for X in np.linspace(x0, x1, n_seed):
        z = sz * math.exp(X)
        row = poly.w_coefficients(np.array([complex(z)]))
        rts = polyroots_batch(row)[0]
        for w in rts:
            if abs(w.imag) < 1e-9 * max(1.0, abs(w)) and w.real * sw > 0:
                Y = math.log(abs(w.real))
                if y0 <= Y <= y1:
                    seeds.append((X, Y))
    for Y in np.linspace(y0, y1, n_seed):
        w = sw * math.exp(Y)
        row = poly.z_coefficients(np.array([complex(w)]))
        rts = polyroots_batch(row)[0]
        for z in rts:
            if abs(z.imag) < 1e-9 * max(1.0, abs(z)) and z.real * sz > 0:
                X = math.log(abs(z.real))
                if x0 <= X <= x1:
                    seeds.append((X, Y))
    return seeds


def _trace_from(poly, signs, seed, window, max_steps):
    x0, x1, y0, y1 = window
    margin = 0.5
    start = _newton_to_curve(poly, signs, seed)
    if start is None:
        return None, False

    def tangent(X, Y):
        fx, fy = _log_gradient(poly, signs, X, Y, 1e-6)
        norm = math.hypot(fx, fy)
        if norm == 0:
            return None
        return -fy / norm, fx / norm

    path = [start]
    X, Y = start
    t = tangent(X, Y)
    if t is None:
        return None, False
    h = 0.02
    total_turn = 0.0
    closed = False
    for step_idx in range(max_steps):
        Xp, Yp = X + h * t[0], Y + h * t[1]
        proj = _newton_to_curve(poly, signs, (Xp, Yp))
        if proj is None or math.hypot(proj[0] - Xp, proj[1] - Yp) > 2.0 * h:
            h *= 0.5
            if h < 1e-6:
                break
            continue
        Xn, Yn = proj
        tn = tangent(Xn, Yn)
        if tn is None:
            h *= 0.5
            if h < 1e-6:
                break
            continue
        # keep orientation consistent
        if t[0] * tn[0] + t[1] * tn[1] < 0:
            tn = (-tn[0], -tn[1])
        turn = math.atan2(t[0] * tn[1] - t[1] * tn[0], t[0] * tn[0] + t[1] * tn[1])
        if abs(turn) > 0.35:
            h *= 0.5
            if h < 1e-6:
                break
            continue
        total_turn += turn
        X, Y, t = Xn, Yn, tn
        path.append((X, Y))
        if abs(turn) < 0.05 and h < 0.08:
            h = min(1.5 * h, 0.08)
        if not (x0 - margin <= X <= x1 + margin and y0 - margin <= Y <= y1 + margin):
            break
        if step_idx > 8:
            dx = X - start[0]
            dy = Y - start[1]
            if math.hypot(dx, dy) < 1.2 * h and abs(abs(total_turn) - 2 * math.pi) < 1.0:
                closed = True
                path.append(start)
                break
    return path, closed


@dataclass(frozen=True)
class HarnackCertificate:
    checks: dict[str, bool]
    details: dict[str, object]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _area_window_pad(bp: BoundaryPoints, base: float = 6.0) -> tuple[float, int]:
    """Frame padding that keeps clipped tentacle tails negligible.

    An m-fold boundary root feeds a tentacle of width exp(-t/m), so the pad
    scales with the largest root cluster. Two distinct same-family roots at
    log separation g < 1 merge into a composite of width exp(-t/2) until
    depth ~ log(1/g); the pad is extended so the frame sits past the split.
    """
    mult = 1
    penalty = 0.0
    for family in (bp.on_w0, bp.on_z0, bp.at_inf):
        logs = np.sort(np.log(np.abs(family)))
        for v in logs:
            gaps = np.abs(logs - v)
            mult = max(mult, int(np.sum(gaps <= 1e-3)))
            apart = gaps[gaps > 1e-3]
            if apart.size:
                g = float(apart.min())
                if g < 1.0:
                    penalty = max(penalty, 2.0 * math.log(1.0 / g))
    return base * mult + penalty, mult


def verify_harnack(
    poly: BivariatePolynomial,
    resolution: int = 420,
    n_points: int = 10,
    area_tol: float = 0.02,
    seed: int = 0,
) -> HarnackCertificate:
    """Certificate that P is (numerically) the polynomial of a Harnack curve.

    Checks: real constant-sign boundary points, amoeba area pi^2 d^2 / 2,
    2-to-1 covering at random interior points, and compact ovals consistent
    with the hole count and the genus bound (d-1)(d-2)/2.
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
    pad, mult = _area_window_pad(bp)
    window = auto_window(poly, pad=pad)
    # hold the pixel size roughly constant as the window widens
    res = min(1000, max(resolution, int(resolution * pad / 6.0)))
    grid = rasterize_amoeba(poly, window=window, nx=res, ny=res)
    est = amoeba_area(grid)
    target = math.pi ** 2 * d ** 2 / 2.0
    checks["area"] = abs(est.value - target) < area_tol * target and not est.frame_warning
    details["area"] = est.value
    details["area_target"] = target
    details["boundary_multiplicity"] = mult
    details["area_window_pad"] = pad

    report = detect_holes(poly, grid=grid)
    details["genus"] = report.genus
    details["candidate_nodes"] = len(report.candidate_nodes)
    max_genus = (d - 1) * (d - 2) // 2
    checks["genus_bound"] = report.genus + len(report.candidate_nodes) <= max_genus

    rng = np.random.default_rng(seed)
    # stay away from the frame and from holes: erode twice
    eroded = grid.membership.copy()
    for _ in range(2):
        nbr = (
            np.roll(eroded, 1, 0) & np.roll(eroded, -1, 0) & np.roll(eroded, 1, 1) & np.roll(eroded, -1, 1)
        )
        eroded &= nbr
    cand = np.argwhere(eroded)
    ok = True
    values = []
    for _ in range(n_points):
        iy, ix = cand[rng.integers(len(cand))]
        x = grid.x_centers()[ix]
        y = grid.y_centers()[iy]
        n = two_to_one_check(poly, float(x), float(y))
        values.append(n)
        ok &= n == 2
    checks["two_to_one"] = ok
    details["two_to_one_counts"] = values

    ovals = trace_real_ovals(poly)
    compact = sum(1 for o in ovals if o.closed)
    details["compact_ovals"] = compact
    checks["ovals_match_holes"] = compact == report.genus
    return HarnackCertificate(checks=checks, details=details)
