"""Shared numerical kernels.

Complex univariate root finding (companion-matrix eigenvalues with Newton
polish and certified multiple roots), a partial-pivot LU determinant (a
reference for tests; the Kasteleyn layer takes batched ``np.linalg.det``)
and a panel-adaptive Gauss-Legendre integrator. Every root in the library
comes from ``polyroots_batch``, the batched companion eigenvalues. The
integrator, ``integrate_panels``, runs many independent integrals in shared
rounds and hands the integrand at most ``MAX_PANELS_PER_CALL`` = 64 panels
(3,072 nodes) per call, which bounds the size of one root batch; each
integral comes out to the same bits as when run alone, and stops, flagged,
once its open panels would pass ``MAX_OPEN_PANELS``.
``integrate_periodic_kinked`` is its one-integral case for periodic
integrands with known kink locations. ``illinois`` is the one
bracket refiner: Illinois regula falsi on many sign-change brackets in
lockstep, each stopping on its own, which the Ronkin crossings and the
divisor zeros both call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexPoly",
    "QuadratureResult",
    "roots",
    "det_complex",
    "integrate_periodic_kinked",
    "integrate_panels",
    "polyroots_batch",
    "horner",
    "illinois",
]


def horner(coeffs, x):
    """sum_k coeffs[k] x^k by elementwise Horner, x broadcast against each coeffs[k]:
    every entry takes the same operations however many share the call (a matrix
    product of the powers of x with the coefficients rounds one row unlike a stack)."""
    out = np.zeros((), dtype=complex)
    for c in coeffs[::-1]:
        out = out * x + c
    return out


@dataclass(frozen=True)
class ComplexPoly:
    """Univariate polynomial, coefficients in ascending degree order."""

    coeffs: np.ndarray

    def __init__(self, coeffs) -> None:
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficient array must be one-dimensional and nonempty")
        nonzero = np.flatnonzero(arr)
        if nonzero.size == 0:
            raise ValueError("zero polynomial")
        # drop leading-degree coefficients that are exactly zero
        keep = nonzero[-1] + 1
        object.__setattr__(self, "coeffs", arr[:keep].copy())

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        return horner(self.coeffs, np.asarray(z, dtype=complex))

    def derivative(self) -> "ComplexPoly":
        if self.degree == 0:
            return ComplexPoly([0.0 + 0.0j])
        k = np.arange(1, self.coeffs.size)
        return ComplexPoly(self.coeffs[1:] * k)


def _groups(values, rho: float) -> list[list[int]]:
    """Greedy grouping: a value joins the first group whose centroid c has
    |v - c| <= rho * max(|v|, |c|), in (real, imag) order."""
    vals = np.asarray(values, dtype=complex)
    order = sorted(range(vals.size), key=lambda i: (vals[i].real, vals[i].imag))
    groups: list[list[int]] = []
    for i in order:
        for members in groups:
            centroid = np.mean([vals[k] for k in members])
            if abs(vals[i] - centroid) <= rho * max(abs(vals[i]), abs(centroid)):
                members.append(i)
                break
        else:
            groups.append([i])
    return groups


def _taylor_terms(coeffs: np.ndarray, z: complex, upto: int) -> list[float]:
    """|p^(k)(z)| / k! for k = 0..upto, by repeated synthetic division by (x - z)."""
    work = coeffs.astype(complex).copy()
    out: list[float] = []
    for _ in range(upto + 1):
        n = work.size - 1
        if n < 0:
            out.append(0.0)
            continue
        if n == 0:
            out.append(abs(work[0]))
            work = np.empty(0, dtype=complex)
            continue
        quot = np.empty(n, dtype=complex)
        quot[n - 1] = work[n]
        for i in range(n - 1, 0, -1):
            quot[i - 1] = work[i] + z * quot[i]
        out.append(abs(work[0] + z * quot[0]))
        work = quot
    return out


# noise floor of the multiple-root certificate, relative to
# sum_k |q_k| max(1, |u|)^k: Horner's rule errs by at most about 2n eps
# times that sum at degree n, and the boundary sides that call ``roots``
# have degree n <= MAX_DOMAIN = 16, so 64 eps is twice that bound.
# A pair of simple roots near -1 merges up to 3e-7 apart (relative) and
# stays apart from 1e-6 on; a floor of 1e-12 (~4500 eps) merged 3e-6.
_MERGE_NOISE = 64 * float(np.finfo(float).eps)


def _refine_multiple(coeffs: np.ndarray, group: list[complex]):
    """Merge a tight root group into one multiplicity-m root when certified.

    An exactly m-fold root of p is a simple root of the (m-1)-th derivative,
    so Newton on p^(m-1) reaches it to machine precision even though direct
    evaluation of p is pure noise there. The merge is accepted only if the
    Taylor terms of p at the refined point are dominated by the m-th order
    term across the group's radius. All of it runs in u = x / r, r the
    modulus of the group's centroid, so that the group lies near |u| = 1 and
    the Newton stop, the drift guard and the noise floor do not depend on
    the scale of the roots.
    """
    m = len(group)
    centroid = complex(np.mean(group))
    r = abs(centroid) or 1.0
    q = coeffs * r ** np.arange(coeffs.size)  # q(u) = p(r u)
    q = q / np.max(np.abs(q))
    der = q
    for _ in range(m - 1):
        der = der[1:] * np.arange(1, der.size)
    if der.size < 2:
        return None
    dder = der[1:] * np.arange(1, der.size)
    u = centroid / r
    start = u
    for _ in range(40):
        dv = np.polyval(dder[::-1], u)
        if dv == 0:
            break
        step = np.polyval(der[::-1], u) / dv
        if not np.isfinite(step):
            return None
        u = u - step
        if abs(step) < 1e-15 * (1.0 + abs(u)):
            break
    radius = max(abs(g / r - u) for g in group)
    if not np.isfinite(u) or abs(u - start) > 10.0 * radius + 1e-12:
        return None
    terms = _taylor_terms(q, u, m)
    lead = terms[m] * radius ** m
    if lead == 0.0:
        return None
    # low-order terms must be dominated by the m-th, up to evaluation noise
    noise = _MERGE_NOISE * float(np.sum(np.abs(q) * np.maximum(1.0, abs(u)) ** np.arange(q.size)))
    for k in range(m):
        if terms[k] * radius ** k > max(1e-3 * lead, noise):
            return None
    return u * r


def roots(p: ComplexPoly | np.ndarray) -> list[complex]:
    """All roots, with multiplicity; certified multiple roots come back merged.

    The roots are the eigenvalues of the companion matrix
    (``polyroots_batch``), each given two Newton steps where the derivative
    is trustworthy. Residuals satisfy |p(r)| <= 1e-10 * max|coeff| *
    max(1,|r|)^deg at simple roots. Groups of nearly coincident roots are
    detected at relative radii growing from 1e-3 to 1e-1 (a root joins a
    group when its distance to the centroid is below the radius times the
    larger of the two moduli), re-polished with Newton steps on p^(m-1), and
    merged only when the local Taylor expansion certifies an m-fold root.
    A group that is not certified stays apart.
    """
    if not isinstance(p, ComplexPoly):
        p = ComplexPoly(p)
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    coeffs = p.coeffs / np.max(np.abs(p.coeffs))
    z = polyroots_batch(coeffs[None])[0]
    monic = ComplexPoly(coeffs / coeffs[-1])
    dmonic = monic.derivative()
    for _ in range(2):
        pv = monic(z)
        dv = dmonic(z)
        ok = np.abs(dv) > 1e-8 * (1.0 + np.abs(z)) ** (p.degree - 1)
        step = np.where(ok, pv / np.where(dv == 0, 1.0, dv), 0.0)
        z = z - step

    # (value, multiplicity) pool; the detection radius grows so that the
    # eps^(1/m) scatter of high-multiplicity clusters is still captured,
    # with the Taylor certificate blocking false merges
    pool: list[tuple[complex, int]] = [(complex(r), 1) for r in z]
    for detect in (1e-3, 3e-3, 1e-2, 3e-2, 1e-1):
        next_pool: list[tuple[complex, int]] = []
        for idx_group in _groups([v for v, _ in pool], detect):
            if len(idx_group) == 1:
                next_pool.append(pool[idx_group[0]])
                continue
            members: list[complex] = []
            total = 0
            for i in idx_group:
                v, m = pool[i]
                members.extend([v] * m)
                total += m
            merged = _refine_multiple(coeffs, members)
            if merged is not None:
                next_pool.append((merged, total))
            else:
                next_pool.extend(pool[i] for i in idx_group)
        pool = next_pool
    return [v for v, m in pool for _ in range(m)]


def det_complex(matrix) -> complex:
    """Determinant by partial-pivot LU; exact for 1x1."""
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    det = 1.0 + 0.0j
    for k in range(n):
        pivot = k + int(np.argmax(np.abs(a[k:, k])))
        if a[pivot, k] == 0:
            return 0.0 + 0.0j
        if pivot != k:
            a[[k, pivot]] = a[[pivot, k]]
            det = -det
        det *= a[k, k]
        if k + 1 < n:
            factors = a[k + 1 :, k] / a[k, k]
            a[k + 1 :, k + 1 :] -= np.outer(factors, a[k, k + 1 :])
    return complex(det)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    n: int
    converged: bool

    def __float__(self) -> float:
        return self.value


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(order: int):
    if order not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = (x, w)
    return _GL_CACHE[order]


def integrate_periodic_kinked(
    f,
    kinks,
    tol: float = 1e-11,
) -> QuadratureResult:
    """Integrate a vectorized periodic function over [0, 2pi) with kink splitting.

    Panels between consecutive kink angles go to ``integrate_panels`` as one
    integral, and f is called with the nodes alone.
    """
    kk = np.sort(np.mod(np.asarray(list(kinks), dtype=float), 2.0 * np.pi))
    if kk.size == 0:
        edges = np.array([0.0, 2.0 * np.pi])
    else:
        edges = np.concatenate([kk, [kk[0] + 2.0 * np.pi]])
    return integrate_panels(lambda t, owner: f(t), [edges], tol)[0]


MAX_PANELS_PER_CALL = 64  # panels (48 nodes each, 3,072 nodes) handed to f in one call
MAX_OPEN_PANELS = 4096  # open panels of one integral in one round


def integrate_panels(f, edges, tol: float) -> list[QuadratureResult]:
    """Integrate many functions at once, each over its own increasing panel edges.

    Every panel is integrated with nested Gauss-Legendre rules (16 vs 32
    points). In each round, integral k accepts a panel whose error estimate
    is below tol * max(1, |accepted| + |round sum|) / (its panel count) and
    bisects the rest; integrands analytic between edges converge in a couple
    of rounds. After 30 rounds, or once the bisection would leave integral
    k more than ``MAX_OPEN_PANELS`` open panels, its remaining panels are
    added as they stand and its result is flagged unconverged, so a noisy
    integrand costs about 2 * 48 * ``MAX_OPEN_PANELS`` nodes, not 2^30
    panels. All open integrals share each round: ``f(t, owner)`` receives
    the nodes of at most ``MAX_PANELS_PER_CALL`` panels and the index of
    the integral each node belongs to, and returns one value per node. An
    integral's panel sums, budget and totals are taken in the same order as
    when it runs alone, so for an f that treats nodes independently each
    result is the same to the bit either way.
    Returns one ``QuadratureResult`` per entry of ``edges``.
    """
    x16, w16 = _gl_nodes(16)
    x32, w32 = _gl_nodes(32)
    nodes = np.concatenate([x16, x32])
    m = len(edges)
    lo, hi, owner = [], [], []
    for k, e in enumerate(edges):
        e = np.asarray(e, dtype=float)
        keep = e[1:] - e[:-1] > 1e-14
        lo.append(e[:-1][keep])
        hi.append(e[1:][keep])
        owner.append(np.full(int(keep.sum()), k))
    lo, hi, owner = np.concatenate(lo), np.concatenate(hi), np.concatenate(owner)

    def panel_values(lo, hi, owner):
        half = 0.5 * (hi - lo)
        t = 0.5 * (hi + lo)[:, None] + half[:, None] * nodes
        y = np.empty_like(t)
        for s in range(0, lo.size, MAX_PANELS_PER_CALL):
            part = slice(s, s + MAX_PANELS_PER_CALL)
            y[part] = np.asarray(
                f(t[part].reshape(-1), np.repeat(owner[part], nodes.size)), dtype=float
            ).reshape(-1, nodes.size)
        # one np.dot per panel: a matrix product may round differently
        coarse = half * np.array([np.dot(w16, row[:16]) for row in y])
        fine = half * np.array([np.dot(w32, row[16:]) for row in y])
        return fine, np.abs(fine - coarse)

    total = np.zeros(m)
    n = np.zeros(m, dtype=int)
    converged = np.ones(m, dtype=bool)
    for _ in range(30):
        vals, errs = panel_values(lo, hi, owner)
        counts = np.bincount(owner, minlength=m)
        n += nodes.size * counts
        # bincount adds in index order, as a running sum over the panels would
        round_sum = np.bincount(owner, weights=vals, minlength=m)
        budget = tol * np.fmax(1.0, np.abs(total) + np.abs(round_sum))  # fmax, like max, drops a NaN
        accept = (errs < budget[owner] / counts[owner]) | (hi - lo < 1e-12)
        total += np.bincount(owner[accept], weights=vals[accept], minlength=m)
        split = ~accept
        # an integral whose open panels would pass MAX_OPEN_PANELS stops, flagged
        over = 2 * np.bincount(owner[split], minlength=m) > MAX_OPEN_PANELS
        if over.any():
            stop = split & over[owner]
            total += np.bincount(owner[stop], weights=vals[stop], minlength=m)
            converged[over] = False
            split &= ~stop
        if not split.any():
            break
        # the two halves of each failing panel stay next to each other
        lo, hi, owner = lo[split], hi[split], owner[split]
        mid = 0.5 * (lo + hi)
        lo, hi = np.stack([lo, mid], axis=1).reshape(-1), np.stack([mid, hi], axis=1).reshape(-1)
        owner = np.repeat(owner, 2)
    else:
        # stalled refinement: accept the current best with a flag
        total += np.bincount(owner, weights=panel_values(lo, hi, owner)[0], minlength=m)
        converged[owner] = False
    return [QuadratureResult(float(total[k]), int(n[k]), bool(converged[k])) for k in range(m)]


def illinois(f, lo, hi, f_lo, f_hi) -> np.ndarray:
    """Refine many sign-change brackets [lo[k], hi[k]] of f in lockstep.

    f_lo and f_hi hold the values at the ends, of opposite signs. Each round
    calls ``f(t, todo)`` once, with one trial point per open bracket and the
    bracket indices ``todo``, and it returns the values there. The trial
    point is Illinois regula falsi: the secant root, with the value kept at
    an end that stayed put twice running halved, or the midpoint where that
    root leaves the bracket. A bracket stops at width 1e-14 or
    |f| < 1e-15 at an end, or after 60 rounds, and gives the end with the
    smaller |f|. Brackets stop on their own, so each result is the same to
    the bit however many brackets share a call.
    """
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    # interpolation values: the true ones, but halved at an end that stayed put twice running
    g_lo, g_hi = f_lo.copy(), f_hi.copy()
    moved = np.zeros(lo.size)  # -1 where lo moved last, +1 where hi did
    for _ in range(60):
        todo = np.flatnonzero((hi - lo >= 1e-14) & (np.minimum(np.abs(f_lo), np.abs(f_hi)) >= 1e-15))
        if todo.size == 0:
            break
        a, b = lo[todo], hi[todo]
        t = (a * g_hi[todo] - b * g_lo[todo]) / (g_hi[todo] - g_lo[todo])
        t = np.where((a < t) & (t < b), t, 0.5 * (a + b))
        f_t = np.asarray(f(t, todo), dtype=float)
        left = (f_t < 0) == (f_lo[todo] < 0)
        up, down = todo[left], todo[~left]
        lo[up], f_lo[up], g_lo[up] = t[left], f_t[left], f_t[left]
        g_hi[up] *= np.where(moved[up] < 0, 0.5, 1.0)
        hi[down], f_hi[down], g_hi[down] = t[~left], f_t[~left], f_t[~left]
        g_lo[down] *= np.where(moved[down] > 0, 0.5, 1.0)
        moved[up], moved[down] = -1.0, 1.0
    return np.where(np.abs(f_lo) <= np.abs(f_hi), lo, hi)


def polyroots_batch(coeff_rows: np.ndarray) -> np.ndarray:
    """Roots of many same-degree polynomials at once via stacked companion matrices.

    ``coeff_rows`` has shape (m, deg+1), ascending degree, with nonvanishing
    leading column. Returns an (m, deg) complex array (unordered).
    """
    c = np.asarray(coeff_rows, dtype=complex)
    if c.ndim != 2:
        raise ValueError("expected a 2-D coefficient array")
    m, ncol = c.shape
    deg = ncol - 1
    if deg == 0:
        return np.zeros((m, 0), dtype=complex)
    lead = c[:, -1]
    if np.any(lead == 0):
        raise ValueError("leading coefficients must be nonzero")
    monic = c[:, :-1] / lead[:, None]
    if deg == 1:
        return -monic
    comp = np.zeros((m, deg, deg), dtype=complex)
    idx = np.arange(deg - 1)
    comp[:, idx + 1, idx] = 1.0
    comp[:, :, -1] = -monic
    return np.linalg.eigvals(comp)
