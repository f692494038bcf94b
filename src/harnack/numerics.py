"""Shared numerical kernels.

Complex univariate root finding (Aberth-Ehrlich with Newton polish), a
partial-pivot LU determinant (a reference for tests; the Kasteleyn layer
takes batched ``np.linalg.det``), periodic trapezoid quadrature with
doubling, and a panel-adaptive Gauss-Legendre integrator. The integrator,
``integrate_panels``, runs many independent integrals in shared rounds and
hands the integrand at most ``MAX_PANELS_PER_CALL`` = 64 panels (3,072
nodes) per call, which bounds the size of one root batch; each integral
comes out to the same bits as when run alone. ``integrate_periodic_kinked``
is its one-integral case for periodic integrands with known kink locations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexPoly",
    "QuadratureResult",
    "roots",
    "cluster_values",
    "det_complex",
    "periodic_quadrature",
    "integrate_periodic_kinked",
    "integrate_panels",
    "polyroots_batch",
]

_TRIM_REL = 1e-14


@dataclass(frozen=True)
class ComplexPoly:
    """Univariate polynomial, coefficients in ascending degree order."""

    coeffs: np.ndarray

    def __init__(self, coeffs) -> None:
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficient array must be one-dimensional and nonempty")
        scale = np.max(np.abs(arr))
        if scale == 0.0:
            raise ValueError("zero polynomial")
        # trim trailing (leading-degree) coefficients that are numerically zero
        keep = arr.size
        while keep > 1 and abs(arr[keep - 1]) < _TRIM_REL * scale:
            keep -= 1
        object.__setattr__(self, "coeffs", arr[:keep].copy())

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            out = out * z + c
        return out

    def derivative(self) -> "ComplexPoly":
        if self.degree == 0:
            return ComplexPoly([0.0 + 0.0j])
        k = np.arange(1, self.coeffs.size)
        return ComplexPoly(self.coeffs[1:] * k)


def _aberth(coeffs: np.ndarray) -> np.ndarray:
    """All roots of an ascending-coefficient polynomial, degree >= 1."""
    n = coeffs.size - 1
    monic = coeffs / coeffs[-1]
    if n == 1:
        return np.array([-monic[0]])
    if n == 2:
        b, c = monic[1], monic[0]
        disc = np.sqrt(b * b - 4.0 * c + 0j)
        # stable quadratic: avoid cancellation in the small root
        q = -0.5 * (b + disc) if abs(b + disc) >= abs(b - disc) else -0.5 * (b - disc)
        r1 = q
        r2 = c / q if q != 0 else -b - q
        return np.array([r1, r2])

    radius = 1.0 + np.max(np.abs(monic[:-1]))
    k = np.arange(n)
    z = radius * np.exp(1j * (2.0 * np.pi * (k + 0.5) / n + 0.4))
    dcoef = monic[1:] * np.arange(1, n + 1)

    def horner(c, x):
        out = np.full_like(x, c[-1])
        for ck in c[-2::-1]:
            out = out * x + ck
        return out

    for _ in range(200):
        pv = horner(monic, z)
        dv = horner(dcoef, z)
        dv = np.where(dv == 0, 1e-300, dv)
        newton = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        s = np.sum(1.0 / diff, axis=1) - 1.0  # remove the fill_diagonal contribution
        denom = 1.0 - newton * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = newton / denom
        z = z - step
        if np.max(np.abs(step)) < 1e-14 * (1.0 + np.max(np.abs(z))):
            break

    # one Newton polish pass where the derivative is trustworthy
    for _ in range(2):
        pv = horner(monic, z)
        dv = horner(dcoef, z)
        ok = np.abs(dv) > 1e-8 * (1.0 + np.abs(z)) ** (n - 1)
        step = np.where(ok, pv / np.where(dv == 0, 1.0, dv), 0.0)
        z = z - step
    return z


def _cluster_index_groups(values, tol: float) -> list[list[int]]:
    vals = np.asarray(values, dtype=complex)
    order = sorted(range(vals.size), key=lambda i: (vals[i].real, vals[i].imag))
    groups: list[list[int]] = []
    for i in order:
        for members in groups:
            centroid = np.mean([vals[k] for k in members])
            if abs(vals[i] - centroid) < tol:
                members.append(i)
                break
        else:
            groups.append([i])
    return groups


def _cluster_groups(values, tol: float) -> list[list[complex]]:
    vals = np.asarray(values, dtype=complex)
    return [[complex(vals[i]) for i in g] for g in _cluster_index_groups(vals, tol)]


def cluster_values(values, tol: float):
    """Greedy clustering of complex values; returns (centroid, multiplicity) pairs.

    Values closer than ``tol`` to an existing cluster centroid are merged.
    """
    return [(complex(np.mean(m)), len(m)) for m in _cluster_groups(values, tol)]


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


def _refine_multiple(coeffs: np.ndarray, group: list[complex]):
    """Merge a tight root group into one multiplicity-m root when certified.

    An exactly m-fold root of p is a simple root of the (m-1)-th derivative,
    so Newton on p^(m-1) reaches it to machine precision even though direct
    evaluation of p is pure noise there. The merge is accepted only if the
    Taylor terms of p at the refined point are dominated by the m-th order
    term across the group's radius.
    """
    m = len(group)
    der = coeffs.astype(complex)
    for _ in range(m - 1):
        der = der[1:] * np.arange(1, der.size)
    if der.size < 2:
        return None
    dder = der[1:] * np.arange(1, der.size)
    z = complex(np.mean(group))
    start = z
    for _ in range(40):
        dv = np.polyval(dder[::-1], z)
        if dv == 0:
            break
        step = np.polyval(der[::-1], z) / dv
        if not np.isfinite(step):
            return None
        z = z - step
        if abs(step) < 1e-15 * (1.0 + abs(z)):
            break
    radius = max(abs(g - z) for g in group)
    if not np.isfinite(z) or abs(z - start) > 10.0 * radius + 1e-12:
        return None
    terms = _taylor_terms(coeffs, z, m)
    lead = terms[m] * radius ** m
    if lead == 0.0:
        return None
    # low-order terms must be dominated by the m-th, up to evaluation noise
    noise = 1e-12 * float(np.sum(np.abs(coeffs) * np.maximum(1.0, abs(z)) ** np.arange(coeffs.size)))
    for k in range(m):
        if terms[k] * radius ** k > max(1e-3 * lead, noise):
            return None
    return z


def roots(p: ComplexPoly | np.ndarray) -> list[complex]:
    """All roots, with multiplicity; near-coincident roots are merged to centroids.

    Residuals satisfy |p(r)| <= 1e-10 * max|coeff| * max(1,|r|)^deg at simple
    roots. Groups of nearly coincident roots are detected at a coarse radius,
    re-polished with multiplicity-m Newton steps, and merged only when the
    local Taylor expansion certifies an m-fold root; otherwise they fall back
    to a plain merge of roots closer than 1e-6 (relative to the largest root
    modulus, at least 1).
    """
    if not isinstance(p, ComplexPoly):
        p = ComplexPoly(p)
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1 after trimming")
    coeffs = p.coeffs / np.max(np.abs(p.coeffs))
    raw = _aberth(coeffs)
    scale = max(1.0, float(np.max(np.abs(raw))))

    # (value, multiplicity) pool; the detection radius grows so that the
    # eps^(1/m) scatter of high-multiplicity clusters is still captured,
    # with the Taylor certificate blocking false merges
    pool: list[tuple[complex, int]] = [(complex(r), 1) for r in raw]
    for detect in (1e-3, 3e-3, 1e-2, 3e-2, 1e-1):
        next_pool: list[tuple[complex, int]] = []
        for idx_group in _cluster_index_groups([v for v, _ in pool], detect * scale):
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

    flat: list[complex] = []
    for v, m in pool:
        flat.extend([v] * m)
    out: list[complex] = []
    for centroid, mult in cluster_values(flat, 1e-6 * scale):
        out.extend([centroid] * mult)
    return out


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


def _eval_periodic(f, theta: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(f(theta), dtype=float)
        if out.shape == theta.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(f(t)) for t in theta])


def periodic_quadrature(f, n: int = 64) -> QuadratureResult:
    """Trapezoid rule over [0, 2pi) with doubling until successive estimates agree.

    Starts from ``n`` samples and doubles until two estimates differ by less
    than 1e-10. Spectrally accurate for smooth periodic integrands.
    Non-convergence at the 2^16-sample cap is flagged, not fatal.
    """
    if n < 8:
        raise ValueError("need at least 8 samples")
    theta = 2.0 * np.pi * np.arange(n) / n
    vals = _eval_periodic(f, theta)
    estimate = 2.0 * np.pi * float(np.mean(vals))
    while n < 2 ** 16:
        # refine by sampling the midpoints of the current grid
        mids = theta + np.pi / n
        new_vals = _eval_periodic(f, mids)
        n *= 2
        merged = np.empty(n)
        merged[0::2] = vals
        merged[1::2] = new_vals
        vals = merged
        theta = 2.0 * np.pi * np.arange(n) / n
        new_estimate = 2.0 * np.pi * float(np.mean(vals))
        done = abs(new_estimate - estimate) < 1e-10
        estimate = new_estimate
        if done:
            return QuadratureResult(estimate, n, True)
    return QuadratureResult(estimate, n, False)


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


def integrate_panels(f, edges, tol: float) -> list[QuadratureResult]:
    """Integrate many functions at once, each over its own increasing panel edges.

    Every panel is integrated with nested Gauss-Legendre rules (16 vs 32
    points). In each round, integral k accepts a panel whose error estimate
    is below tol * max(1, |accepted| + |round sum|) / (its panel count) and
    bisects the rest; integrands analytic between edges converge in a couple
    of rounds, and after 30 rounds the remaining panels are added and the
    result is flagged unconverged. All open integrals share each round:
    ``f(t, owner)`` receives the nodes of at most ``MAX_PANELS_PER_CALL``
    panels and the index of the integral each node belongs to, and returns
    one value per node. An integral's panel sums, budget and totals are
    taken in the same order as when it runs alone, so for an f that treats
    nodes independently each result is the same to the bit either way.
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
