"""Kasteleyn operators and spectral curves of hexagonal dimer models.

The operator K(z, w) acts from black to white vertices of the d x d
fundamental domain (rows indexed by white vertices, columns by black, both
flattened row-major). Edges crossing the horizontal period carry the Bloch
factor z, edges crossing the vertical period carry w; the hexagonal lattice
needs no extra sign twist. The characteristic polynomial

    P(z, w) = det K(z, w) = sum_{i+j <= d} p_ij z^i w^j

has Newton polygon contained in the triangle with vertices (0,0), (d,0),
(0,d). Its coefficients are read off batched determinants: K is built for
a whole batch of samples from one sparsity pattern (``assemble_K`` is the
one-sample case), and ``np.linalg.det`` takes the batch in chunks.

The magnetic field (x, y) of Kenyon, Okounkov and Sheffield ("Dimers and
amoebae"), as in ``apply_magnetic_field``, scales every a-edge by e^{x/d}
and every b-edge by e^{y/d}: K stays balanced and p_ij becomes
p_ij e^{ix+jy}. The inverse DFT of det K over the (d+1) x (d+1)
roots-of-unity grid of that torus returns every p_ij e^{ix+jy} with an
absolute error of about eps * sum_kl |p_kl| e^{kx+ly}, so a coefficient is
accurate on the tori where its own term is a large share of that sum. Each
coefficient is read on the sampled torus where its relative error bound is
smallest; the tori are chosen by greedy cover (``characteristic_polynomial``).
The weights of ``EdgeWeights`` are real, so K at the conjugate sample is the
entrywise conjugate of K and det K at the grid point (-k, -l) is the
conjugate of det K at (k, l): each torus factors only half its grid and
mirrors the rest.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .lattice import EdgeWeights, all_zigzag_products
from .numerics import horner, roots

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
        z, w = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
        # Horner in w over the coefficient rows of w -> P(z, w)
        out = horner(self.w_coefficients(z.ravel()).T, w.ravel()).reshape(z.shape)
        return out if out.shape else complex(out)

    def w_coefficients(self, z) -> np.ndarray:
        """Coefficient rows of w -> P(z, w), one per z, each independent of how many share the call."""
        return horner(self.coeffs, np.asarray(z, dtype=complex).reshape(-1, 1))

    def z_coefficients(self, w) -> np.ndarray:
        """Coefficient rows of z -> P(z, w), one per w, as ``w_coefficients``."""
        return horner(self.coeffs.T, np.asarray(w, dtype=complex).reshape(-1, 1))

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
    with constant sign for Harnack curves.
    """

    on_w0: np.ndarray
    on_z0: np.ndarray
    at_inf: np.ndarray

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

    def passed(self) -> bool:
        """Every discrepancy below 1e-8, the tolerance of criterion c02."""
        return self.max_rel_error < 1e-8


_EPS = float(np.finfo(float).eps)
# relative error bound of a coefficient: below _COVERED it needs no further
# torus, above _TRUSTED on every sampled torus it is an error
_COVERED = 3e-15
_TRUSTED = 1e-9
# most greedy-cover rounds after the unit torus; each round re-estimates
# |p_ij|, which is only an upper bound while p_ij is below the noise (random
# and isoradial models took one round up to d = 8 and up to four at d = 16)
_ROUNDS = 8
# a coefficient within this factor of the best bound it can be given is done
_SLACK = 10.0
# Newton steps towards each candidate field, the multiples of the (at most
# unit) Newton step tried, and the least drop of the objective that moves a
# field (a field stops once nearer the infimum than that)
_NEWTON_STEPS = 40
_STEP_LENGTHS = 4.0 ** np.arange(1, -5, -1)
_MIN_GAIN = 1e-3
# bytes of the matrices handed to one np.linalg.det call
_CHUNK_BYTES = 256 * 1024
# weight sets whose characteristic polynomial is kept: each call path
# works on one weight set at a time (the checks that follow
# characteristic_polynomial on the same weights, the d^2 vertex divisors of
# one model)
_MEMO_SIZE = 1


def _kasteleyn_batch(a, b, c, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K(z_s, w_s) for every sample s, shape (len(z), d^2, d^2).

    Each of ``a``, ``b`` and ``c`` is the (d, d) array of its weights or
    holds one such array per sample."""
    d = c.shape[-1]
    n = d * d
    rows = np.arange(n)
    i, j = np.divmod(rows, d)
    K = np.zeros((len(z), n, n), dtype=complex)
    K[:, rows, rows] = c.reshape(-1, n)
    # one edge type per statement: at d = 1 all three share K[0, 0] and add up
    K[:, rows, i * d + (j + 1) % d] += a.reshape(-1, n) * np.where(j == d - 1, z[:, None], 1.0)
    K[:, rows, (i + 1) % d * d + j] += b.reshape(-1, n) * np.where(i == d - 1, w[:, None], 1.0)
    return K


def assemble_K(weights: EdgeWeights, z: complex, w: complex) -> np.ndarray:
    """Kasteleyn matrix at Bloch phases (z, w); rows white, columns black."""
    return _kasteleyn_batch(weights.a, weights.b, weights.c,
                            np.array([z], dtype=complex), np.array([w], dtype=complex))[0]


def _torus_readings(weights: EdgeWeights, fields: np.ndarray):
    """Inverse DFT of det K over the (d+1)^2 roots-of-unity grid of the
    torus of each magnetic field (x, y), one per row of ``fields``.

    As in ``apply_magnetic_field``, every a-edge is scaled by f = e^{x/d}
    and every b-edge by g = e^{y/d}. Every weight of a torus is also divided
    by 2^e, the power of two nearest the geometric mean of the rows' largest
    weights, so no determinant overflows (Hadamard's bound). The reading
    [t, i, j] is then p_ij f^{di} g^{dj} 2^{-e d^2}. Returns the readings
    and, per reading, the mantissa m and exponent k with p_ij = reading /
    m * 2^k, from the rounded f and g the samples used (1 and 0 outside the
    triangle, where the readings only feed the check). A torus whose
    readings are not all finite reads nothing.

    The weights are real, so only the grid points (k, l) that come first in
    row-major order among themselves and their mates ((-k) mod n, (-l) mod
    n) are factored, (n^2 + s)/2 per torus with s = 1 self-conjugate point
    for odd n and 4 for even n; each mate takes the conjugate determinant.
    Residual imaginary parts or entries outside the Newton triangle above
    1e-9 of a torus's largest entry raise. With the grid conjugate-symmetric
    the imaginary parts are only the FFT's rounding, so it is the entries
    outside the triangle that expose a wrong determinant."""
    d, n = weights.d, weights.d + 1
    f = np.exp(fields[:, 0] / d)[:, None, None]
    g = np.exp(fields[:, 1] / d)[:, None, None]
    a, b = weights.a * f, weights.b * g
    e = np.rint(np.log2(np.maximum(np.maximum(a, b), weights.c)).mean(axis=(1, 2)))
    e = e.astype(int)[:, None, None]
    a, b, c = np.ldexp(a, -e), np.ldexp(b, -e), np.ldexp(weights.c, -e)
    unit = np.exp(2j * np.pi * np.arange(n) / n)
    k, l = np.divmod(np.arange(n * n), n)
    mate = (-k) % n * n + (-l) % n
    half = np.flatnonzero(np.arange(n * n) <= mate)
    torus = np.repeat(np.arange(len(fields)), half.size)
    z = np.tile(unit[k[half]], len(fields))
    w = np.tile(unit[l[half]], len(fields))
    step = max(1, _CHUNK_BYTES // (16 * d ** 4))
    dets = np.concatenate([
        np.linalg.det(_kasteleyn_batch(a[torus[s:s + step]], b[torus[s:s + step]],
                                       c[torus[s:s + step]], z[s:s + step], w[s:s + step]))
        for s in range(0, len(z), step)]).reshape(len(fields), half.size)
    grid = np.empty((len(fields), n * n), dtype=complex)
    grid[:, mate[half]] = dets.conj()
    grid[:, half] = dets
    readings = np.fft.fft2(grid.reshape(len(fields), n, n)) / n ** 2
    ii, jj = np.indices((n, n))
    for raw in readings[np.isfinite(readings).all(axis=(1, 2))]:
        top = np.max(np.abs(raw))
        outside = np.max(np.abs(raw[ii + jj > d]), initial=0.0)
        if top == 0.0 or max(np.max(np.abs(raw.imag)), outside) > 1e-9 * top:
            raise RuntimeError("interpolation inconsistency")
    # f = mf 2^kf with mf in [1/2, 1): f^{di} = mf^{di} 2^{kf di} cannot overflow
    (mf, kf), (mg, kg) = np.frexp(f), np.frexp(g)
    inside = ii + jj <= d
    di, dj = d * ii * inside, d * jj * inside
    return readings, mf ** di * mg ** dj, (d * d * e - kf * di - kg * dj) * inside


def _best_readings(readings, mantissa, exponent, inside: np.ndarray):
    """Each coefficient from the torus where its error bound is smallest.

    On torus t the readings r_t carry the noise n_t = eps * sum_kl |r_tkl|
    over the triangle, and the bound of p_ij is n_t / |r_tij| (infinite on a
    torus that read nothing). Returns the coefficients, their bounds and the
    logs of their magnitudes, each (d+1, d+1). The magnitude is the least
    (|r_tij| + n_t) / factor_tij over the tori: near |p_ij| where some torus
    resolves it, and an upper bound of |p_ij| where every reading is noise."""
    mags = np.abs(readings)
    noise = _EPS * mags[:, inside].sum(axis=1)[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = noise / mags
        log_mags = np.log((mags + noise) / mantissa) + exponent * np.log(2.0)
    bounds[np.isnan(bounds)] = np.inf
    log_mags[~np.isfinite(log_mags)] = np.inf
    best = np.argmin(bounds, axis=0)[None]

    def pick(v):
        return np.take_along_axis(v, best, 0)[0]

    return (np.ldexp(pick(readings.real / mantissa), pick(exponent)), pick(bounds),
            log_mags.min(axis=0))


def _cover(bounds: np.ndarray, log_mags: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Magnetic fields of new tori, by greedy cover, with log |p_kl|
    estimated by ``log_mags``; one field (x, y) per row.

    The predicted log bound of coefficient c on the torus of field v is
    log(eps * sum_k |p_k| e^{k.v}) - log(|p_c| e^{c.v}), convex in v. The
    candidate field of a point q of the Newton triangle minimises
    log(sum_k |p_k| e^{k.v}) - q.v, so the terms' mean exponent is q there:
    for q = c it is the best field of coefficient c (at infinity on the
    boundary, where the Newton steps stop once they gain little). The points
    q are the coefficients whose bound is above _COVERED and the centroids
    of the unit triangles with such a corner. A coefficient's target is
    _COVERED, or _SLACK times its bound at its own field when that is
    larger; the coefficients above their target are covered by the fields
    that predict at most the target. Each step takes the field that covers
    the most, and among those the one with the smallest sum of log bounds
    over what it covers."""
    ii, jj = np.indices(inside.shape)
    exps = np.stack([ii[inside], jj[inside]], axis=1).astype(float)
    est = log_mags[inside]
    with np.errstate(divide="ignore"):
        now = np.log(bounds[inside])
    cols = np.flatnonzero(now > np.log(_COVERED))
    if not len(cols):
        return np.empty((0, 2))

    def log_noise(v):
        """log(eps * sum_k |p_k| e^{k.v}) at each field v (last axis), and
        the terms |p_k| e^{k.v} normalised to sum 1."""
        lin = est + v @ exps.T
        top = lin.max(axis=-1, keepdims=True)
        share = np.exp(lin - top)
        total = share.sum(axis=-1, keepdims=True)
        return np.log(_EPS) + (top + np.log(total))[..., 0], share / total

    # the points q: the open exponents, then the centroids of the unit
    # triangles with an open corner, where three neighbouring terms share
    # the weight
    d = inside.shape[0] - 1
    is_open = np.zeros(inside.shape, dtype=bool)
    is_open[tuple(exps[cols].astype(int).T)] = True
    low = ii[:-1, :-1] + jj[:-1, :-1]
    up = (is_open[:-1, :-1] | is_open[1:, :-1] | is_open[:-1, 1:]) & (low <= d - 1)
    down = (is_open[1:, :-1] | is_open[:-1, 1:] | is_open[1:, 1:]) & (low <= d - 2)
    q = np.concatenate([exps[cols], np.argwhere(up) + 1 / 3, np.argwhere(down) + 2 / 3])
    # damped Newton steps from v = 0, each at most of unit length: where one
    # term holds all the weight the Hessian vanishes and the raw step has
    # no scale
    v = np.zeros((len(q), 2))
    for _ in range(_NEWTON_STEPS):
        noise, share = log_noise(v)
        # gradient and Hessian: mean and covariance of k under the weights
        mean = share @ exps
        cov = np.einsum("rk,ki,kj->rij", share, exps, exps) - mean[:, :, None] * mean[:, None, :]
        step = np.linalg.solve(cov + 1e-12 * np.eye(2), (mean - q)[..., None])[..., 0]
        step /= np.maximum(1.0, np.linalg.norm(step, axis=1))[:, None]
        gain, moved = np.full(len(q), _MIN_GAIN), v.copy()
        for length in _STEP_LENGTHS:
            trial = v - length * step
            more = noise - (v * q).sum(axis=-1) - log_noise(trial)[0] + (trial * q).sum(axis=-1)
            better = more > gain
            gain[better], moved[better] = more[better], trial[better]
        if np.array_equal(moved, v):
            break
        v = moved
    noise = log_noise(v)[0]
    own = exps[cols]
    best = noise[:len(cols)] - est[cols] - (v[:len(cols)] * own).sum(axis=-1)
    target = np.maximum(np.log(_COVERED), best + np.log(_SLACK))
    open_ = now[cols] > target
    cols, target = cols[open_], target[open_]
    pred = noise[:, None] - est[cols] - v @ exps[cols].T
    hits = pred <= target
    picks = []
    while hits.shape[1]:
        count = hits.sum(axis=1)
        score = np.where(hits, pred, 0.0).sum(axis=1)
        t = np.lexsort((score, -count))[0]
        picks.append(t)
        hits, pred = hits[:, ~hits[t]], pred[:, ~hits[t]]
    return v[picks]


def characteristic_polynomial(weights: EdgeWeights) -> BivariatePolynomial:
    """P(z, w) = det K(z, w), each coefficient read on a balanced torus.

    The relative error bound of p_ij on the torus of magnetic field (x, y)
    is eps * sum_kl |p_kl| e^{(k-i)x+(l-j)y} / |p_ij|. The unit torus is
    sampled first, every torus rescaled by a power of two so that no
    determinant overflows. While some coefficient's bound is above 3e-15
    (and above 10 times the least bound it can be given), in at most eight
    rounds, tori are added by greedy cover over fields found by Newton's
    method, with the |p_kl| estimated from the tori sampled so far. A
    coefficient whose best bound stays above 1e-9, a residual imaginary
    part, or a coefficient outside the Newton triangle above 1e-9 of a
    torus's largest one raises RuntimeError ("interpolation
    inconsistency"). The sign makes p_00 positive.

    Equal weights give the same immutable result: the last weight set is
    memoised by d and the bytes of a, b and c.
    """
    return _memo_polynomial(weights.d, weights.a.tobytes(), weights.b.tobytes(),
                            weights.c.tobytes())


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _memo_polynomial(d: int, a: bytes, b: bytes, c: bytes) -> BivariatePolynomial:
    weights = EdgeWeights(d, *(np.frombuffer(v).reshape(d, d) for v in (a, b, c)))
    ii, jj = np.indices((d + 1, d + 1))
    inside = ii + jj <= d
    parts = _torus_readings(weights, np.zeros((1, 2)))
    for _ in range(_ROUNDS):
        _, bounds, log_mags = _best_readings(*parts, inside)
        more = _cover(bounds, log_mags, inside)
        if not len(more):
            break
        parts = [np.concatenate(p) for p in zip(parts, _torus_readings(weights, more))]
    coeffs, bounds, _ = _best_readings(*parts, inside)
    worst = np.max(np.where(inside, bounds, 0.0))
    if not worst <= _TRUSTED:
        i, j = np.unravel_index(np.argmax(np.where(inside, bounds, 0.0)), bounds.shape)
        raise RuntimeError(
            f"interpolation inconsistency: coefficient of z^{i} w^{j} known "
            f"only to {worst:.1e} relative on {len(parts[0])} tori")
    coeffs[~inside] = 0.0
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

    Each side polynomial keeps its full degree, however small its leading
    coefficient. Its roots come from ``numerics.roots`` with multiplicity: a
    certified multiple root returns as equal copies, and close distinct
    roots stay apart. A genuinely complex root means the curve cannot come
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
