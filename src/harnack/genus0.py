"""Rational (genus-zero) curves of the hexagonal family and their boundary data.

A degree-d rational curve is parametrized on the unit circle by quotients of
half-angle sines: z vanishes at the alpha angles, w vanishes at the gamma
angles, and both share simple poles at the beta angles.  Boundary data (A, B, C)
records w at the zeros of z, 1/z at the zeros of w, and z/w at the poles.  One
pairwise-log kernel (``_pair_log_kernel``) gives log|A|, log|B|, log|C| and
their Jacobian in two charts: with log|sin(x/2)| on the circle, where damped
Newton recovers the angles from a valid triple, and with log|x| on the line,
where the Jacobian is symmetric.  The same angle triples drive the isoradial
weights, and the implicit polynomial is read off that dimer model:
P(z, w) = det K((-1)^d z / rho_z, (-1)^d w / rho_w) up to scale.  A Newton
solve with the exact Jacobian finds the shift to unit prefactors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import amoeba
from .kasteleyn import BivariatePolynomial, characteristic_polynomial
from .lattice import EdgeWeights

TWO_PI = 2.0 * np.pi

# canonical gauge: first zero of z at angle 0, first pole at 2pi/3,
# first zero of w at 4pi/3
CANONICAL_ANCHORS = (0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0)


def _wrap_angles(values) -> np.ndarray:
    out = np.mod(np.asarray(values, dtype=float), TWO_PI)
    # mod of a tiny negative float can round up to the period itself
    return np.where(out >= TWO_PI, 0.0, out)


def _wrap_signed(values) -> np.ndarray:
    """Reduce angle differences to (-pi, pi]."""
    out = np.mod(np.asarray(values, dtype=float) + np.pi, TWO_PI) - np.pi
    return np.where(out <= -np.pi, np.pi, out)


def _arc_order(alpha, beta, gamma):
    """Return per-family arc traversal orders, or None if the families do not
    occupy three disjoint arcs in counterclockwise order alpha, beta, gamma."""
    d = len(alpha)
    angles = np.concatenate([alpha, beta, gamma])
    labels = np.repeat([0, 1, 2], d)
    order = np.argsort(angles, kind="stable")
    seq = labels[order]
    want = np.repeat([0, 1, 2], d)
    for shift in range(3 * d):
        if np.array_equal(np.roll(seq, -shift), want):
            cyc = np.roll(order, -shift)
            return cyc[:d], cyc[d:2 * d] - d, cyc[2 * d:] - 2 * d
    return None


def _set_families(data, unordered: str) -> None:
    """Validate and store the alpha, beta, gamma angles of ``data``.

    Checks d >= 1, wraps each family into [0, 2pi), checks its length d and
    stores it in arc traversal order; ``unordered`` is the error raised when
    the families do not occupy three disjoint arcs in that order."""
    d = int(data.d)
    if d < 1:
        raise ValueError("degree must be at least 1")
    data.d = d
    families = []
    for name in ("alpha", "beta", "gamma"):
        arr = _wrap_angles(getattr(data, name))
        if arr.shape != (d,):
            raise ValueError(f"{name} must have length d={d}")
        families.append(arr)
    orders = _arc_order(*families)
    if orders is None:
        raise ValueError(unordered)
    data.alpha, data.beta, data.gamma = (arr[o] for arr, o in zip(families, orders))


def _random_families(d: int, rng: np.random.Generator):
    """Angle families from 3d+3 gaps drawn in [0.4, 1.2] and scaled to the
    circle, so families stay in disjoint arcs with healthy separations."""
    gaps = rng.uniform(0.4, 1.2, size=3 * d + 3)
    gaps *= TWO_PI / gaps.sum()
    positions = np.cumsum(gaps)
    return positions[0:d], positions[d + 1:2 * d + 1], positions[2 * d + 2:3 * d + 2]


@dataclass
class Genus0Curve:
    """Sine-quotient parametrization data.

    Angles live in [0, 2pi); each family is stored in arc traversal order
    (counterclockwise along its arc), which coincides with ascending order
    unless the arc straddles 0.  rho_z and rho_w are positive prefactors.
    """

    d: int
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    rho_z: float = 1.0
    rho_w: float = 1.0

    def __post_init__(self) -> None:
        _set_families(self, "angle families not cyclically ordered")
        self.rho_z = float(self.rho_z)
        self.rho_w = float(self.rho_w)
        if self.rho_z <= 0.0 or self.rho_w <= 0.0:
            raise ValueError("prefactors must be positive")

    @classmethod
    def random(cls, d: int, rng: np.random.Generator) -> "Genus0Curve":
        """Draw a valid configuration: angle families in well separated
        arcs, then log-uniform prefactors in [0.5, 2]."""
        alpha, beta, gamma = _random_families(d, rng)
        log_lo, log_hi = np.log(0.5), np.log(2.0)
        rho_z = float(np.exp(rng.uniform(log_lo, log_hi)))
        rho_w = float(np.exp(rng.uniform(log_lo, log_hi)))
        return cls(d, alpha, beta, gamma, rho_z, rho_w)

    def min_gap(self) -> float:
        full = np.sort(np.concatenate([self.alpha, self.beta, self.gamma]))
        diffs = np.diff(np.concatenate([full, [full[0] + TWO_PI]]))
        return float(diffs.min())


@dataclass
class BoundaryTriple:
    """Boundary data of a genus-zero curve: w at the zeros of z (A), 1/z at
    the zeros of w (B), z/w at the poles (C).  Each vector has constant sign."""

    d: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self) -> None:
        d = int(self.d)
        if d < 1:
            raise ValueError("degree must be at least 1")
        self.d = d
        for name in ("A", "B", "C"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (d,):
                raise ValueError(f"{name} must have length d={d}")
            if np.any(arr == 0.0) or (np.any(arr > 0) and np.any(arr < 0)):
                raise ValueError(f"{name} must have constant nonzero sign")
            setattr(self, name, arr)

    def product(self) -> float:
        return float(np.prod(self.A) * np.prod(self.B) * np.prod(self.C))

    def product_defect(self) -> float:
        """Distance of prod(A_i B_i C_i) from its constrained value (-1)^d."""
        return abs(self.product() - (-1.0) ** self.d)


def _lifted_angles(curve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous angle representatives ascending along the arc traversal
    from the first alpha.  Half-angle sines flip sign when a representative
    moves by a period, so sign-carrying formulas must use this lift; it is
    continuous across wrap events (a wrap of the anchor shifts all 3d lifts
    together, an even number of sign flips per coordinate function)."""
    start = curve.alpha[0]
    out = []
    for k, arr in enumerate((curve.alpha, curve.beta, curve.gamma)):
        off = np.mod(arr - start, TWO_PI)
        if k == 0:
            off[0] = 0.0
        else:
            off = np.where(off == 0.0, TWO_PI, off)
        out.append(start + off)
    return out[0], out[1], out[2]


def evaluate_parametrization(curve: Genus0Curve, t):
    """Evaluate (z(t), w(t)); t may be a scalar or an array of angles."""
    al, be, ga = _lifted_angles(curve)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    pole_dist = np.abs(_wrap_signed(t_arr[:, None] - be[None, :]))
    if np.any(pole_dist < 1e-12):
        raise ValueError("parameter value at a pole of the parametrization")
    num_z = np.prod(np.sin(0.5 * (t_arr[:, None] - al[None, :])), axis=1)
    num_w = np.prod(np.sin(0.5 * (t_arr[:, None] - ga[None, :])), axis=1)
    den = np.prod(np.sin(0.5 * (t_arr[:, None] - be[None, :])), axis=1)
    z = curve.rho_z * num_z / den
    w = curve.rho_w * num_w / den
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(z[0]), float(w[0])
    return z, w


def _circle_residual(poly: BivariatePolynomial, curve: Genus0Curve, sign: float) -> float:
    """Largest relative residual |P(sign z, sign w)| / P_abs(|z|, |w|) of
    ``poly`` on the curve, where P_abs has the absolute coefficients, at 100
    parameter angles equally spaced from 0.1234 and kept 1e-3 away from the
    poles (at spacing 2pi/420 each pole drops at most one angle)."""
    t = np.linspace(0.0, TWO_PI, 421)[:-1] + 0.1234
    dist = np.abs(_wrap_signed(t[:, None] - curve.beta[None, :])).min(axis=1)
    z, w = evaluate_parametrization(curve, t[dist > 1e-3][:100])
    scale = np.abs(BivariatePolynomial(poly.d, np.abs(poly.coeffs))(np.abs(z), np.abs(w)))
    return float(np.max(np.abs(poly(sign * z, sign * w)) / scale))


def implicitize(curve: Genus0Curve) -> BivariatePolynomial:
    """The implicit polynomial of total degree d, read off the isoradial
    dimer model: the spectral curve of ``isoradial_weights`` on the curve's
    angles carries the unit-prefactor parametrization after the sign flip
    (-1)^d, so P(z, w) = Q((-1)^d z / rho_z, (-1)^d w / rho_w) with
    Q = ``characteristic_polynomial`` of those weights.  The result is scaled
    to largest coefficient 1 with p_00 positive (or, when |p_00| <= 1e-12,
    the first coefficient above 1e-12 in row-major order); 100 samples on
    the circle must then give a relative residual below 1e-9."""
    d = curve.d
    q = characteristic_polynomial(isoradial_weights(IsoradialAngles.from_curve(curve)))
    ii, jj = np.indices(q.coeffs.shape)
    sign = (-1.0) ** d
    coeffs = q.coeffs * (sign / curve.rho_z) ** ii * (sign / curve.rho_w) ** jj
    coeffs /= np.abs(coeffs).max()
    anchor = coeffs[0, 0]
    if abs(anchor) < 1e-12:
        flat = coeffs.reshape(-1)
        anchor = flat[np.nonzero(np.abs(flat) > 1e-12)[0][0]]
    if anchor < 0:
        coeffs = -coeffs
    poly = BivariatePolynomial(d, coeffs)
    worst = _circle_residual(poly, curve, 1.0)
    if worst > 1e-9:
        raise ValueError(
            f"parametrization degenerate: implicit residual {worst:.3e}")
    return poly


def boundary_map(curve: Genus0Curve) -> BoundaryTriple:
    """Evaluate the boundary data directly from the sine products; the pole
    factors cancel algebraically, so nothing is ever evaluated at a pole."""
    al, be, ga = _lifted_angles(curve)
    s_ag = np.sin(0.5 * (al[:, None] - ga[None, :]))
    s_ab = np.sin(0.5 * (al[:, None] - be[None, :]))
    s_gb = np.sin(0.5 * (ga[:, None] - be[None, :]))
    s_ga = np.sin(0.5 * (ga[:, None] - al[None, :]))
    s_ba = np.sin(0.5 * (be[:, None] - al[None, :]))
    s_bg = np.sin(0.5 * (be[:, None] - ga[None, :]))
    a_vals = curve.rho_w * np.prod(s_ag, axis=1) / np.prod(s_ab, axis=1)
    b_vals = np.prod(s_gb, axis=1) / np.prod(s_ga, axis=1) / curve.rho_z
    c_vals = (curve.rho_z / curve.rho_w) * np.prod(s_ba, axis=1) / np.prod(s_bg, axis=1)
    return BoundaryTriple(curve.d, a_vals, b_vals, c_vals)


# ---------------------------------------------------------------------------
# line chart and the symmetric Jacobian


def _separated_families(curve: Genus0Curve):
    """Spread exact within-family ties by 1e-9 so chart denominators stay
    nonzero; ties are legal input but the Jacobian needs distinct points."""
    out = []
    for arr in (curve.alpha, curve.beta, curve.gamma):
        arr = arr.copy()
        for k in range(1, len(arr)):
            if arr[k] - arr[k - 1] < 1e-9 and arr[k] >= arr[k - 1]:
                arr[k] = arr[k - 1] + 1e-9
        out.append(arr)
    return out


def line_chart(curve: Genus0Curve):
    """Map the circle minus a base point to the real line.

    The base point sits in the middle of the gap between the last gamma and
    the first alpha, so the line ordering is alphas, then betas, then gammas.
    Returns (tau_alpha, tau_gamma, tau_beta, theta0)."""
    al, be, ga = _separated_families(curve)
    gap = float(np.mod(al[0] - ga[-1], TWO_PI))
    theta0 = float(np.mod(ga[-1] + 0.5 * gap, TWO_PI))

    def to_line(theta):
        s = np.mod(theta - theta0, TWO_PI)
        return -1.0 / np.tan(0.5 * s)

    return to_line(al), to_line(ga), to_line(be), theta0


def _pair_log_kernel(families, log_kernel, dlog_kernel):
    """Values and Jacobian of the cyclic pairwise-log boundary map.

    ``families`` is (alpha, gamma, beta), each of length d.  Family m pairs
    with the next family in that cycle with a plus sign and with the previous
    one with a minus sign: value_m[i] = sum_j f(x_m[i] - x_{m+1}[j])
    - sum_j f(x_m[i] - x_{m-1}[j]), which gives log|A|, log|B|, log|C| up to
    prefactors.  ``log_kernel`` f must be even and ``dlog_kernel`` its
    derivative (odd), so the three pair matrices x_m - x_{m+1} serve all six
    pairings: family m reads its own matrix along axis 1 and the previous
    one transposed.  Returns the 3d values and the 3d x 3d Jacobian, rows
    and columns both in family order."""
    d = len(families[0])
    pairs = [x[:, None] - families[(m + 1) % 3][None, :] for m, x in enumerate(families)]
    logs = [log_kernel(p) for p in pairs]
    derivs = [dlog_kernel(p) for p in pairs]
    values = np.concatenate([logs[m].sum(axis=1) - logs[m - 1].sum(axis=0) for m in range(3)])
    jac = np.zeros((3, d, 3, d))
    for m in range(3):
        jac[m, :, m] = np.diag(derivs[m].sum(axis=1) + derivs[m - 1].sum(axis=0))
        jac[m, :, (m + 1) % 3] = -derivs[m]
        jac[m, :, m - 1] = -derivs[m - 1].T
    return values, jac.reshape(3 * d, 3 * d)


def _line_kernel(tau_alpha, tau_gamma, tau_beta):
    families = [np.asarray(t, dtype=float) for t in (tau_alpha, tau_gamma, tau_beta)]
    return _pair_log_kernel(families, lambda x: np.log(np.abs(x)), np.reciprocal)


def chart_log_boundary(tau_alpha, tau_gamma, tau_beta) -> np.ndarray:
    """log|A|, log|B|, log|C| as functions of the line-chart coordinates with
    unit chart prefactors; this is the function the Jacobian differentiates."""
    return _line_kernel(tau_alpha, tau_gamma, tau_beta)[0]


def jacobian_logABC(curve: Genus0Curve) -> np.ndarray:
    """Symmetric Jacobian of (log|A|, log|B|, log|C|) in the line chart.

    Rows are (A_1..A_d, B_1..B_d, C_1..C_d); columns are the chart coordinates
    of (alpha_1..alpha_d, gamma_1..gamma_d, beta_1..beta_d), pairing each
    boundary value with the angle that defines it."""
    ta, tc, tb, _ = line_chart(curve)
    return _line_kernel(ta, tc, tb)[1]


def jacobian_kernel_vectors(curve: Genus0Curve) -> tuple[np.ndarray, np.ndarray]:
    """The two exact null directions in the chart: a common translation of all
    coordinates, and the coordinate vector itself (scaling)."""
    ta, tc, tb, _ = line_chart(curve)
    ones = np.ones(3 * curve.d)
    coords = np.concatenate([ta, tc, tb])
    return ones, coords


def jacobian_blocks(curve: Genus0Curve) -> np.ndarray:
    """The (d,d,d,3,3) array of elementary rank-one interaction blocks; the
    full Jacobian is their sum over all index triples divided by d.  Block
    (i,j,k) acts on the chart coordinates of (alpha_i, gamma_j, beta_k)."""
    d = curve.d
    ta, tc, tb, _ = line_chart(curve)
    p = 1.0 / (ta[:, None, None] - tc[None, :, None]) * np.ones((1, 1, d))
    q = 1.0 / (tb[None, None, :] - ta[:, None, None]) * np.ones((1, d, 1))
    r = 1.0 / (tc[None, :, None] - tb[None, None, :]) * np.ones((d, 1, 1))
    blocks = np.empty((d, d, d, 3, 3))
    blocks[..., 0, 0] = p + q
    blocks[..., 0, 1] = -p
    blocks[..., 0, 2] = -q
    blocks[..., 1, 0] = -p
    blocks[..., 1, 1] = p + r
    blocks[..., 1, 2] = -r
    blocks[..., 2, 0] = -q
    blocks[..., 2, 1] = -r
    blocks[..., 2, 2] = q + r
    return blocks


# ---------------------------------------------------------------------------
# Newton inversion of the boundary map


def _circle_log_boundary(state: np.ndarray):
    """(log|A|, log|B|, log|C|) and its Jacobian in the circle chart, for the
    packed state (alpha, gamma, beta, log rho_z, log rho_w) of length 3d + 2."""
    d = (len(state) - 2) // 3
    families = (state[:d], state[d:2 * d], state[2 * d:3 * d])
    values, jac = _pair_log_kernel(families, lambda x: np.log(np.abs(np.sin(0.5 * x))),
                                   lambda x: 0.5 / np.tan(0.5 * x))
    # A carries rho_w, B carries 1/rho_z and C carries rho_z/rho_w
    prefactor = np.repeat([[0.0, 1.0], [-1.0, 0.0], [1.0, -1.0]], d, axis=0)
    return values + prefactor @ state[3 * d:], np.hstack([jac, prefactor])


def _ordered(full: np.ndarray) -> bool:
    return bool(np.all(np.diff(full) > 0.0) and full[0] >= 0.0 and full[-1] < TWO_PI)


def validate_boundary_triple(target: BoundaryTriple) -> None:
    """Reject targets outside the realizable sign/product pattern (product
    constraint to 1e-8)."""
    sign_c = (-1.0) ** target.d
    if np.any(target.A <= 0) or np.any(target.B <= 0) or np.any(sign_c * target.C <= 0):
        raise ValueError("invalid boundary data: sign pattern not realizable")
    if target.product_defect() > 1e-8:
        raise ValueError(
            f"invalid boundary data: product constraint violated by "
            f"{target.product_defect():.3e}")


def invert_boundary(target: BoundaryTriple, with_stats: bool = False):
    """Recover the unique gauge-fixed curve with the given boundary data.

    Gauge: alpha_1, beta_1, gamma_1 pinned to the canonical anchors, target
    rescaled to A_1 = B_1 = 1; the rescaling is undone on the way out.  Damped
    Newton with a least-squares step, Armijo backtracking, and a step clip of
    half the smallest cyclic gap, until the log residual is below 1e-10 in
    every entry, in at most 50 steps.  Raises on targets violating the sign
    or product pattern and on stagnation."""
    validate_boundary_triple(target)
    d = target.d
    scale_a = target.A[0]
    scale_b = target.B[0]
    log_target = np.concatenate([
        np.log(target.A / scale_a),
        np.log(target.B / scale_b),
        np.log(np.abs(target.C) * scale_a * scale_b),
    ])

    spread = TWO_PI / (3.0 * d)
    state = np.concatenate([
        CANONICAL_ANCHORS[0] + spread * np.arange(d),
        CANONICAL_ANCHORS[2] + spread * np.arange(d),
        CANONICAL_ANCHORS[1] + spread * np.arange(d),
        np.zeros(2),
    ])
    # everything but the three anchored angles moves
    free_cols = np.delete(np.arange(3 * d + 2), [0, d, 2 * d])

    tol = 1e-10
    max_steps = 50
    values, jac = _circle_log_boundary(state)
    res = values - log_target
    steps = 0
    for steps in range(1, max_steps + 1):
        if np.max(np.abs(res)) < tol:
            steps -= 1
            break
        step, *_ = np.linalg.lstsq(jac[:, free_cols], -res, rcond=None)
        angle_step = step[:-2]
        full = np.sort(state[:3 * d])
        gaps = np.diff(np.concatenate([full, [full[0] + TWO_PI]]))
        max_move = np.max(np.abs(angle_step)) if len(angle_step) else 0.0
        limit = 0.5 * gaps.min()
        if max_move > limit > 0:
            step *= limit / max_move
        norm0 = np.linalg.norm(res)
        lam = 1.0
        for _ in range(14):
            trial = state.copy()
            trial[free_cols] += lam * step
            # alpha, beta, gamma must stay in counterclockwise arc order
            if _ordered(np.concatenate([trial[:d], trial[2 * d:3 * d], trial[d:2 * d]])):
                values, new_jac = _circle_log_boundary(trial)
                new_res = values - log_target
                if np.linalg.norm(new_res) <= (1.0 - 1e-4 * lam) * norm0:
                    state, res, jac = trial, new_res, new_jac
                    break
            lam *= 0.5
        else:
            raise RuntimeError(
                f"no convergence: line search stalled at step {steps}, "
                f"residual {norm0:.3e}")
    if np.max(np.abs(res)) >= tol:
        raise RuntimeError(
            f"no convergence: residual {np.max(np.abs(res)):.3e} "
            f"after {max_steps} steps")

    rho_z = float(np.exp(state[3 * d]) / scale_b)
    rho_w = float(np.exp(state[3 * d + 1]) * scale_a)
    curve = Genus0Curve(d, state[:d], state[2 * d:3 * d], state[d:2 * d], rho_z, rho_w)
    if with_stats:
        return curve, {"steps": steps, "residual": float(np.max(np.abs(res)))}
    return curve


# ---------------------------------------------------------------------------
# gauge transport (disk automorphisms acting on the parameter circle)


def mobius_through(src, dst) -> np.ndarray:
    """2x2 matrix of the Mobius map sending the three src points to dst."""

    def standard(p):
        # maps p1, p2, p3 to 0, 1, infinity
        return np.array([
            [p[1] - p[2], -p[0] * (p[1] - p[2])],
            [p[1] - p[0], -p[2] * (p[1] - p[0])],
        ], dtype=complex)

    return _mobius_inverse(standard(dst)) @ standard(src)


def apply_mobius(matrix: np.ndarray, u):
    return (matrix[0, 0] * u + matrix[0, 1]) / (matrix[1, 0] * u + matrix[1, 1])


def _mobius_inverse(matrix: np.ndarray) -> np.ndarray:
    return np.array([[matrix[1, 1], -matrix[0, 1]],
                     [-matrix[1, 0], matrix[0, 0]]])


def interior_value(curve: Genus0Curve, u: complex) -> tuple[complex, complex]:
    """Analytic continuation of (z, w) off the parameter circle: for
    u = exp(i t) this reproduces evaluate_parametrization exactly."""
    al, be, ga = _lifted_angles(curve)
    a = np.exp(1j * al)
    b = np.exp(1j * be)
    g = np.exp(1j * ga)
    phase_z = np.exp(0.5j * np.sum(be - al))
    phase_w = np.exp(0.5j * np.sum(be - ga))
    z = curve.rho_z * phase_z * np.prod((u - a) / (u - b))
    w = curve.rho_w * phase_w * np.prod((u - g) / (u - b))
    return complex(z), complex(w)


def transport_gauge(curve: Genus0Curve, matrix: np.ndarray) -> Genus0Curve:
    """Reparametrize by a Mobius automorphism of the disk.

    The curve in the (z, w) plane is unchanged; angles move to their images
    and the prefactors are re-read off at the new disk center."""
    new_al = _wrap_angles(np.angle(apply_mobius(matrix, np.exp(1j * curve.alpha))))
    new_be = _wrap_angles(np.angle(apply_mobius(matrix, np.exp(1j * curve.beta))))
    new_ga = _wrap_angles(np.angle(apply_mobius(matrix, np.exp(1j * curve.gamma))))
    center_pre = apply_mobius(_mobius_inverse(matrix), 0.0 + 0.0j)
    if abs(center_pre) >= 1.0:
        raise ValueError("gauge transport is not a disk automorphism")
    z0, w0 = interior_value(curve, center_pre)
    return Genus0Curve(curve.d, new_al, new_be, new_ga, abs(z0), abs(w0))


def align_canonical(curve: Genus0Curve) -> Genus0Curve:
    """Transport to the gauge with the first angles at the canonical anchors."""
    src = np.exp(1j * np.array([curve.alpha[0], curve.beta[0], curve.gamma[0]]))
    dst = np.exp(1j * np.array(CANONICAL_ANCHORS))
    return transport_gauge(curve, mobius_through(src, dst))


# ---------------------------------------------------------------------------
# isoradial angle data


@dataclass
class IsoradialAngles:
    """Unit rhombus directions of an isoradial embedding: one angle per row
    (gamma), column (alpha), and diagonal (beta) of the fundamental domain."""

    d: int
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        _set_families(self, "not isoradial")

    @classmethod
    def random(cls, d: int, rng: np.random.Generator) -> "IsoradialAngles":
        return cls(d, *_random_families(d, rng))

    @classmethod
    def from_curve(cls, curve: Genus0Curve) -> "IsoradialAngles":
        return cls(curve.d, curve.alpha, curve.beta, curve.gamma)

    def as_curve(self) -> Genus0Curve:
        return Genus0Curve(self.d, self.alpha, self.beta, self.gamma, 1.0, 1.0)


def isoradial_weights(angles: IsoradialAngles) -> EdgeWeights:
    """Edge weights of the isoradial embedding: each edge crosses the rhombus
    spanned by its two unit track directions and gets the crossing diagonal
    2|sin((theta1-theta2)/2)|, which equals sqrt(4 - other_diagonal^2)."""
    d = angles.d
    i = np.arange(d)[:, None]
    j = np.arange(d)[None, :]
    k = (i + j) % d
    beta_k = angles.beta[k]
    c_w = 2.0 * np.abs(np.sin(0.5 * (angles.gamma[i] - angles.alpha[j])))
    a_w = 2.0 * np.abs(np.sin(0.5 * (angles.gamma[i] - beta_k)))
    b_w = 2.0 * np.abs(np.sin(0.5 * (angles.alpha[j] - beta_k)))
    floor = 1e-12
    if min(c_w.min(), a_w.min(), b_w.min()) < floor:
        warnings.warn("degenerate rhombus: zero edge weight floored",
                      stacklevel=2)
        c_w = np.maximum(c_w, floor)
        a_w = np.maximum(a_w, floor)
        b_w = np.maximum(b_w, floor)
    return EdgeWeights(d, a_w, b_w, c_w)


@dataclass
class IsoradialReport:
    residual: float
    on_curve: bool
    origin_in_amoeba: bool


def isoradial_spectral_check(angles: IsoradialAngles) -> IsoradialReport:
    """Verify that the unit-prefactor parametrization lies on the spectral
    curve of the isoradial weights (after the degree-parity sign flip), to a
    relative residual of 1e-8 at 100 samples, and that the amoeba contains
    the origin."""
    poly = characteristic_polynomial(isoradial_weights(angles))
    residual = _circle_residual(poly, angles.as_curve(), (-1.0) ** angles.d)
    origin = amoeba.amoeba_membership(poly, 0.0, 0.0)
    return IsoradialReport(residual=residual, on_curve=residual < 1e-8,
                           origin_in_amoeba=origin)


# ---------------------------------------------------------------------------
# shift point: moving a genus-zero curve to unit prefactors


def find_isoradial_shift(curve: Genus0Curve):
    """Locate the unique disk point where both |z| and |w| equal 1 and
    transport the curve so that point becomes the disk center, producing unit
    prefactors.  Returns (zeta, shifted_curve), or None when the origin lies
    outside the amoeba (no such point exists).

    One damped Newton solve from u = 0 for (log|z(u)|, log|w(u)|) = 0, to
    1e-12, in at most 60 steps, each trial kept inside |u| < 1 - 1e-6.
    Both are log moduli of holomorphic maps: log z(u) = log rho_z
    + sum log(u - a_i) - sum log(u - b_k) + a constant phase, so with
    D = sum 1/(u - a_i) - sum 1/(u - b_k) the gradient in (Re u, Im u) is
    exactly (Re D, -Im D), and likewise for w.  Raises RuntimeError
    ("no convergence: ...") when the solve stops short although the origin
    is in the amoeba."""
    poly = implicitize(curve)
    if not amoeba.amoeba_membership(poly, 0.0, 0.0):
        return None
    zeros = np.exp(1j * np.stack([curve.alpha, curve.gamma]))
    poles = np.exp(1j * curve.beta)
    log_rho = np.log([curve.rho_z, curve.rho_w])

    def residual(u: complex):
        f = (log_rho + np.log(np.abs(u - zeros)).sum(axis=1)
             - np.log(np.abs(u - poles)).sum())
        grad = (1.0 / (u - zeros)).sum(axis=1) - (1.0 / (u - poles)).sum()
        return f, np.column_stack([grad.real, -grad.imag])

    u = 0.0 + 0.0j
    f, jac = residual(u)
    for step in range(60):
        norm0 = np.linalg.norm(f)
        if np.max(np.abs(f)) < 1e-12:
            break
        delta = np.linalg.lstsq(jac, -f, rcond=None)[0]
        for lam in 0.5 ** np.arange(20):
            trial = u + lam * complex(delta[0], delta[1])
            if abs(trial) < 0.999999:
                new_f, new_jac = residual(trial)
                if np.linalg.norm(new_f) < norm0:
                    u, f, jac = trial, new_f, new_jac
                    break
        else:
            break
    if np.max(np.abs(f)) >= 1e-12:
        raise RuntimeError(
            f"no convergence: shift search stopped at step {step}, "
            f"residual {np.max(np.abs(f)):.3e}")
    zeta = complex(u)
    matrix = np.array([[1.0, -zeta], [-np.conj(zeta), 1.0]], dtype=complex)
    return zeta, transport_gauge(curve, matrix)
