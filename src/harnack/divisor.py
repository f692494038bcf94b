"""Vertex divisors on the compact ovals of a spectral curve.

At a smooth point of the curve the operator K(z, w) has one-dimensional
kernel and cokernel; the left null vector, followed continuously around a
compact oval, is a section of a real line bundle, and the zeros of its
component at a chosen white vertex form the divisor of that vertex.  The
divisor of any vertex of a positive-weight model puts exactly one point on
each compact oval, (d-1)(d-2)/2 points in total.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .amoeba import RealOval, _newton_to_curve, trace_real_ovals
from .kasteleyn import assemble_K, characteristic_polynomial
from .lattice import EdgeWeights
from .numerics import illinois

__all__ = [
    "DivisorPoint",
    "left_null_vector",
    "vertex_divisor",
    "all_vertex_divisors",
    "is_standard_divisor",
]


@dataclass(frozen=True)
class DivisorPoint:
    """A zero of the vertex section on a compact oval.  oval_id indexes the
    oval list used during the computation."""

    vertex: tuple[int, int]
    oval_id: int
    z: float
    w: float


def left_null_vector(weights: EdgeWeights, z: complex, w: complex) -> np.ndarray:
    """Unit row vector u with u K(z, w) = 0.

    The point must lie on the spectral curve (smallest singular value at most
    1e-6 of the largest) and be smooth there (second-smallest singular value
    at least 1e3 times the smallest); at a node both trailing singular values
    collapse and the cokernel is no longer a line."""
    kast = assemble_K(weights, z, w)
    u_mat, sigma, _ = np.linalg.svd(kast)
    # the weight mass keeps the scale reference meaningful when K degenerates
    # entirely (the 1 x 1 case vanishes identically on the curve)
    mass = float(weights.a.sum() + weights.b.sum() + weights.c.sum())
    scale = max(sigma[0], mass / weights.d)
    if sigma[-1] > 1e-6 * scale:
        raise ValueError(
            f"point not on the spectral curve: singular value ratio "
            f"{sigma[-1] / scale:.3e}")
    if len(sigma) > 1 and sigma[-2] < 1e3 * max(sigma[-1], 1e-300):
        raise ValueError("singular point")
    vec = np.conj(u_mat[:, -1])
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec * (np.conj(vec[pivot]) / np.abs(vec[pivot]))
    if np.max(np.abs(vec.imag)) < 1e-8:
        vec = vec.real / np.linalg.norm(vec.real)
    return vec


def _chain_null_vectors(weights: EdgeWeights, points: np.ndarray) -> np.ndarray:
    """Null vectors at every trace point, sign-chained so consecutive vectors
    have positive dot product (a continuous trivialization along the loop)."""
    vecs = []
    for z, w in points:
        vec = left_null_vector(weights, z, w)
        if vec.dtype != np.float64:
            raise ValueError("oval sample produced a complex null vector")
        if vecs and float(vecs[-1] @ vec) < 0.0:
            vec = -vec
        vecs.append(vec)
    return np.array(vecs)


@functools.lru_cache(maxsize=1)
def _memo_chains(d: int, a: bytes, b: bytes, c: bytes, ovals: tuple[bytes, ...]) -> tuple[np.ndarray, ...]:
    """``_chain_null_vectors`` of each closed oval, read-only.

    Every vertex of a weight set reads the same chains, so the last weight
    set's are memoised, keyed by d, the bytes of a, b and c, and the bytes
    of each closed oval's points.
    """
    weights = EdgeWeights(d, *(np.frombuffer(v).reshape(d, d) for v in (a, b, c)))
    chains = tuple(_chain_null_vectors(weights, np.frombuffer(p).reshape(-1, 2)) for p in ovals)
    for chain in chains:
        chain.setflags(write=False)
    return chains


def sign_change_count(values: np.ndarray) -> int:
    """Cyclic sign changes of a chained component sequence; even on a loop,
    counting the actual zeros plus one flip when the bundle is a Mobius band."""
    nxt = np.roll(values, -1)
    return int(np.sum(values * nxt < 0.0))


def _refine_zero(weights, poly, quadrant, p0, p1, u0, idx, end_value) -> tuple[float, float]:
    """The component-idx zero on the oval segment [p0, p1], refined by ``numerics.illinois``.

    The bracket is t in [0, 1]: the point at t is the log-linear point
    between p0 and p1, projected onto the curve by ``_newton_to_curve``, and
    f(t) is the idx component of its null vector, sign-aligned with u0, the
    chained vector at p0. f(0) is u0[idx] and f(1) is ``end_value``, of the
    opposite sign. f is divided by |f(1) - f(0)|, so that its slope over the
    bracket is of order one, as the kernel's absolute |f| < 1e-15 stop
    assumes: a component that changes by 1e-5 along a segment would
    otherwise stop 1e-10 of the segment from its zero. A point that does
    not project raises RuntimeError.
    """
    sz, sw = quadrant
    start = np.array([math.log(abs(p0[0])), math.log(abs(p0[1]))])
    stop = np.array([math.log(abs(p1[0])), math.log(abs(p1[1]))])
    gap = abs(end_value - u0[idx])

    def point(t):
        proj = _newton_to_curve(poly, quadrant, (1.0 - t) * start + t * stop)
        if proj is None:
            raise RuntimeError(f"no convergence: projection of the divisor bracket point t = {t!r} onto the curve")
        return sz * math.exp(proj[0]), sw * math.exp(proj[1])

    def component(t, todo):
        vec = left_null_vector(weights, *point(float(t[0])))
        return [(vec[idx] if float(u0 @ vec) >= 0.0 else -vec[idx]) / gap]

    (t,) = illinois(component, [0.0], [1.0], [u0[idx] / gap], [end_value / gap])
    return point(float(t))


def vertex_divisor(weights: EdgeWeights, vertex: tuple[int, int],
                   ovals: list[RealOval] | None = None) -> list[DivisorPoint]:
    """Divisor of one white vertex: zeros of its null-vector component along
    every compact oval.

    The total must equal (d-1)(d-2)/2; a mismatch raises with per-oval
    diagnostics rather than returning a silently wrong divisor."""
    d = weights.d
    i, j = vertex
    if not (0 <= i < d and 0 <= j < d):
        raise ValueError(f"vertex ({i},{j}) outside the {d}x{d} fundamental domain")
    expected = (d - 1) * (d - 2) // 2
    poly = characteristic_polynomial(weights)
    if ovals is None:
        ovals = trace_real_ovals(poly)
    idx = i * d + j
    points: list[DivisorPoint] = []
    per_oval = []
    chains = iter(_memo_chains(d, weights.a.tobytes(), weights.b.tobytes(), weights.c.tobytes(),
                               tuple(oval.points.tobytes() for oval in ovals if oval.closed)))
    for oval_id, oval in enumerate(ovals):
        if not oval.closed:
            continue
        chain = next(chains)
        comp = chain[:, idx]
        zeros_here = 0
        n = len(comp)
        for k in range(n):
            k1 = (k + 1) % n
            if k1 == 0:
                # closing segment: the chained continuation of the start
                # vector is -chain[0] when the bundle carries a holonomy
                # flip, and a zero lives here only against that continuation
                closure = float(chain[k] @ chain[0])
                end_value = comp[0] if closure > 0.0 else -comp[0]
            else:
                end_value = comp[k1]
            if comp[k] * end_value >= 0.0:
                continue
            z0, w0 = _refine_zero(weights, poly, oval.quadrant, oval.points[k], oval.points[k1],
                                  chain[k], idx, end_value)
            points.append(DivisorPoint((i, j), oval_id, z0, w0))
            zeros_here += 1
        per_oval.append((oval_id, n, zeros_here))
    if len(points) != expected:
        raise RuntimeError(
            f"divisor count mismatch: found {len(points)}, expected "
            f"{expected}; per-oval (id, samples, zeros) = {per_oval}")
    return points


def all_vertex_divisors(weights: EdgeWeights) -> dict[tuple[int, int], list[DivisorPoint]]:
    """Divisors of every white vertex over one shared oval trace."""
    poly = characteristic_polynomial(weights)
    ovals = trace_real_ovals(poly)
    return {
        (i, j): vertex_divisor(weights, (i, j), ovals=ovals)
        for i in range(weights.d) for j in range(weights.d)
    }


def is_standard_divisor(points: list[DivisorPoint],
                        ovals: list[RealOval]) -> bool:
    """True when every compact oval carries exactly one of the points."""
    counts = {k: 0 for k, oval in enumerate(ovals) if oval.closed}
    for point in points:
        if point.oval_id not in counts:
            return False
        counts[point.oval_id] += 1
    return all(v == 1 for v in counts.values())
