"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the library's computation paths:
hulls, distances, and moments are recomputed from first principles so
that agreement is evidence, not circularity.
"""

from __future__ import annotations

import numpy as np


def hull_ccw(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull (counterclockwise), independent of setlaw."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def boundary_points(hull: np.ndarray, total: int) -> np.ndarray:
    """Dense samples along a CCW polygon boundary, vertices included."""
    nxt = np.roll(hull, -1, axis=0)
    lengths = np.linalg.norm(nxt - hull, axis=1)
    perimeter = lengths.sum()
    if perimeter == 0.0:
        return hull.copy()
    pieces = [hull]
    for a, b, ln in zip(hull, nxt, lengths):
        count = max(1, int(round(total * ln / perimeter)))
        t = np.arange(1, count)[:, None] / count
        pieces.append(a + t * (b - a))
    return np.concatenate(pieces)


def dist_points_to_polygon(points: np.ndarray, hull: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to a convex CCW polygon (0 inside)."""
    pts = np.asarray(points, dtype=float)
    if len(hull) == 1:
        return np.linalg.norm(pts - hull[0], axis=1)
    a = hull
    b = np.roll(hull, -1, axis=0)
    ab = b - a
    seg_len2 = np.maximum((ab ** 2).sum(axis=1), 1e-300)
    best = np.full(len(pts), np.inf)
    inside = np.ones(len(pts), dtype=bool)
    for i in range(len(hull)):
        ap = pts - a[i]
        t = np.clip((ap @ ab[i]) / seg_len2[i], 0.0, 1.0)
        proj = a[i] + t[:, None] * ab[i]
        best = np.minimum(best, np.linalg.norm(pts - proj, axis=1))
        if len(hull) >= 3:
            side = ab[i, 0] * ap[:, 1] - ab[i, 1] * ap[:, 0]
            inside &= side >= -1e-12
    if len(hull) >= 3:
        best[inside] = 0.0
    return best


def polygon_hausdorff(hull_a: np.ndarray, hull_b: np.ndarray,
                      samples: int = 100_000) -> float:
    """Two-sided Hausdorff distance via dense boundary sampling.

    The sup of the distance-to-other-set over a convex polygon is attained
    at a vertex, and vertices are included in the samples, so the max side
    is exact; the point-to-polygon distances are exact by construction.
    """
    pts_a = boundary_points(hull_a, samples // 2)
    pts_b = boundary_points(hull_b, samples // 2)
    d_ab = dist_points_to_polygon(pts_a, hull_b).max()
    d_ba = dist_points_to_polygon(pts_b, hull_a).max()
    return float(max(d_ab, d_ba))


def random_convex_polygon(rng: np.random.Generator, center, radius: float,
                          max_vertices: int = 12) -> np.ndarray:
    """CCW hull of a handful of random points around a center."""
    k = int(rng.integers(3, max_vertices + 1))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=k)
    radii = rng.uniform(0.3 * radius, radius, size=k)
    pts = np.asarray(center) + np.column_stack(
        [radii * np.cos(angles), radii * np.sin(angles)])
    return hull_ccw(pts)


def ellipsoid_boundary_support(center, semi_axes, direction,
                               samples: int = 1_000_000,
                               rng: np.random.Generator | None = None) -> float:
    """Max inner product over uniformly sampled boundary points of an ellipsoid."""
    rng = rng or np.random.default_rng(0)
    d = len(semi_axes)
    z = rng.standard_normal((samples, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    pts = np.asarray(center) + z * np.asarray(semi_axes)
    return float((pts @ np.asarray(direction)).max())


def variance_table(family, n: int) -> np.ndarray:
    """(n, m) Var h(V_k, u) = Var(s_k) h_T(u)^2 of a family V_k = s_k T, one
    column per grid direction: the full table a family's one-column schedule
    stands for.  An h_T(u)^2 that overflows gives inf, except where
    Var(s_k) = 0, which gives 0 however large the body."""
    v = family._scale_variances(n)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.outer(v, family._row ** 2)
    out[v == 0.0] = 0.0
    return out
