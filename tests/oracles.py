"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the library's computation paths:
hulls, distances, and moments are recomputed from first principles so
that agreement is evidence, not circularity.  The ``*_reference``
functions are the exception: plain forms of library steps whose faster
forms must return the same bytes; so is ``wlln_chunk_gaps``, which repeats
the step a weak-law run takes after its chunks.
"""

from __future__ import annotations

from itertools import product

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


def polygon_hausdorff(hull_a: np.ndarray, hull_b: np.ndarray) -> float:
    """Two-sided Hausdorff distance of two convex CCW polygons.

    The distance to a convex set is a convex function, so its sup over a
    convex polygon is attained at a vertex; the point-to-polygon distances
    are exact by construction.
    """
    d_ab = dist_points_to_polygon(hull_a, hull_b).max()
    d_ba = dist_points_to_polygon(hull_b, hull_a).max()
    return float(max(d_ab, d_ba))


def hull_prune_reference(vertices: np.ndarray) -> np.ndarray:
    """The monotone chain of ``setlaw.geometry._hull_prune`` on numpy rows and
    numpy scalars: the same floating-point operations, so the same bytes."""
    if vertices.shape[1] == 1:
        lo, hi = float(vertices.min()), float(vertices.max())
        return np.array([[lo]]) if lo == hi else np.array([[lo], [hi]])
    pts = np.unique(vertices, axis=0)
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if not hull:
        hull = [pts[0], pts[-1]]
    return np.array(hull)


def _inner(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """(k, m) inner products of the columns of P (d, k) and Q (d, m), summed
    coordinate by coordinate."""
    out = np.multiply.outer(P[0], Q[0])
    for c in range(1, len(P)):
        out += np.multiply.outer(P[c], Q[c])
    return out


_PROBES_3D = np.array([p for p in product((-1.0, 0.0, 1.0), repeat=3) if any(p)])


def drop_interior_reference(points: np.ndarray) -> np.ndarray:
    """The interior drop of ``setlaw.geometry._drop_interior`` in its plain
    form: the 26 probes as one (N, 26) inner-product table, ``np.cross`` and
    ``np.linalg.norm``, the acceptance test on heights - base, and a rows-major
    keep test.  The library's form must keep the same rows, byte for byte."""
    _, exponent = np.frexp(np.abs(points).max())
    coords = np.ascontiguousarray(np.ldexp(points.T, -exponent))
    maximizer = np.zeros(len(points), dtype=bool)
    maximizer[np.argmax(_inner(coords, _PROBES_3D.T), axis=0)] = True
    probed = coords[:, maximizer]
    if probed.shape[1] < 4:
        return points
    r = np.arange(probed.shape[1])
    i, j, k = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))  # i < j < k
    a, b = probed[:, j] - probed[:, i], probed[:, k] - probed[:, i]
    normals = np.cross(a, b, axis=0)
    slack = 1e-9 * np.abs(coords).max() * np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=0)
    heights = _inner(probed, normals)
    base = heights[i, np.arange(len(i))]
    above = heights - base
    up, down = above.max(axis=0) <= slack, above.min(axis=0) >= -slack
    normals = np.concatenate([normals[:, up], -normals[:, down]], axis=1)
    floor = np.concatenate([base[up] - slack[up], -base[down] - slack[down]])
    keep = np.any(_inner(coords, normals) >= floor, axis=1)
    return points[keep]


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


def interval_spec_reference(pattern, block_dim, n: int):
    """The ``EllipsoidFamilySpec`` of ``EllipsoidIntervalFamily(pattern, block_dim)``'s
    draw at length n, by the rule of the spec cache the family once kept: the
    pattern cycled to the draw dimension (``block_dim``, or n when
    regenerated), clamped to sqrt(n) when regenerated, and built from the
    tuple of the result."""
    from setlaw import EllipsoidFamilySpec
    d = n if block_dim is None else block_dim
    axes = np.resize(np.asarray(pattern, dtype=float), d)
    if block_dim is None:
        axes = np.minimum(axes, np.sqrt(float(d)))
    return EllipsoidFamilySpec(tuple(axes))


def wlln_chunk_gaps(args) -> np.ndarray:
    """Gaps S_n / n of the replications of a weak-law chunk ``args``:
    ``run_wlln``'s once-per-n step applied to the scale sums the chunk returns."""
    from setlaw import harness
    family, n = args[:2]
    target = harness._sums_in_order(family._mean_scales(n)[None])[0] / n
    gaps = np.abs(harness._wlln_chunk(args) / n - target)
    gaps *= family._norm
    return gaps
