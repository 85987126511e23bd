"""Nonempty compact convex subsets of R^d.

Bodies are immutable values in one of several representations (interval,
box, vertex polytope, ellipsoid, or support values on a direction grid).
All arithmetic goes through the support function: Minkowski sums add
supports, scalar multiples scale them, and the Hausdorff distance between
convex bodies is the sup of |support difference| over unit directions.
For d = 1 the unit sphere is exactly {+1, -1}, so every metric quantity
is computed exactly; for d >= 2 a finite antipodal-closed grid gives a
lower bound that tightens as the grid refines.

Each grid's neighbour structure (the order by angle in 2-D, a blocked Gram
pass beyond) finds duplicates and antipodes, and certifies that support
values on the grid are convex from each direction's neighbours.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

NORM_TOL = 1e-12        # allowed deviation of a direction from unit norm
DUPLICATE_TOL = 1e-9    # minimum chordal separation between grid directions
SUBLINEAR_TOL = 1e-9    # slack for support-value consistency checks, per unit of value

_DEFAULT_GRID_COUNT = 256
# The most directions a grid may have: 8 times the finest grid any shipped
# config, test or benchmark builds (8192), and checked before a grid
# allocates, so that a huge ``grid_count`` is one error, not a failed allocation.
_MAX_GRID_COUNT = 1 << 16

# Element count of one block of a blocked array computation: 32768
# float64 values (256 KiB), so no temporary grows with the product of two
# large dimensions.  A fresh array of that size lies above glibc's 128 KiB
# mmap threshold, so each one is a new mapping whose pages fault in when
# first written; blocked inner products therefore write into the thread's
# work memory (:func:`_work`).
_BLOCK_ELEMENTS = 1 << 15

# Each thread's work memory (:func:`_work`), so that threads evaluating
# blocks at the same time never write over each other's products.
_thread = threading.local()


class GeometryError(ValueError):
    """Invalid geometric construction or query."""


def _readonly(arr, dtype=float) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Slices of ``rows`` so that a (block, width) array has about _BLOCK_ELEMENTS."""
    step = max(1, _BLOCK_ELEMENTS // max(width, 1))
    for start in range(0, rows, step):
        yield slice(start, min(rows, start + step))


def _work(size: int) -> np.ndarray:
    """This thread's work memory, at least ``size`` float64 values: grown to
    the largest size the thread has asked for, and kept for its life."""
    work = getattr(_thread, "work", None)
    if work is None or len(work) < size:
        work = _thread.work = np.empty(size)
    return work


def _unit_rows(rows) -> np.ndarray:
    """Read-only float copy of the (m, d) ``rows``, each finite and of unit norm.

    The one rule for directions: a :class:`Direction` is its single row, a
    :class:`DirectionGrid` its matrix.  Norms may be off 1 by NORM_TOL.
    """
    try:
        m = np.array(rows, dtype=float)
    except ValueError as exc:
        raise GeometryError(f"directions must share one dimension: {exc}") from exc
    if m.ndim != 2 or m.shape[1] < 1:
        raise GeometryError("direction needs at least one component")
    if not np.isfinite(m).all():
        raise GeometryError("direction components must be finite")
    norms = np.linalg.norm(m, axis=1)
    off = np.abs(norms - 1.0) > NORM_TOL
    if off.any():
        raise GeometryError(f"direction norm {float(norms[off][0])!r} is not 1 within {NORM_TOL}")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class Direction:
    """Unit vector in R^d used to probe support functions."""

    components: tuple[float, ...]

    def __post_init__(self):
        comps = tuple(float(c) for c in self.components)
        object.__setattr__(self, "components", comps)
        _unit_rows([comps])

    @classmethod
    def unit(cls, vector) -> "Direction":
        """Normalize an arbitrary nonzero vector into a Direction."""
        v = np.asarray(vector, dtype=float)
        norm = float(np.linalg.norm(v))
        if not norm > 0.0:
            raise GeometryError("cannot normalize a zero vector")
        return cls(tuple(v / norm))

    @property
    def dim(self) -> int:
        return len(self.components)

    @cached_property
    def vector(self) -> np.ndarray:
        return _readonly(self.components)

    def negated(self) -> "Direction":
        return Direction(tuple(-c for c in self.components))


class DirectionGrid:
    """Finite duplicate-free set of directions discretizing the unit sphere.

    The grid is its read-only (count, dim) matrix of unit rows, given as
    :class:`Direction` objects or as rows (any sequence, or an array);
    equality, hashing and every numeric operation read that matrix.  The
    :attr:`directions` view builds one Direction per row on first use.

    For dim 1 the grid must be exactly {+1, -1}; that case is an exact
    description of the sphere rather than a discretization.  Antipodal
    closure (every u accompanied by -u) is detected at construction and
    is required by operations that reflect bodies, such as negative
    scalar multiples of embedded bodies.
    """

    def __init__(self, directions: Sequence[Direction] | np.ndarray, label: str | None = None):
        rows = directions if isinstance(directions, np.ndarray) else \
            [d.components if isinstance(d, Direction) else d for d in directions]
        if len(rows) == 0:
            raise GeometryError("direction grid must be nonempty")
        m = self._matrix = _unit_rows(rows)
        count, dim = m.shape
        self.label = label or f"custom dim={dim} count={count}"
        dupes, antipodes = self._angular_pairs() if dim == 2 else self._gram_pairs()
        if len(dupes):
            i, j = min(dupes.tolist())
            raise GeometryError(f"grid directions {i} and {j} coincide within {DUPLICATE_TOL}")
        self._antipode_index = None if np.any(antipodes < 0) else _readonly(antipodes, int)
        if dim == 1 and np.sort(m[:, 0]).tolist() != [-1.0, 1.0]:
            raise GeometryError("a one-dimensional grid must be exactly {+1, -1}")

    # -- neighbour structure -------------------------------------------------

    def _angular_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Duplicate pairs and the antipode map of a 2-D grid, from its angular order.

        Directions within DUPLICATE_TOL of each other are adjacent in the
        cyclic order by angle (the pair across the +-pi seam included), and
        the antipode of the direction at angle a is one of the two
        directions either side of where a -+ pi would be inserted.
        """
        m = self._matrix
        angles = np.arctan2(m[:, 1], m[:, 0])
        order = self._order = np.argsort(angles, kind="stable")
        self._sorted_angles = angles[order]
        following = np.roll(order, -1)
        close = (order != following) & (
            np.linalg.norm(m[order] - m[following], axis=1) <= DUPLICATE_TOL)
        at = np.searchsorted(self._sorted_angles, np.where(angles > 0.0, angles - math.pi,
                                                           angles + math.pi))
        mapping = np.full(len(m), -1)
        for j in (order[at - 1], order[at % len(m)]):  # either side, across the seam
            hit = np.linalg.norm(m + m[j], axis=1) <= DUPLICATE_TOL
            mapping[hit] = j[hit]
        return np.sort(np.column_stack([order[close], following[close]]), axis=1), mapping

    def _gram_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Duplicate pairs and the antipode map from one blocked Gram pass.

        Normalized rows prefilter the pairs with |<u_i, u_j>| within about
        1e-12 of 1 (a row may be off unit norm by NORM_TOL, which would
        move its inner products by more than that); each candidate's
        distance is then recomputed by direct subtraction, which is exact
        for identical vectors where 1 - <u_i, u_j> loses all precision.
        """
        m = self._matrix
        unit = m / np.linalg.norm(m, axis=1, keepdims=True)
        i, j = np.concatenate([np.argwhere(np.abs(unit[rows] @ unit.T) > 1.0 - 5e-13)
                               + (rows.start, 0) for rows in _row_blocks(len(m), len(m))]).T
        dupes = (i < j) & (np.linalg.norm(m[i] - m[j], axis=1) <= DUPLICATE_TOL)
        opposite = np.linalg.norm(m[i] + m[j], axis=1) <= DUPLICATE_TOL
        mapping = np.full(len(m), -1)
        mapping[i[opposite]] = j[opposite]
        return np.column_stack([i[dupes], j[dupes]]), mapping

    @cached_property
    def _certificate(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cone certificates (k, S, lam) with u_k = lam @ u_S and lam >= 0.

        S runs over the two angular neighbours of u_k in 2-D, and over every
        dim-subset of the dim + 3 directions nearest u_k otherwise; subsets
        that are singular or whose cone misses u_k are dropped.  Built on
        the first embedded body on this grid.
        """
        m = self._matrix
        count, dim = m.shape
        if dim == 2:
            k = self._order
            subsets = np.column_stack([np.roll(k, 1), np.roll(k, -1)])
        else:
            near = min(count - 1, dim + 3)
            pick = np.array(list(combinations(range(near), dim)), dtype=np.intp).reshape(-1, dim)
            nearest = np.empty((count, near), dtype=np.intp)
            for rows in _row_blocks(count, count):
                gram = m[rows] @ m.T
                gram[np.arange(len(gram)), np.arange(rows.start, rows.stop)] = -np.inf
                nearest[rows] = np.argpartition(-gram, near - 1, axis=1)[:, :near]
            k = np.repeat(np.arange(count), len(pick))
            subsets = nearest[:, pick].reshape(-1, dim)
        cones = m[subsets].transpose(0, 2, 1)  # column i is u_{S_i}
        regular = np.abs(np.linalg.det(cones)) > 1e-12
        k, subsets = k[regular], subsets[regular]
        lam = np.linalg.solve(cones[regular], m[k][:, :, None])[:, :, 0]
        inside = np.all(lam >= 0.0, axis=1)
        return k[inside], subsets[inside], lam[inside]

    # -- basic access --------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @cached_property
    def directions(self) -> tuple[Direction, ...]:
        """One Direction per matrix row, built on first use."""
        return tuple(Direction(tuple(row)) for row in self._matrix.tolist())

    @property
    def matrix(self) -> np.ndarray:
        """(count, dim) array of direction components."""
        return self._matrix

    @property
    def antipodal_closed(self) -> bool:
        return self._antipode_index is not None

    @property
    def antipode_index(self) -> np.ndarray:
        if self._antipode_index is None:
            raise GeometryError("grid is not antipodal-closed")
        return self._antipode_index

    def __len__(self) -> int:
        return len(self._matrix)

    def __iter__(self) -> Iterator[Direction]:
        return iter(self.directions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectionGrid):
            return NotImplemented
        return self is other or bool(np.array_equal(self._matrix, other._matrix))

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, so grids that compare equal hash equal
        return hash((self._matrix + 0.0).tobytes())

    def __repr__(self) -> str:
        return f"DirectionGrid({self.label})"

    def index_of(self, u: Direction) -> int | None:
        """Index of the grid direction within chordal DUPLICATE_TOL of u, else None
        (also None when u has another dimension)."""
        if u.dim != self.dim:
            return None
        idx, hit = self._nearest(u.vector[None, :])
        return int(idx[0]) if hit[0] else None

    def _nearest(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest grid index of each row of U, and whether it lies within
        chordal DUPLICATE_TOL, the separation every grid keeps between its rows.

        In 2-D the nearest direction to a row is one of the two either side
        of its angle in the grid's angular order (across the +-pi seam), so
        one ``searchsorted`` finds both; ties go to the lower index, as in
        the full scan that every other dimension makes.
        """
        m = self._matrix
        if self.dim == 2:
            at = np.searchsorted(self._sorted_angles, np.arctan2(U[:, 1], U[:, 0]))
            below, above = self._order[at - 1], self._order[at % len(m)]
            pair = np.column_stack([np.minimum(below, above), np.maximum(below, above)])
            nearer = np.argmin(np.sum((U[:, None, :] - m[pair]) ** 2, axis=2), axis=1)
            idx = pair[np.arange(len(U)), nearer]
            return idx, np.linalg.norm(U - m[idx], axis=1) <= DUPLICATE_TOL
        idx = np.empty(len(U), dtype=np.intp)
        for rows in _row_blocks(len(U), m.size):
            idx[rows] = np.argmin(np.sum((U[rows, None, :] - m) ** 2, axis=2), axis=1)
        return idx, np.linalg.norm(U - m[idx], axis=1) <= DUPLICATE_TOL


def make_direction_grid(dim: int, count: int, scheme: str, seed: int = 0) -> DirectionGrid:
    """Build an antipodal-closed direction grid.

    Schemes: ``exact1d`` (the two signs: dim 1 and count 2 only, and the
    one scheme in dim 1), ``uniform_angles_2d`` (dim 2, equally spaced
    angles), ``fibonacci_3d`` (dim 3, spiral points plus antipodes),
    ``seeded_random`` (dim >= 2, normalized Gaussian directions plus
    antipodes, deterministic in ``seed``).  For antipodal schemes ``count``
    must be even: count/2 directions are generated and their exact
    negations appended.  ``count`` is at most 65536, and ``seed`` must be
    >= 0 for every scheme.
    """
    if dim < 1:
        raise GeometryError("dim must be >= 1")
    if count < 2:
        raise GeometryError("count must be >= 2")
    if count > _MAX_GRID_COUNT:
        raise GeometryError(f"count must be <= {_MAX_GRID_COUNT}, not {count}")
    if seed < 0:
        raise GeometryError(f"grid seed must be >= 0, not {seed}")
    if scheme == "exact1d":
        if dim != 1 or count != 2:
            raise GeometryError(f"scheme exact1d is dim 1 with count 2, not dim {dim} count {count}")
        return DirectionGrid(np.array([[1.0], [-1.0]]), label="exact1d count=2")
    if dim == 1:
        raise GeometryError("dim 1 supports only the exact1d scheme")
    if count % 2 != 0:
        raise GeometryError(f"scheme {scheme} needs an even count to close under antipodes")
    half = count // 2
    if scheme == "uniform_angles_2d":
        if dim != 2:
            raise GeometryError("scheme uniform_angles_2d requires dim 2")
        angles = 2.0 * math.pi * np.arange(half) / count
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        label = f"uniform_angles_2d count={count}"
    elif scheme == "fibonacci_3d":
        if dim != 3:
            raise GeometryError("scheme fibonacci_3d requires dim 3")
        i = np.arange(half)
        z = 1.0 - (2.0 * i + 1.0) / half
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        theta = i * math.pi * (3.0 - math.sqrt(5.0))
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        label = f"fibonacci_3d count={count}"
    elif scheme == "seeded_random":
        rng = np.random.default_rng(seed)
        pts = np.empty((half, dim))
        filled = 0
        while filled < half:
            z = rng.standard_normal((half - filled, dim))
            norms = np.linalg.norm(z, axis=1)
            ok = norms > 1e-12
            z = z[ok] / norms[ok, None]
            pts[filled:filled + len(z)] = z
            filled += len(z)
        label = f"seeded_random count={count} seed={seed}"
    else:
        raise GeometryError(f"unknown grid scheme {scheme!r}")
    return DirectionGrid(np.concatenate([pts, -pts]), label=label)


# ---------------------------------------------------------------------------
# Body representations
# ---------------------------------------------------------------------------


class ConvexBody:
    """Base class for nonempty compact convex set representations."""

    @property
    def dim(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Interval(ConvexBody):
    """Closed interval [lo, hi] in R (lo == hi is a legal singleton)."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise GeometryError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise GeometryError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def dim(self) -> int:
        return 1


@dataclass(frozen=True)
class Box(ConvexBody):
    """Axis-aligned box given by componentwise bounds lo <= hi."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(c) for c in self.lo)
        hi = tuple(float(c) for c in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise GeometryError("box bounds must be nonempty and of equal length")
        if not all(math.isfinite(a) and math.isfinite(b) for a, b in zip(lo, hi)):
            raise GeometryError("box bounds must be finite")
        if any(a > b for a, b in zip(lo, hi)):
            raise GeometryError("box requires lo <= hi componentwise")

    @property
    def dim(self) -> int:
        return len(self.lo)


class Polytope(ConvexBody):
    """Convex hull of a finite vertex list, stored as an (k, d) array.

    The stored vertices need not be in minimal (extreme-point) position.
    Minkowski sums prune to the hull in d <= 2; in d = 3 they keep a
    certified superset of the extreme points (every support value is the
    one the full vertex-sum set gives); higher dimensions keep every
    distinct vertex sum.
    """

    def __init__(self, vertices):
        arr = np.array(vertices, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise GeometryError("polytope needs at least one vertex of dimension >= 1")
        if not np.all(np.isfinite(arr)):
            raise GeometryError("polytope vertices must be finite")
        arr.setflags(write=False)
        self._vertices = arr

    @property
    def vertices(self) -> np.ndarray:
        return self._vertices

    @property
    def dim(self) -> int:
        return self._vertices.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polytope):
            return NotImplemented
        return self._vertices.shape == other._vertices.shape and bool(
            np.array_equal(self._vertices, other._vertices))

    def __repr__(self) -> str:
        return f"Polytope({self._vertices.tolist()})"


@dataclass(frozen=True)
class Ellipsoid(ConvexBody):
    """Solid axis-aligned ellipsoid: sum((x_i - c_i)^2 / a_i^2) <= 1."""

    center: tuple[float, ...]
    semi_axes: tuple[float, ...]

    def __post_init__(self):
        center = tuple(float(c) for c in self.center)
        axes = tuple(float(a) for a in self.semi_axes)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "semi_axes", axes)
        if len(center) != len(axes) or not center:
            raise GeometryError("ellipsoid center and semi_axes must be nonempty and match")
        if not all(math.isfinite(c) for c in center + axes):
            raise GeometryError("ellipsoid parameters must be finite")
        if any(a <= 0.0 for a in axes):
            raise GeometryError("ellipsoid semi-axes must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class SupportVector:
    """Support-function values of one body on one direction grid."""

    grid: DirectionGrid
    values: np.ndarray

    def __post_init__(self):
        vals = _readonly(self.values)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or len(vals) != len(self.grid):
            raise GeometryError("support vector length must equal the grid size")
        if not np.all(np.isfinite(vals)):
            raise GeometryError("support values must be finite")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SupportVector):
            return NotImplemented
        return self.grid == other.grid and bool(np.array_equal(self.values, other.values))


class Embedded(ConvexBody):
    """Body known only through its support values on a grid.

    Construction checks the grid's cone certificates: where u_k = lam . u_S
    with lam >= 0 for neighbouring directions S, sublinearity requires
    h_k <= lam . h_S, up to SUBLINEAR_TOL * sum(lam) * max(1, max |h|).
    Values that fail cannot come from a convex body.  In 2-D, where each
    direction lies in the cone of its two angular neighbours, passing is
    also sufficient: the values are those of the polygon they cut out.
    """

    def __init__(self, support: SupportVector):
        self._support = support
        k, subsets, lam = support.grid._certificate
        vals = support.values
        excess = vals[k] - np.einsum("ij,ij->i", lam, vals[subsets])
        slack = SUBLINEAR_TOL * max(1.0, float(np.abs(vals).max())) * lam.sum(axis=1)
        if np.any(excess > slack):
            raise GeometryError(f"support values violate sublinearity by "
                                f"{float(excess.max()):.3e}; not a convex body")

    @property
    def support(self) -> SupportVector:
        return self._support

    @property
    def grid(self) -> DirectionGrid:
        return self._support.grid

    @property
    def dim(self) -> int:
        return self._support.grid.dim

    def __eq__(self, other) -> bool:
        if not isinstance(other, Embedded):
            return NotImplemented
        return self._support == other._support

    def __repr__(self) -> str:
        return f"Embedded(grid={self.grid.label}, count={len(self.grid)})"


# ---------------------------------------------------------------------------
# Support function and derived operations
# ---------------------------------------------------------------------------


def _inner(P: np.ndarray, Q: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Inner products of the columns of P (d, k) and Q (d, m), as a (k, m) array.

    Summed coordinate by coordinate (row by row of P and Q): a fixed order,
    unlike a BLAS product, so a value depends neither on the BLAS build and
    its threads nor on which other columns are evaluated with it.  The sum
    takes the first 2 k m values of ``work`` (fresh memory if None): P[0]
    x Q[0] goes into one half, each later coordinate's product into the
    other, which is then added in place.  The result is a view of ``work``.
    """
    k, m = P.shape[1], Q.shape[1]
    if work is None:
        work = np.empty(2 * k * m)
    out, term = work[:k * m].reshape(k, m), work[k * m:2 * k * m].reshape(k, m)
    np.multiply.outer(P[0], Q[0], out=out)
    for c in range(1, len(P)):
        np.multiply.outer(P[c], Q[c], out=term)
        out += term
    return out


def _inner_blocks(P: np.ndarray, Q: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """``(cols, _inner(P, Q[:, cols]))`` for the :func:`_row_blocks` of Q's
    columns, each written into this thread's work memory.  That memory is at
    most 2 x _BLOCK_ELEMENTS values (512 KiB), or 2 k when one column's k
    products are more than _BLOCK_ELEMENTS.  A block's products are
    overwritten by the next block's, so a caller reduces each block before
    it asks for the next, and no view of the work memory leaves the caller.
    """
    k = P.shape[1]
    for cols in _row_blocks(Q.shape[1], k):
        yield cols, _inner(P, Q[:, cols], _work(2 * k * (cols.stop - cols.start)))


def _direction_matrix(U, dim: int) -> np.ndarray:
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[1] != dim:
        raise GeometryError(f"direction matrix of shape {U.shape} does not match body dim {dim}")
    return U


def support_values(body: ConvexBody, U) -> np.ndarray:
    """Support values h(body, u) for every row u of the (m, d) direction matrix U.

    One closed form per representation.  Rows are taken as given (unit
    rows give the support function; other rows its positively homogeneous
    extension), except that embedded bodies answer only on their own grid
    and raise off it.  Each value depends on its own row alone, so any
    subset of rows gives the same bits.  A polytope's inner products are
    formed one block of rows at a time in this thread's work memory (see
    :func:`_inner_blocks`); the returned array is always fresh memory.
    """
    U = _direction_matrix(U, body.dim)
    if isinstance(body, Interval):
        c = U[:, 0]
        return np.where(c > 0.0, body.hi * c, body.lo * c)
    if isinstance(body, Box):
        # per axis hi*u where u > 0, else lo*u, summed axis by axis from 0.0
        total = np.zeros(len(U))
        for c, lo, hi in zip(U.T, body.lo, body.hi):
            total += np.where(c > 0.0, hi * c, lo * c)
        return total
    if isinstance(body, Polytope):
        V, UT = np.ascontiguousarray(body.vertices.T), np.ascontiguousarray(U.T)
        out = np.empty(len(U))
        for cols, products in _inner_blocks(V, UT):
            np.max(products, axis=0, out=out[cols])
        return out
    if isinstance(body, Ellipsoid):
        center, squares = np.zeros(len(U)), np.zeros(len(U))
        for u, c, a in zip(U.T, body.center, body.semi_axes):
            center += c * u
            squares += (a * u) ** 2
        return center + np.sqrt(squares)
    if isinstance(body, Embedded):
        values, grid = body.support.values, body.grid.matrix
        if U is grid or (U.shape == grid.shape and np.array_equal(U, grid)):
            return values.copy()
        idx, hit = body.grid._nearest(U)
        if not hit.all():
            raise GeometryError(
                "embedded body queried off its grid; support values are not interpolated")
        return values[idx]
    raise GeometryError(f"unsupported body type {type(body).__name__}")


def support_function(body: ConvexBody, u: Direction) -> float:
    """Largest inner product <u, x> over points x of the body: the one-row
    case of :func:`support_values`."""
    if u.dim != body.dim:
        raise GeometryError(f"direction dim {u.dim} does not match body dim {body.dim}")
    return float(support_values(body, u.vector[None, :])[0])


def embed(body: ConvexBody, grid: DirectionGrid) -> SupportVector:
    """Support values of the body on every grid direction."""
    if grid.dim != body.dim:
        raise GeometryError(f"grid dim {grid.dim} does not match body dim {body.dim}")
    return SupportVector(grid, support_values(body, grid.matrix))


@lru_cache(maxsize=None)
def _default_grid(dim: int) -> DirectionGrid:
    """The grid used when none is given; built once per dimension."""
    if dim == 1:
        return make_direction_grid(1, 2, "exact1d")
    if dim == 2:
        return make_direction_grid(2, _DEFAULT_GRID_COUNT, "uniform_angles_2d")
    if dim == 3:
        return make_direction_grid(3, _DEFAULT_GRID_COUNT, "fibonacci_3d")
    return make_direction_grid(dim, _DEFAULT_GRID_COUNT, "seeded_random", seed=0)


def _unique_rows(points: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D float array, as ``np.unique(points, axis=0)``
    gives them, by its own steps: an in-place sort of a copy viewed as one
    record per row, then a mask of adjacent differences.  The sort is the
    same, so the same rows survive in the same order, down to which of two
    rows equal up to a signed zero is kept.  ``np.unique`` itself first asks
    ``np.ma.is_masked``, which imports ``numpy.ma`` (10-16 ms and 1.1 MiB)
    on a process's first call.
    """
    rows = np.array(points, dtype=float, order="C")
    records = rows.view([(f"f{i}", rows.dtype) for i in range(rows.shape[1])]).ravel()
    records.sort()
    keep = np.empty(len(records), dtype=bool)
    keep[:1] = True
    keep[1:] = records[1:] != records[:-1]
    return records[keep].view(rows.dtype).reshape(-1, rows.shape[1])


def _hull_prune(vertices: np.ndarray) -> np.ndarray:
    """Extreme points of a vertex set in d <= 2 (exact arithmetic on floats)."""
    if vertices.shape[1] == 1:
        lo, hi = float(vertices.min()), float(vertices.max())
        return np.array([[lo]]) if lo == hi else np.array([[lo], [hi]])
    pts = _unique_rows(vertices)
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    rows = pts.tolist()  # indexing numpy scalars costs about 3x as much
    lower: list[list[float]] = []
    for p in rows:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[list[float]] = []
    for p in reversed(rows):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    # each chain keeps its two ends, so the hull has at least two rows
    return np.array(lower[:-1] + upper[:-1])


def _drop_interior(points: np.ndarray) -> np.ndarray:
    """The rows of a 3-D point set, less rows certified to be interior points.

    E is the set of maximizers of the 26 probe directions.  Each triple
    (e1, e2, e3) of E spans a plane with normal n = (e2 - e1) x (e3 - e1),
    and w = |e2 - e1| |e3 - e1| bounds both |n| and its rounding.  An
    orientation of the plane is accepted when all of E lies at or below it
    within tol * w, so every facet of conv(E) is accepted, slivers too, and
    a collinear triple (n = 0) is accepted both ways, which blocks every
    drop.  A row is dropped only when it lies below every accepted plane by
    more than tol * w >= tol * |n|, so a ball of radius tol about it lies in
    conv(E), inside conv(points): it is no extreme point, and every support
    value is the same with or without it.  tol = 1e-9 * max |points| is far
    above the rounding of the inner products.  Planes and heights are
    computed on the points scaled by a power of two (exactly) to below 1 in
    magnitude, so that no product overflows.

    The probes, {-1, 0, 1}^3 less the origin, come in 13 pairs +-p.  Each p
    is evaluated as its signed coordinate sum (x2, x1 - x2, (x0 + x1) - x2,
    ...), whose value equals the coordinate-by-coordinate inner product of
    :func:`_inner` up to the sign of a zero: a factor +-1 is exact, and
    adding a zero leaves a nonzero value unchanged.  ``argmax`` and
    ``argmin``, which take -0.0 and 0.0 as equal, therefore pick the
    maximizers of +p and of -p that the inner products pick.  Cross
    products and norms are written out in ``np.cross``'s and
    ``np.linalg.norm``'s own order.  An orientation is accepted by
    max(heights) - base <= slack, or min(heights) - base >= -slack for the
    opposite one; rounding is monotone, so these are the max and min of
    heights - base.  A plane with one row of E above it by more than slack
    and another below it by more than slack fails both tests; the six rows
    of E extreme along the axes find most such planes, one row at a time,
    so the heights of all of E are taken only for the rest.  Each height of
    one row, and each base (the height of e1), is summed as :func:`_inner`
    sums it.  The keep test runs planes-major, one block of rows at a time.
    """
    mantissa, exponent = np.frexp(np.abs(points).max())  # mantissa = max |coords|
    coords = np.ascontiguousarray(np.ldexp(points.T, -exponent))
    x0, x1, x2 = coords
    plus, minus = x0 + x1, x0 - x1
    sums = np.stack([x0, x1, x2, x1 + x2, x1 - x2, x0 + x2, x0 - x2, plus, minus,
                     plus + x2, plus - x2, minus + x2, minus - x2])
    top, bottom = sums.argmax(axis=1), sums.argmin(axis=1)
    maximizer = np.zeros(len(points), dtype=bool)
    maximizer[top] = True
    maximizer[bottom] = True
    probed = coords[:, maximizer]
    if probed.shape[1] < 4:
        return points
    r = np.arange(probed.shape[1])
    i, j, k = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))  # i < j < k
    first = probed.take(i, axis=1)
    a0, a1, a2 = probed.take(j, axis=1) - first
    b0, b1, b2 = probed.take(k, axis=1) - first
    normals = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    slack = (1e-9 * mantissa * np.sqrt((a0 * a0 + a1 * a1) + a2 * a2)
             * np.sqrt((b0 * b0 + b1 * b1) + b2 * b2))
    base = (first[0] * normals[0] + first[1] * normals[1]) + first[2] * normals[2]
    above = below = np.zeros(len(base), dtype=bool)
    for e0, e1, e2 in coords[:, np.concatenate([top[:3], bottom[:3]])].T.tolist():
        height = (e0 * normals[0] + e1 * normals[1]) + e2 * normals[2] - base
        above = above | (height > slack)
        below = below | (height < -slack)
    live = ~(above & below)
    normals, base, slack = normals[:, live], base[live], slack[live]
    heights = _inner(probed, normals)
    up = heights.max(axis=0) - base <= slack
    down = heights.min(axis=0) - base >= -slack
    normals = np.concatenate([normals[:, up], -normals[:, down]], axis=1)
    floor = np.concatenate([base[up] - slack[up], -base[down] - slack[down]])
    keep = np.empty(len(points), dtype=bool)
    for cols, products in _inner_blocks(normals, coords):
        np.any(products >= floor[:, None], axis=0, out=keep[cols])
    return points[keep]


def minkowski_sum(a: ConvexBody, b: ConvexBody,
                  grid: DirectionGrid | None = None) -> ConvexBody:
    """Pointwise set sum {x + y}.

    Like representations stay exact (intervals add endpoints, boxes add
    bounds, polytopes add vertex pairs).  Polytope sums are hull-pruned for
    d <= 2; for d = 3 they drop only sums certified interior, keeping a
    superset of the extreme points, so every support value equals that of
    the unpruned sum bit for bit.  Vertex sums are deduplicated in
    ``np.unique``'s row order (rows sorted lexicographically), which is the
    vertex order of a sum in d >= 3 and the order the 2-D hull walks.  Any
    other mix is embedded on ``grid`` (or a default grid for the dimension)
    by adding support values, which is exact on the grid.
    """
    if a.dim != b.dim:
        raise GeometryError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if isinstance(a, Interval) and isinstance(b, Interval):
        return Interval(a.lo + b.lo, a.hi + b.hi)
    if isinstance(a, Box) and isinstance(b, Box):
        return Box(tuple(x + y for x, y in zip(a.lo, b.lo)),
                   tuple(x + y for x, y in zip(a.hi, b.hi)))
    if isinstance(a, Polytope) and isinstance(b, Polytope):
        sums = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, a.dim)
        if a.dim <= 2:
            return Polytope(_hull_prune(sums))
        if a.dim == 3:
            sums = _drop_interior(sums)
        return Polytope(_unique_rows(sums))
    if grid is None:
        if isinstance(a, Embedded) and isinstance(b, Embedded) and a.grid == b.grid:
            grid = a.grid
        else:
            grid = _default_grid(a.dim)
    return Embedded(SupportVector(grid, embed(a, grid).values + embed(b, grid).values))


def scalar_mul(lam: float, body: ConvexBody) -> ConvexBody:
    """Scaled body {lam * x}; lam = 0 collapses to the singleton origin."""
    lam = float(lam)
    if not math.isfinite(lam):
        raise GeometryError("scalar must be finite")
    if lam == 0.0:
        if isinstance(body, Interval):
            return Interval(0.0, 0.0)
        if isinstance(body, Box):
            zeros = (0.0,) * body.dim
            return Box(zeros, zeros)
        if isinstance(body, Embedded):
            return Embedded(SupportVector(body.grid, np.zeros(len(body.grid))))
        return Polytope(np.zeros((1, body.dim)))
    # (y, x): on a tie such as -0.0 == 0.0 both branches keep y, np.minimum's
    # sign, which outputs pin
    if isinstance(body, Interval):
        x, y = lam * body.lo, lam * body.hi
        return Interval(min(y, x), max(y, x))
    if isinstance(body, Box):
        pairs = [(lam * a, lam * b) for a, b in zip(body.lo, body.hi)]
        return Box(tuple(min(y, x) for x, y in pairs), tuple(max(y, x) for x, y in pairs))
    if isinstance(body, Polytope):
        return Polytope(lam * body.vertices)
    if isinstance(body, Ellipsoid):
        return Ellipsoid(tuple(lam * c for c in body.center),
                         tuple(abs(lam) * a for a in body.semi_axes))
    if isinstance(body, Embedded):
        if lam > 0.0:
            return Embedded(SupportVector(body.grid, lam * body.support.values))
        if not body.grid.antipodal_closed:
            raise GeometryError(
                "negative scaling of an embedded body needs an antipodal-closed grid")
        reflected = body.support.values[body.grid.antipode_index]
        return Embedded(SupportVector(body.grid, abs(lam) * reflected))
    raise GeometryError(f"unsupported body type {type(body).__name__}")


def hausdorff_distance(a: ConvexBody, b: ConvexBody,
                       grid: DirectionGrid | None = None) -> float:
    """Hausdorff distance via the support identity sup |s(u,a) - s(u,b)|.

    Exact for d = 1, whose only grid, the two signs, is the whole sphere.
    For d >= 2 the max runs over the grid and is a lower bound on the true
    distance that converges as the grid refines; callers should record the
    grid size next to the value.  The grid must have the bodies' dimension.
    """
    if a.dim != b.dim:
        raise GeometryError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if grid is None and a.dim == 1:
        grid = _default_grid(1)
    elif grid is None:
        if isinstance(a, Embedded) and isinstance(b, Embedded) and a.grid == b.grid:
            grid = a.grid
        else:
            raise GeometryError("a direction grid is required for dimension >= 2")
    if grid.dim != a.dim:
        raise GeometryError(f"grid dim {grid.dim} does not match body dim {a.dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan is refused below
        gaps = np.abs(support_values(a, grid.matrix) - support_values(b, grid.matrix))
    distance = float(gaps.max())
    if not math.isfinite(distance):
        raise GeometryError("the Hausdorff distance overflows: the support values are too large")
    return distance


def zero_body(dim: int) -> ConvexBody:
    """The singleton {0} in R^dim."""
    if dim == 1:
        return Interval(0.0, 0.0)
    return Polytope(np.zeros((1, dim)))


def set_norm(body: ConvexBody, grid: DirectionGrid | None = None) -> float:
    """Distance from {0} to the body, i.e. sup of ||x|| over the body."""
    return hausdorff_distance(body, zero_body(body.dim), grid)


# ---------------------------------------------------------------------------
# Line-oriented text form
# ---------------------------------------------------------------------------


def format_body(body: ConvexBody) -> str:
    """One-line text form; floats are repr-exact so parsing round-trips."""
    if isinstance(body, Interval):
        return f"interval {body.lo!r} {body.hi!r}"
    if isinstance(body, Box):
        parts = [str(body.dim)] + [repr(c) for c in body.lo] + [repr(c) for c in body.hi]
        return "box " + " ".join(parts)
    if isinstance(body, Polytope):
        k, d = body.vertices.shape
        coords = " ".join(repr(float(c)) for c in body.vertices.ravel())
        return f"polytope {d} {k} {coords}"
    if isinstance(body, Ellipsoid):
        parts = [str(body.dim)] + [repr(c) for c in body.center] + \
            [repr(a) for a in body.semi_axes]
        return "ellipsoid " + " ".join(parts)
    raise GeometryError(f"body type {type(body).__name__} has no text form")


def parse_body(line: str) -> ConvexBody:
    """Parse the text form produced by format_body."""
    tokens = line.split()
    if not tokens:
        raise GeometryError("empty body line")
    kind, args = tokens[0], tokens[1:]
    try:
        if kind == "interval":
            if len(args) != 2:
                raise GeometryError("interval needs exactly 2 numbers")
            return Interval(float(args[0]), float(args[1]))
        if kind == "box":
            d = int(args[0])
            nums = [float(t) for t in args[1:]]
            if len(nums) != 2 * d:
                raise GeometryError(f"box dim {d} needs {2 * d} numbers")
            return Box(tuple(nums[:d]), tuple(nums[d:]))
        if kind == "polytope":
            d, k = int(args[0]), int(args[1])
            nums = [float(t) for t in args[2:]]
            if len(nums) != d * k:
                raise GeometryError(f"polytope {k}x{d} needs {d * k} numbers")
            return Polytope(np.array(nums).reshape(k, d))
        if kind == "ellipsoid":
            d = int(args[0])
            nums = [float(t) for t in args[1:]]
            if len(nums) != 2 * d:
                raise GeometryError(f"ellipsoid dim {d} needs {2 * d} numbers")
            return Ellipsoid(tuple(nums[:d]), tuple(nums[d:]))
    except (ValueError, IndexError) as exc:
        raise GeometryError(f"malformed body line {line!r}: {exc}") from exc
    raise GeometryError(f"unknown body kind {kind!r}")
