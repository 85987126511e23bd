"""The vectorized support primitive and the grid machinery around it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setlaw import (
    Box,
    Direction,
    Ellipsoid,
    Embedded,
    GeometryError,
    Interval,
    Polytope,
    embed,
    make_direction_grid,
    support_function,
    support_values,
)
from setlaw.geometry import DUPLICATE_TOL, _default_grid

# signed zeros and exact small values next to arbitrary floats, so that
# products like 0.0 * -1.0 = -0.0 occur
coord = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                  st.floats(min_value=-5, max_value=5, allow_nan=False))
axis = st.floats(min_value=0.1, max_value=3.0)


@st.composite
def bodies(draw, dim):
    kinds = ["box", "polytope", "ellipsoid"] + (["interval"] if dim == 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "interval":
        return Interval(*sorted([draw(coord), draw(coord)]))
    if kind == "box":
        bounds = [sorted([draw(coord), draw(coord)]) for _ in range(dim)]
        return Box(tuple(b[0] for b in bounds), tuple(b[1] for b in bounds))
    if kind == "polytope":
        count = draw(st.integers(min_value=1, max_value=6))
        return Polytope([[draw(coord) for _ in range(dim)] for _ in range(count)])
    return Ellipsoid(tuple(draw(coord) for _ in range(dim)),
                     tuple(draw(axis) for _ in range(dim)))


@st.composite
def direction_rows(draw, dim):
    """Unit rows: random ones plus signed axis directions with signed zeros."""
    rows = []
    for raw in draw(st.lists(st.lists(st.floats(min_value=-1, max_value=1), min_size=dim,
                                      max_size=dim), min_size=1, max_size=10)):
        v = np.array(raw)
        if np.linalg.norm(v) > 1e-3:
            rows.append(v / np.linalg.norm(v))
    for i in range(dim):
        for sign in (1.0, -1.0):
            row = np.array([draw(st.sampled_from([0.0, -0.0])) for _ in range(dim)])
            row[i] = sign
            rows.append(row)
    return np.array(rows)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_support_values_match_support_function_bit_for_bit(dim, data):
    body = data.draw(bodies(dim))
    U = data.draw(direction_rows(dim))
    rows = support_values(body, U)
    scalar = [support_function(body, Direction(tuple(u))) for u in U]
    assert _same_bits(rows, scalar)
    # each value depends on its own row only: reversed rows give reversed bits
    assert _same_bits(support_values(body, U[::-1]), rows[::-1])


@pytest.mark.parametrize("dim,scheme,count", [(1, "exact1d", 2),
                                              (2, "uniform_angles_2d", 16),
                                              (3, "fibonacci_3d", 32)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_embedded_support_values_match_support_function(dim, scheme, count, data):
    grid = make_direction_grid(dim, count, scheme)
    body = Embedded(embed(data.draw(bodies(dim)), grid))
    assert _same_bits(support_values(body, grid.matrix), body.support.values)
    order = data.draw(st.permutations(range(count)))
    U = grid.matrix[list(order)]
    assert _same_bits(support_values(body, U), body.support.values[list(order)])
    assert _same_bits(support_values(body, U),
                      [support_function(body, grid.directions[i]) for i in order])


def test_support_values_validate_shape():
    with pytest.raises(GeometryError):
        support_values(Box((0.0, 0.0), (1.0, 1.0)), np.ones((3, 3)))
    with pytest.raises(GeometryError):
        support_values(Interval(0, 1), np.ones(2))


def test_embedded_off_grid_rows_raise():
    grid = make_direction_grid(2, 8, "uniform_angles_2d")
    body = Embedded(embed(Box((0.0, 0.0), (1.0, 1.0)), grid))
    off = np.vstack([grid.matrix[:3], Direction.unit((1.0, 0.3)).vector])
    with pytest.raises(GeometryError, match="off its grid"):
        support_values(body, off)
    # rows within DUPLICATE_TOL of a grid direction are on the grid
    near = grid.matrix + 0.1 * DUPLICATE_TOL
    assert _same_bits(support_values(body, near), body.support.values)
    finer = make_direction_grid(2, 16, "uniform_angles_2d")
    with pytest.raises(GeometryError, match="off its grid"):
        embed(body, finer)


def test_polytope_support_in_blocks_matches_per_direction_values():
    # enough vertices that the directions are evaluated in many blocks
    rng = np.random.default_rng(11)
    body = Polytope(rng.normal(size=(20_000, 3)))
    grid = make_direction_grid(3, 64, "fibonacci_3d")
    values = support_values(body, grid.matrix)
    expected = [float(np.max(body.vertices @ u)) for u in grid.matrix]
    assert np.allclose(values, expected, rtol=1e-14, atol=1e-14)
    assert _same_bits(values[5:9], support_values(body, grid.matrix[5:9]))


# -- direction grids -----------------------------------------------------------

def test_default_grid_is_built_once_per_dimension():
    assert _default_grid(2) is _default_grid(2)
    assert _default_grid(3) is _default_grid(3)
    assert _default_grid(2) is not _default_grid(3)


def _reference_pairs(count: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Every stride-th pair of the row-major upper triangle, row by row."""
    ii, jj = [], []
    start = 0
    for i in range(count - 1):
        flat = start + np.arange(count - 1 - i)
        keep = flat % stride == 0
        ii.append(np.full(int(keep.sum()), i))
        jj.append(np.arange(i + 1, count)[keep])
        start += count - 1 - i
    return np.concatenate(ii), np.concatenate(jj)


def _reference_triples(m: np.ndarray, ii: np.ndarray, jj: np.ndarray):
    sums = m[ii] + m[jj]
    norms = np.linalg.norm(sums, axis=1)
    keep = norms > 1e-12
    ii, jj, sums, norms = ii[keep], jj[keep], sums[keep], norms[keep]
    mids = sums / norms[:, None]
    nearest = np.array([int(np.argmin(np.sum((m - mid) ** 2, axis=1))) for mid in mids])
    hit = np.linalg.norm(mids - m[nearest], axis=1) <= DUPLICATE_TOL
    return ii[hit], jj[hit], nearest[hit], norms[hit]


@pytest.mark.parametrize("count", [256, 600, 4096])
def test_midpoint_triples_match_upper_triangle_reference(count):
    grid = make_direction_grid(2, count, "uniform_angles_2d")
    total = count * (count - 1) // 2
    stride = 1 if count <= 512 else total // 20_000 + 1
    ii, jj = _reference_pairs(count, stride)
    if count <= 600:
        full_i, full_j = np.triu_indices(count, k=1)
        assert np.array_equal(ii, full_i[::stride]) and np.array_equal(jj, full_j[::stride])
    got = grid._midpoint_triples
    want = _reference_triples(grid.matrix, ii, jj)
    assert len(got[0]) > 0
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
