"""The vectorized support primitive and the grid machinery around it."""

import math

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
    hausdorff_distance,
    make_direction_grid,
    support_function,
    support_values,
)
from setlaw.geometry import (
    _BLOCK_ELEMENTS,
    DUPLICATE_TOL,
    DirectionGrid,
    SupportVector,
    _default_grid,
)

import oracles

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
                                              (3, "fibonacci_3d", 32),
                                              (3, "fibonacci_3d", 256),
                                              (4, "seeded_random", 64)])
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


def _block_edge_polygons(k: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two k-vertex 2-D vertex arrays and m distinct unit rows.  The vertices
    lie in the closed negative quadrant with some coordinates +-0.0, and the
    rows include the four axes with signed zeros, so that many products are
    +-0.0 and a support value in a direction of the closed positive
    quadrant is a maximum over products 0.0 and -0.0."""
    rng = np.random.default_rng([k, m])
    bodies = []
    for _ in range(2):
        vertices = -np.abs(rng.normal(size=(k, 2)))
        zero = rng.random((k, 2)) < 0.3
        vertices[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
        bodies.append(vertices)
    angles = 2.0 * math.pi * (np.arange(m - 4) + 0.3) / (m - 4)  # none on an axis
    axes = [[1.0, -0.0], [-0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    return bodies[0], bodies[1], np.vstack([np.column_stack([np.cos(angles), np.sin(angles)]),
                                            axes])


@pytest.mark.parametrize("k,m", [(8, _BLOCK_ELEMENTS // 8),        # one block exactly
                                 (8, _BLOCK_ELEMENTS // 8 + 1),    # and one column more
                                 (_BLOCK_ELEMENTS + 3, 6)])        # one column per block
def test_polytope_support_at_block_edges_matches_the_reference_bytes(k, m):
    a, b, U = _block_edge_polygons(k, m)
    products = oracles._inner(a.T, U.T)
    zeros = np.signbit(products[products == 0.0])
    assert zeros.any() and not zeros.all()  # products of both signed zeros
    want_a, want_b = products.max(axis=0), oracles._inner(b.T, U.T).max(axis=0)
    assert _same_bits(support_values(Polytope(a), U), want_a)
    assert _same_bits(support_values(Polytope(b), U), want_b)
    distance = hausdorff_distance(Polytope(a), Polytope(b), DirectionGrid(U))
    assert _same_bits(distance, np.abs(want_a - want_b).max())


# -- direction grids -----------------------------------------------------------

def test_default_grid_is_built_once_per_dimension():
    assert _default_grid(2) is _default_grid(2)
    assert _default_grid(3) is _default_grid(3)
    assert _default_grid(2) is not _default_grid(3)


def _reference_pairs(m: np.ndarray, sign: float) -> list[tuple[int, int]]:
    """Every pair i != j with ||u_i + sign*u_j|| <= DUPLICATE_TOL, by direct subtraction."""
    pairs = []
    for lo in range(0, len(m), 256):
        dist = np.linalg.norm(m[lo:lo + 256, None, :] + sign * m[None, :, :], axis=2)
        pairs += [(lo + int(i), int(j)) for i, j in np.argwhere(dist <= DUPLICATE_TOL)
                  if lo + i != j]
    return pairs


def _custom_grid(dim: int, antipodes: int) -> DirectionGrid:
    """Nine seeded directions, the first ``antipodes`` of them with their antipodes."""
    rows = np.random.default_rng(dim).normal(size=(9, dim))
    dirs = [Direction.unit(r) for r in rows]
    return DirectionGrid(dirs + [d.negated() for d in dirs[:antipodes]])


@pytest.mark.parametrize("grid", [
    *(make_direction_grid(2, count, "uniform_angles_2d") for count in (4, 256, 600, 4096)),
    *(make_direction_grid(3, count, "fibonacci_3d") for count in (100, 256)),
    make_direction_grid(4, 128, "seeded_random", seed=3),
    *(_custom_grid(dim, antipodes) for dim in (2, 3) for antipodes in (8, 9)),
], ids=lambda grid: grid.label)
def test_antipodes_and_duplicates_match_all_pairs_reference(grid):
    m = grid.matrix
    assert _reference_pairs(m, -1.0) == []
    antipodes = _reference_pairs(m, +1.0)
    partner = dict(antipodes)
    assert len(partner) == len(antipodes)  # at most one antipode per direction
    assert grid.antipodal_closed == (len(partner) == len(m))
    if grid.antipodal_closed:
        assert list(grid.antipode_index) == [partner[i] for i in range(len(m))]
    else:
        with pytest.raises(GeometryError, match="antipodal"):
            grid.antipode_index


def _turned(angle: float) -> Direction:
    return Direction((math.cos(angle), math.sin(angle)))


@pytest.mark.parametrize("gap,coincide", [(5e-10, True), (2e-9, False)])
def test_near_duplicates_coincide_within_tolerance(gap, coincide):
    grids = [
        [_turned(0.3), _turned(2.0), _turned(0.3 + gap)],
        # a pair straddling the +-pi seam of the angular order
        [_turned(math.pi - gap / 2), _turned(1.0), _turned(-math.pi + gap / 2)],
        [Direction.unit((1.0, 2.0, 3.0)), Direction.unit((0.0, 0.0, 1.0)),
         Direction.unit((1.0, 2.0, 3.0 + gap * math.sqrt(14.0)))],
        # rows below unit norm by less than NORM_TOL
        [Direction((0.6 * (1 - 9e-13), 0.0, 0.8 * (1 - 9e-13))), Direction((0.0, 1.0, 0.0)),
         Direction(((0.6 + gap * 0.8) * (1 - 9e-13), 0.0, (0.8 - gap * 0.6) * (1 - 9e-13)))],
    ]
    for dirs in grids:
        assert (_reference_pairs(np.array([d.components for d in dirs]), -1.0) != []) == coincide
        if coincide:
            with pytest.raises(GeometryError, match="coincide"):
                DirectionGrid(dirs)
        else:
            DirectionGrid(dirs)


@pytest.mark.parametrize("dim,scheme,count", [(2, "uniform_angles_2d", 6),
                                              (2, "uniform_angles_2d", 4096),
                                              (3, "fibonacci_3d", 256),
                                              (4, "seeded_random", 256)])
def test_cone_certificates_hold(dim, scheme, count):
    grid = make_direction_grid(dim, count, scheme)
    k, subsets, lam = grid._certificate
    m = grid.matrix
    assert np.all(lam >= 0.0)
    assert np.allclose(np.einsum("ij,ijk->ik", lam, m[subsets]), m[k], rtol=0, atol=1e-12)
    assert np.all(k[:, None] != subsets)
    if dim <= 3:  # every direction of these grids has a certificate
        assert set(k.tolist()) == set(range(count))


@pytest.mark.parametrize("rows", [[(1.0, 0.0)], [(1.0, 0.0), (0.0, 1.0)],
                                  [(1.0, 0.0, 0.0)], [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
                                  [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]])
def test_grids_too_small_for_a_cone_accept_any_values(rows):
    grid = DirectionGrid([Direction(r) for r in rows])
    assert len(grid._certificate[0]) == 0
    Embedded(SupportVector(grid, np.arange(len(rows)) - 5.0))


def test_convexity_check_rejects_a_local_bump_in_2d():
    grid = make_direction_grid(2, 4096, "uniform_angles_2d")
    values = embed(Box((-1.0, -0.5), (1.0, 2.0)), grid).values.copy()
    Embedded(SupportVector(grid, values))
    values[1000] += 1e-3
    with pytest.raises(GeometryError, match="sublinear"):
        Embedded(SupportVector(grid, values))


def test_convexity_check_rejects_a_spike_in_3d():
    grid = make_direction_grid(3, 256, "fibonacci_3d")
    values = np.ones(256)
    Embedded(SupportVector(grid, values))  # the unit ball
    values[7] = 5.0
    with pytest.raises(GeometryError, match="sublinear"):
        Embedded(SupportVector(grid, values))


@pytest.mark.parametrize("dim,scheme,count", [(2, "uniform_angles_2d", 4096),
                                              (3, "fibonacci_3d", 256)])
def test_convexity_check_accepts_bodies_far_from_the_origin(dim, scheme, count):
    # rounding in values near 1e8 exceeds an absolute 1e-9 slack
    grid = make_direction_grid(dim, count, scheme)
    for body in (Box((1e8,) * dim, (1e8 + 1.0,) * dim), Polytope([[1e8] + [0.0] * (dim - 1)]),
                 Box((1e6,) + (-3e5,) * (dim - 1), (1e6 + 1.0,) + (-3e5 + 2.0,) * (dim - 1)),
                 Polytope([[0.0] * dim, [1e-9] + [0.0] * (dim - 1)])):
        Embedded(embed(body, grid))
