"""The direction grid contract: one validated matrix, and nothing built per row."""

import hashlib
import pickle

import numpy as np
import pytest

from setlaw import (
    Box,
    Direction,
    Embedded,
    GeometryError,
    Interval,
    embed,
    geometry,
    hausdorff_distance,
    make_direction_grid,
    minkowski_sum,
)
from setlaw.geometry import DirectionGrid, SupportVector

SCHEMES = [(1, 2, "exact1d"), (2, 256, "uniform_angles_2d"), (3, 256, "fibonacci_3d"),
           (4, 256, "seeded_random")]

# sha256 of the little-endian bytes of matrix and antipode_index
GRID_DIGESTS = {
    (1, 2, "exact1d"): (
        "b74fce6cd8bcafd014a1ce8c6585beac59c5f4098a6d499f5d1d42d464146633",
        "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0"),
    (2, 256, "uniform_angles_2d"): (
        "98882b796693bc551f8dd260b7f48e4c5f7dda853d633f63a43834b96fa9c466",
        "b5ea5ab1fcca64155e99ceb0c44dfd82817fb52fa9e7cdb74fa41b7622ef9208"),
    (2, 4096, "uniform_angles_2d"): (
        "2fffcd8c1c8a52146248b045559b6516ac514131f9e276fa98221341f873134b",
        "c0c477a9cd7ae808d1e12408b456e3dd6ec5cc3029867663597472fab77f6809"),
    (3, 256, "fibonacci_3d"): (
        "bf97e754a0c14a4a3c74f270ed96836949b3f7299d5721979e29961505594cdc",
        "b5ea5ab1fcca64155e99ceb0c44dfd82817fb52fa9e7cdb74fa41b7622ef9208"),
    (4, 256, "seeded_random"): (
        "be47cd75a33868f7895c57e4abe87352b0c2d0b6781c2e35384ada6312b00d0f",
        "b5ea5ab1fcca64155e99ceb0c44dfd82817fb52fa9e7cdb74fa41b7622ef9208"),
}


def _sha(arr: np.ndarray, dtype: str) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).tobytes()).hexdigest()


@pytest.mark.parametrize("key", sorted(GRID_DIGESTS), ids=lambda k: f"{k[2]}-{k[1]}")
def test_grid_bytes_are_pinned(key):
    dim, count, scheme = key
    grid = make_direction_grid(dim, count, scheme, seed=0)
    assert grid.matrix.shape == (count, dim)
    assert (_sha(grid.matrix, "<f8"), _sha(grid.antipode_index, "<i8")) == GRID_DIGESTS[key]


def _axes_2d(zero: float) -> np.ndarray:
    return np.array([[1.0, zero], [zero, 1.0], [-1.0, zero], [zero, -1.0]])


def test_signed_zeros_compare_and_hash_equal():
    plus, minus = DirectionGrid(_axes_2d(0.0)), DirectionGrid(_axes_2d(-0.0))
    assert plus.matrix.tobytes() != minus.matrix.tobytes()
    assert plus == minus and hash(plus) == hash(minus)
    assert plus != DirectionGrid(_axes_2d(0.0)[::-1])


def test_rows_and_directions_give_one_grid():
    rows = _axes_2d(0.0)
    as_dirs = DirectionGrid([Direction(tuple(r)) for r in rows])
    as_tuples = DirectionGrid([tuple(r) for r in rows])
    as_array = DirectionGrid(rows)
    assert as_dirs == as_tuples == as_array
    assert as_dirs.matrix.tobytes() == as_array.matrix.tobytes()
    rows[0, 0] = 2.0  # the grid keeps its own read-only copy
    assert as_array.matrix[0, 0] == 1.0 and not as_array.matrix.flags.writeable
    assert as_array.directions is as_array.directions
    assert list(as_array) == [Direction(tuple(r)) for r in as_array.matrix]


@pytest.mark.parametrize("row,message", [((0.5, 0.5), "norm"),
                                         ((float("nan"), 1.0), "finite"),
                                         ((), "at least one component")])
def test_direction_and_grid_share_the_unit_row_rule(row, message):
    with pytest.raises(GeometryError, match=message) as one:
        Direction(row)
    with pytest.raises(GeometryError, match=message) as many:
        DirectionGrid([(0.0, 1.0), row] if row else [row])
    assert str(one.value) == str(many.value)


def test_grid_rejects_mixed_dimensions_and_no_rows():
    with pytest.raises(GeometryError, match="one dimension"):
        DirectionGrid([(1.0, 0.0), (1.0,)])
    with pytest.raises(GeometryError, match="nonempty"):
        DirectionGrid(np.empty((0, 2)))


def test_negative_grid_seed_is_rejected():
    with pytest.raises(GeometryError, match="seed"):
        make_direction_grid(4, 8, "seeded_random", seed=-1)


def test_pickle_keeps_equality_hash_antipodes_and_embedding():
    grid = make_direction_grid(2, 256, "uniform_angles_2d")
    values = embed(Box((-1.0, 0.0), (2.0, 0.5)), grid).values
    Embedded(SupportVector(grid, values))  # fills the certificate cache
    again = pickle.loads(pickle.dumps(grid))
    assert again == grid and hash(again) == hash(grid)
    assert again.antipode_index.tobytes() == grid.antipode_index.tobytes()
    assert Embedded(SupportVector(again, values)) == Embedded(SupportVector(grid, values))
    with pytest.raises(GeometryError, match="sublinear"):
        Embedded(SupportVector(again, values - 3.0 * (np.arange(256) == 7)))


@pytest.mark.parametrize("dim,count,scheme", SCHEMES, ids=lambda v: str(v))
def test_library_builds_no_direction(dim, count, scheme, monkeypatch):
    def refuse(self):
        raise AssertionError("a Direction was built")

    monkeypatch.setattr(geometry.Direction, "__post_init__", refuse)
    grid = make_direction_grid(dim, count, scheme)
    a = Interval(-1.0, 2.0) if dim == 1 else Box((0.0,) * dim, (1.0,) * dim)
    b = Interval(0.5, 1.0) if dim == 1 else Box((-1.0,) * dim, (0.5,) * dim)
    ea, eb = Embedded(embed(a, grid)), Embedded(embed(b, grid))
    assert hausdorff_distance(a, b, grid) == hausdorff_distance(ea, eb) > 0.0
    total = minkowski_sum(ea, eb)
    assert total.grid is grid
    assert np.array_equal(total.support.values, ea.support.values + eb.support.values)
    with pytest.raises(AssertionError, match="Direction"):
        grid.directions


def _scan(grid: DirectionGrid, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest grid row of each row of U by scanning every row: the reference."""
    m = grid.matrix
    idx = np.argmin(np.sum((U[:, None, :] - m) ** 2, axis=2), axis=1)
    return idx, np.linalg.norm(U - m[idx], axis=1) <= geometry.DUPLICATE_TOL


def _seam_rows() -> np.ndarray:
    """Directions on and either side of the +-pi seam, among 40 seeded angles."""
    angles = np.concatenate([[np.pi, np.pi - 5e-9, -np.pi + 2e-9, -np.pi + 1e-3],
                             np.random.default_rng(8).uniform(-np.pi, np.pi, 40)])
    rows = np.column_stack([np.cos(angles), np.sin(angles)])
    rows[0] = (-1.0, 0.0)
    return rows


@pytest.mark.parametrize("rows", [
    make_direction_grid(2, 512, "uniform_angles_2d").matrix[::-1],
    np.random.default_rng(3).permutation(make_direction_grid(2, 512, "uniform_angles_2d").matrix),
    np.random.default_rng(5).permutation(
        make_direction_grid(2, 300, "seeded_random", seed=2).matrix),
    _seam_rows(),
    _seam_rows()[::-1],
], ids=["reversed", "shuffled", "random-shuffled", "seam", "seam-reversed"])
def test_2d_nearest_matches_the_full_scan(rows):
    grid = DirectionGrid(rows)
    m = grid.matrix
    rng = np.random.default_rng(len(m))
    off = rng.normal(size=(200, 2))
    queries = np.concatenate([
        m, m[::-1], m + 1e-10, m - 1e-10, m * (1.0 + 1e-10),
        m + rng.choice([-1e-10, 1e-10], size=m.shape),
        off / np.linalg.norm(off, axis=1, keepdims=True),  # off the grid: misses
        [[-1.0, 0.0], [-1.0, -0.0], [-1.0, 1e-10], [-1.0, -1e-10], [1.0, 0.0]],
    ])
    idx, hit = grid._nearest(queries)
    ref_idx, ref_hit = _scan(grid, queries)
    assert np.array_equal(hit, ref_hit)
    assert np.array_equal(idx[hit], ref_idx[hit])
    assert hit[:6 * len(m)].all() and not hit[6 * len(m):6 * len(m) + 200].any()
    assert [grid.index_of(Direction.unit(q)) for q in queries[-5:]] == \
        [int(i) if h else None for i, h in zip(ref_idx[-5:], ref_hit[-5:])]
