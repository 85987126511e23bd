import math
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setlaw import (
    Box,
    Direction,
    DirectionGrid,
    Ellipsoid,
    Embedded,
    GeometryError,
    Interval,
    Polytope,
    SupportVector,
    embed,
    format_body,
    geometry,
    hausdorff_distance,
    make_direction_grid,
    minkowski_sum,
    parse_body,
    scalar_mul,
    set_norm,
    support_function,
    zero_body,
)
from setlaw.geometry import _drop_interior, _hull_prune, _unique_rows

import oracles

UP = Direction((1.0,))
DOWN = Direction((-1.0,))


# -- support function --------------------------------------------------------

def test_interval_support_signs():
    body = Interval(2, 5)
    assert support_function(body, UP) == 5.0
    assert support_function(body, DOWN) == -2.0


def test_singleton_polytope_support_is_zero():
    origin = Polytope([[0.0, 0.0]])
    for u in make_direction_grid(2, 16, "uniform_angles_2d"):
        assert support_function(origin, u) == 0.0


def test_ellipsoid_support_closed_form_vs_boundary_oracle():
    body = Ellipsoid((0.0, 0.0), (2.0, 3.0))
    u = Direction((1.0, 0.0))
    assert support_function(body, u) == pytest.approx(2.0, abs=1e-12)
    oracle = oracles.ellipsoid_boundary_support((0.0, 0.0), (2.0, 3.0), (1.0, 0.0))
    assert abs(support_function(body, u) - oracle) <= 1e-3


def test_box_support():
    body = Box((-1.0, 0.0), (2.0, 4.0))
    assert support_function(body, Direction((1.0, 0.0))) == 2.0
    assert support_function(body, Direction((-1.0, 0.0))) == 1.0
    assert support_function(body, Direction((0.0, -1.0))) == 0.0


def test_support_dimension_mismatch():
    with pytest.raises(GeometryError):
        support_function(Interval(0, 1), Direction((1.0, 0.0)))


def test_embedded_off_grid_query_errors():
    grid = make_direction_grid(2, 8, "uniform_angles_2d")
    body = Embedded(embed(Box((0.0, 0.0), (1.0, 1.0)), grid))
    off = Direction.unit((1.0, 0.3))
    with pytest.raises(GeometryError, match="off its grid"):
        support_function(body, off)


# -- minkowski sum -----------------------------------------------------------

def test_interval_sum():
    assert minkowski_sum(Interval(1, 2), Interval(3, 4)) == Interval(4, 6)


def test_zero_is_identity():
    for body in (Interval(-1, 2), Box((0.0,), (3.0,))):
        total = minkowski_sum(body, zero_body(1) if isinstance(body, Interval)
                              else Box((0.0,), (0.0,)))
        assert support_function(total, UP) == support_function(body, UP)
        assert support_function(total, DOWN) == support_function(body, DOWN)
    square = Polytope([[0, 0], [1, 0], [1, 1], [0, 1]])
    summed = minkowski_sum(square, Polytope([[0.0, 0.0]]))
    assert summed == Polytope(oracles.hull_ccw(square.vertices))


def test_unit_square_plus_unit_square_is_doubled_square():
    square = Polytope([[0, 0], [1, 0], [1, 1], [0, 1]])
    result = minkowski_sum(square, square)
    # oracle: brute-force pairwise vertex sums, then an independent hull
    sums = np.array([v + w for v in square.vertices for w in square.vertices])
    expected = oracles.hull_ccw(sums)
    assert sorted(map(tuple, result.vertices)) == sorted(map(tuple, expected))


def test_mixed_sum_embeds_with_support_addition():
    grid = make_direction_grid(2, 32, "uniform_angles_2d")
    a = Box((0.0, 0.0), (1.0, 2.0))
    b = Ellipsoid((1.0, -1.0), (0.5, 1.5))
    total = minkowski_sum(a, b, grid)
    assert isinstance(total, Embedded)
    for u in grid:
        lhs = support_function(total, u)
        rhs = support_function(a, u) + support_function(b, u)
        assert abs(lhs - rhs) <= 1e-9


def test_high_dim_polytope_sum_keeps_raw_vertices():
    a = Polytope(np.eye(3))
    b = Polytope([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    total = minkowski_sum(a, b)
    assert total.vertices.shape == (6, 3)


def _fold_parts(case: str, seed: int) -> list[np.ndarray]:
    """Four seeded 3-D vertex arrays of one kind, for a 4-fold Minkowski sum."""
    rng = np.random.default_rng([seed, 7])
    gaussian = [rng.normal(size=(8, 3)) for _ in range(4)]
    if case == "lattice":  # coplanar and duplicate sums
        return [rng.integers(-2, 3, size=(6, 3)).astype(float) for _ in range(4)]
    if case == "lattice-tenths":  # coplanar in exact arithmetic, not in floats
        return [0.1 * rng.integers(-2, 3, size=(6, 3)) for _ in range(4)]
    if case == "flat":
        return [p * (1.0, 1.0, 0.0) for p in gaussian]
    if case == "few":
        return [rng.normal(size=(k, 3)) for k in (1, 2, 3, 3)]
    scale, delta = {"gaussian": (1.0, 0.0), "offset": (1.0, 1e8),
                    "tiny": (1e-6, 0.0), "huge": (1e6, 0.0),
                    "1e-200": (1e-200, 0.0), "1e200": (1e200, 0.0)}[case]
    return [scale * p + delta for p in gaussian]


def _fold(parts: list[np.ndarray]) -> tuple[Polytope, np.ndarray, float]:
    """The library's folded sum, the distinct raw vertex sums from the same
    additions, and 1e-9 times the least max |coordinate| of a partial sum:
    the depth inside the hull that every dropped sum must have."""
    folded, raw, least = Polytope(parts[0]), parts[0], np.inf
    for part in parts[1:]:
        folded = minkowski_sum(folded, Polytope(part))
        raw = (raw[:, None, :] + part[None, :, :]).reshape(-1, 3)
        least = min(least, np.abs(raw).max())
    return folded, np.unique(raw, axis=0), 1e-9 * least


FOLD_CASES = [(case, seed)
              for case in ("gaussian", "lattice", "lattice-tenths", "flat", "few",
                           "offset", "tiny", "huge", "1e-200", "1e200")
              for seed in range(3)]


@pytest.mark.parametrize("case,seed", FOLD_CASES)
def test_3d_sum_prune_keeps_every_support_value(case, seed):
    folded, raw, _ = _fold(_fold_parts(case, seed))
    grid = make_direction_grid(3, 256, "fibonacci_3d")
    assert len(folded.vertices) <= len(raw)
    assert np.array_equal(embed(folded, grid).values, embed(Polytope(raw), grid).values)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_unique_rows_equal_numpy_unique_down_to_signed_zeros(d):
    rng = np.random.default_rng([d, 22])
    for _ in range(200):
        n = int(rng.integers(1, 60))
        points = rng.integers(-2, 3, size=(n, d)).astype(float)
        points[rng.random((n, d)) < 0.5] *= -1.0  # many -0.0 beside +0.0
        before = points.copy()
        got, want = _unique_rows(points), np.unique(points, axis=0)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert points.tobytes() == before.tobytes()


def test_polytope_sums_leave_numpy_ma_unloaded(tmp_path):
    # np.unique asks np.ma.is_masked, which imports numpy.ma (10-16 ms and
    # 1.1 MiB) on a process's first polytope sum
    cfg = tmp_path / "gap.cfg"
    cfg.write_text("command = hausdorff\nbody_a = polytope 2 3 0 0 1 0 0 1\n"
                   "body_b = ellipsoid 2 0 0 1 2\n")
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from setlaw import Polytope, minkowski_sum\n"
        "from setlaw.cli import main\n"
        "rng = np.random.default_rng(5)\n"
        "minkowski_sum(Polytope(rng.normal(size=(12, 2))), Polytope(rng.normal(size=(9, 2))))\n"
        "folded = Polytope(rng.normal(size=(6, 3)))\n"
        "for _ in range(4):\n"
        "    folded = minkowski_sum(folded, Polytope(rng.normal(size=(6, 3))))\n"
        f"code = main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, 'numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == ["0", "False"]


def test_slln_run_leaves_numpy_ma_unloaded(tmp_path):
    # np.median imports numpy.ma (about 8 ms) on its first call; the strong
    # law's median certificate sorts instead
    cfg = tmp_path / "slln.cfg"
    cfg.write_text("command = slln\nseed = 3\nfamily = ellipsoid_interval\na = 1\n"
                   "block_dim = 4\nmax_n = 400\npaths = 20\n")
    code = (
        "import sys\n"
        "from setlaw.cli import main\n"
        f"code = main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r},"
        " '--threads', '2'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == ["0", "False"]
    assert (tmp_path / "out" / "slln_detail.csv").exists()


@pytest.mark.parametrize("case,seed", FOLD_CASES)
def test_3d_sum_prune_keeps_maximizers_and_drops_only_deep_sums(case, seed):
    folded, raw, depth = _fold(_fold_parts(case, seed))
    kept = set(map(tuple, folded.vertices.tolist()))
    dropped = raw[[row not in kept for row in map(tuple, raw.tolist())]]
    u = np.random.default_rng(seed).normal(size=(20_000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    strict = set()
    for rows in np.array_split(u, 10):
        dots = rows @ raw.T
        best = np.argmax(dots, axis=1)
        top = dots[np.arange(len(rows)), best]
        # a dropped sum lies a ball of radius `depth` inside the hull
        assert np.all(top[:, None] - rows @ dropped.T >= 0.5 * depth)
        dots[np.arange(len(rows)), best] = -np.inf
        # a gap of 1e-9 relative to the coordinates
        strict.update(best[top - dots.max(axis=1) > 1e-9 * np.abs(raw).max()].tolist())
    assert strict
    assert {tuple(raw[i].tolist()) for i in strict} <= kept


@pytest.mark.parametrize("case,seed", [(c, s) for c, s in FOLD_CASES if c != "flat"])
def test_3d_sum_prune_keeps_every_hull_vertex(case, seed):
    from scipy import spatial  # a test dependency: a missing oracle is an error
    folded, raw, _ = _fold(_fold_parts(case, seed))
    # qhull runs on a copy scaled exactly, by a power of two, to unit size
    unit = np.ldexp(raw, -np.frexp(np.abs(raw).max())[1])
    hull = set(map(tuple, raw[spatial.ConvexHull(unit).vertices].tolist()))
    assert hull <= set(map(tuple, folded.vertices.tolist()))


@pytest.mark.parametrize("case", ["gaussian", "tiny", "huge", "1e-200", "1e200"])
def test_3d_sum_prune_drops_interior_sums_at_any_magnitude(case):
    folded, raw, _ = _fold(_fold_parts(case, 0))
    assert len(raw) == 8 ** 4 and len(folded.vertices) < len(raw) // 4


def _same_rows(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _drops_match_reference(parts: list[np.ndarray]) -> bool:
    """Whether every partial sum of the fold of ``parts`` keeps the
    reference's rows."""
    folded = Polytope(parts[0])
    for part in parts[1:]:
        sums = (folded.vertices[:, None, :] + part[None, :, :]).reshape(-1, 3)
        if not _same_rows(_drop_interior(sums), oracles.drop_interior_reference(sums)):
            return False
        folded = minkowski_sum(folded, Polytope(part))
    return True


@pytest.mark.parametrize("case,seed", FOLD_CASES)
def test_3d_interior_drop_keeps_the_reference_rows(case, seed):
    assert _drops_match_reference(_fold_parts(case, seed))


def test_3d_interior_drop_keeps_the_reference_rows_on_five_fold_gaussian_sums():
    # five parts of eight N(0, 1) vertices, as the benchmark's folds
    for seed in range(24):
        rng = np.random.default_rng([seed, 5])
        assert _drops_match_reference([rng.normal(size=(8, 3)) for _ in range(5)]), seed


def _three_fold_sums(kind: str) -> tuple[Polytope, np.ndarray]:
    """The library's sum of two seeded 8-vertex 3-D parts, and the third
    part: Gaussian, or lattice rows whose zeros carry random signs, so that
    the keep test's products hold both signed zeros."""
    rng = np.random.default_rng([len(kind), 30])
    if kind == "gaussian":
        parts = [rng.normal(size=(8, 3)) for _ in range(3)]
    else:
        parts = [rng.integers(-2, 3, size=(8, 3)).astype(float) for _ in range(3)]
        for part in parts:
            part[(part == 0.0) & (rng.random(part.shape) < 0.5)] = -0.0
    return minkowski_sum(Polytope(parts[0]), Polytope(parts[1])), parts[2]


@pytest.mark.parametrize("kind", ["gaussian", "signed-zero"])
@pytest.mark.parametrize("edge", ["one block", "one block and one row", "one row per block"])
def test_3d_sum_at_keep_block_edges_keeps_the_reference_rows(kind, edge, monkeypatch):
    partial, part = _three_fold_sums(kind)
    sums = (partial.vertices[:, None, :] + part[None, :, :]).reshape(-1, 3)
    blocks = []  # per keep-test block: planes, and whether its products hold both zeros
    inner = geometry._inner

    def spy(P, Q, work=None):
        out = inner(P, Q, work)
        if work is not None:
            zeros = np.signbit(out[out == 0.0])
            blocks.append((len(out), zeros.any() and not zeros.all()))
        return out

    monkeypatch.setattr(geometry, "_inner", spy)
    _drop_interior(sums)
    planes, rows = blocks[0][0], len(sums)
    assert kind == "gaussian" or any(both for _, both in blocks)
    elements, count = {"one block": (rows * planes, 1),
                       "one block and one row": ((rows - 1) * planes, 2),
                       "one row per block": (planes - 1, rows)}[edge]
    monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", elements)
    kept = oracles.drop_interior_reference(sums)
    assert len(kept) < len(sums)
    blocks.clear()
    assert _same_rows(_drop_interior(sums), kept)
    assert len(blocks) == count
    assert _same_rows(minkowski_sum(partial, Polytope(part)).vertices,
                      np.unique(kept, axis=0))


@st.composite
def _clouds(draw) -> np.ndarray:
    """Small 3-D point sets: integer-lattice rows, some repeated, perhaps with
    a whole 5 x 5 x 5 block, whose inner rows are dropped; all of them on
    one plane or one line or neither, with signed zeros, then scaled and
    shifted.  Few distinct rows or a line give fewer than 4 probe maximizers."""
    pool = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=16))
    if draw(st.booleans()):
        pool += list(product(range(-2, 3), repeat=3))
    repeats = draw(st.lists(st.integers(0, len(pool) - 1), max_size=20))
    points = np.array(pool + [pool[i] for i in repeats], dtype=float)
    shape = draw(st.sampled_from(["any", "any", "plane", "line"]))
    if shape == "plane":
        points[:, 2] = points[:, 0] - 2.0 * points[:, 1]
    elif shape == "line":
        points = points[:, :1] * np.array([1.0, -2.0, 3.0])
    negative = np.random.default_rng(draw(st.integers(0, 255))).random(points.shape) < 0.5
    points[negative & (points == 0.0)] = -0.0
    points *= draw(st.sampled_from([1.0, 0.1, 2.0 ** -40, 1e6]))
    shift = draw(st.sampled_from([0.0, 0.5, -3e3]))
    return points + shift if shift else points


@settings(max_examples=200, deadline=None)
@given(_clouds())
def test_3d_interior_drop_keeps_the_reference_rows_on_small_clouds(points):
    assert _same_rows(_drop_interior(points), oracles.drop_interior_reference(points))


@pytest.mark.parametrize("kind", ["gaussian", "sum", "collinear", "duplicate", "signed-zero"])
def test_2d_hull_prune_returns_the_reference_bytes(kind):
    rng = np.random.default_rng([len(kind), 2])
    for _ in range(60):
        n = int(rng.integers(1, 120))
        if kind == "gaussian":
            points = rng.normal(size=(n, 2)) * 10.0 ** int(rng.integers(-3, 4))
        elif kind == "sum":  # the vertex sums of two polygons
            a, b = rng.normal(size=(int(rng.integers(1, 17)), 2)), rng.normal(size=(9, 2))
            points = (a[:, None, :] + b[None, :, :]).reshape(-1, 2)
        elif kind == "collinear":  # exactly, on one lattice line
            points = rng.integers(-5, 6, size=(n, 1)) * rng.integers(-3, 4, size=2) + 0.5
        elif kind == "duplicate":
            points = rng.normal(size=(int(rng.integers(1, 6)), 2))
            points = points[rng.integers(0, len(points), size=n)]
        else:  # lattice points, many -0.0 beside 0.0
            points = rng.integers(-2, 3, size=(n, 2)).astype(float)
            points[rng.random((n, 2)) < 0.5] *= -1.0
        assert _same_rows(_hull_prune(points), oracles.hull_prune_reference(points))


def test_sum_dimension_mismatch():
    with pytest.raises(GeometryError):
        minkowski_sum(Interval(0, 1), Box((0.0, 0.0), (1.0, 1.0)))


# -- scalar multiplication ---------------------------------------------------

def test_scalar_mul_interval():
    assert scalar_mul(2.0, Interval(1, 3)) == Interval(2, 6)
    assert scalar_mul(-1.0, Interval(1, 3)) == Interval(-3, -1)


def test_scalar_mul_zero_gives_origin():
    for body in (Interval(1, 3), Box((1.0, 1.0), (2.0, 3.0)),
                 Polytope([[1, 2], [3, 4]]), Ellipsoid((1.0,), (2.0,))):
        collapsed = scalar_mul(0.0, body)
        assert set_norm(collapsed, None if body.dim == 1 else
                        make_direction_grid(2, 8, "uniform_angles_2d")) == 0.0


def test_scalar_mul_embedded_negative_needs_antipodal_grid():
    grid = make_direction_grid(2, 8, "uniform_angles_2d")
    body = Embedded(embed(Box((0.0, 0.0), (1.0, 2.0)), grid))
    flipped = scalar_mul(-1.0, body)
    for u in grid:
        expected = support_function(Box((-1.0, -2.0), (0.0, 0.0)), u)
        assert support_function(flipped, u) == pytest.approx(expected, abs=1e-12)

    half = DirectionGrid([Direction((1.0, 0.0)), Direction((0.0, 1.0))])
    lopsided = Embedded(SupportVector(half, np.array([1.0, 1.0])))
    with pytest.raises(GeometryError, match="antipodal"):
        scalar_mul(-2.0, lopsided)


@pytest.mark.parametrize("lam", [3.0, -2.0])
def test_scalar_mul_box_keeps_numpy_min_max_bits(lam):
    # axes (-0.0, 0.0), (0.0, 0.0), (-1, 0.0): scaling makes ties between signed zeros
    box = Box((-0.0, 0.0, -1.0), (0.0, 0.0, 0.0))
    x, y = lam * np.array(box.lo), lam * np.array(box.hi)
    scaled = scalar_mul(lam, box)
    assert np.array(scaled.lo).tobytes() == np.minimum(x, y).tobytes()
    assert np.array(scaled.hi).tobytes() == np.maximum(x, y).tobytes()


@pytest.mark.parametrize("lam", [3.0, -2.0])
@pytest.mark.parametrize("lo, hi", [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (-1.0, 0.0),
                                    (0.0, 1.0)], ids=["-0,+0", "+0,-0", "-0,-0", "-1,0", "0,1"])
def test_scalar_mul_interval_keeps_the_signs_of_a_1d_box(lam, lo, hi):
    interval = scalar_mul(lam, Interval(lo, hi))
    box = scalar_mul(lam, Box((lo,), (hi,)))
    assert format_body(interval).split()[1:] == format_body(box).split()[2:]
    x, y = lam * np.array(lo), lam * np.array(hi)
    assert np.array([interval.lo, interval.hi]).tobytes() == \
        np.array([np.minimum(x, y), np.maximum(x, y)]).tobytes()


def test_scalar_mul_ellipsoid():
    body = scalar_mul(-2.0, Ellipsoid((1.0, 0.0), (1.0, 2.0)))
    assert body == Ellipsoid((-2.0, 0.0), (2.0, 4.0))


# -- hausdorff / norm --------------------------------------------------------

def test_hausdorff_1d_examples():
    assert hausdorff_distance(Interval(0, 1), Interval(0, 3)) == 2.0
    assert hausdorff_distance(Interval(-1, 4), Interval(-1, 4)) == 0.0
    assert hausdorff_distance(zero_body(1), Interval(-2, 5)) == 5.0
    assert hausdorff_distance(Interval(-1e307, 1e307), Interval(1e307, 1e307)) == 2e307


def test_hausdorff_1d_takes_only_a_1d_grid():
    a, b = Interval(0, 1), Interval(0, 3)
    assert hausdorff_distance(a, b, make_direction_grid(1, 2, "exact1d")) == 2.0
    grid = make_direction_grid(2, 8, "uniform_angles_2d")
    with pytest.raises(GeometryError, match="grid dim 2"):
        hausdorff_distance(a, b, grid)
    with pytest.raises(GeometryError, match="grid dim 2"):
        set_norm(Interval(-2, 5), grid)


def test_hausdorff_polygons_match_dense_oracle():
    rng = np.random.default_rng(2024)
    grid = make_direction_grid(2, 4096, "uniform_angles_2d")
    for _ in range(20):
        hull_a = oracles.random_convex_polygon(rng, rng.uniform(-1, 1, 2), 1.0)
        hull_b = oracles.random_convex_polygon(rng, rng.uniform(-1, 1, 2) + 2.0, 1.0)
        got = hausdorff_distance(Polytope(hull_a), Polytope(hull_b), grid)
        want = oracles.polygon_hausdorff(hull_a, hull_b)
        assert abs(got - want) <= 1e-2 * want


def test_hausdorff_needs_grid_in_higher_dim():
    square = Polytope([[0, 0], [1, 0], [1, 1], [0, 1]])
    with pytest.raises(GeometryError, match="grid"):
        hausdorff_distance(square, square)


@pytest.mark.parametrize("a,b,grid", [
    (Interval(-1e308, 1e308), Interval(1e308, 1e308), None),  # the difference overflows
    (Ellipsoid((1e308, 1e308), (1e308, 1e308)), Box((0, 0), (1, 1)),
     make_direction_grid(2, 8, "uniform_angles_2d")),  # the ellipsoid's squares overflow
])
def test_hausdorff_distance_that_overflows_is_an_error(a, b, grid):
    with pytest.raises(GeometryError, match="overflows"):
        hausdorff_distance(a, b, grid)


def test_set_norm_examples():
    assert set_norm(Interval(-2, 5)) == 5.0
    assert set_norm(zero_body(1)) == 0.0
    grid = make_direction_grid(2, 360, "uniform_angles_2d")
    value = set_norm(Ellipsoid((0.0, 0.0), (2.0, 3.0)), grid)
    fine = make_direction_grid(2, 8192, "uniform_angles_2d")
    oracle = max(math.sqrt(4 * u.components[0] ** 2 + 9 * u.components[1] ** 2)
                 for u in fine)
    assert value == pytest.approx(3.0, abs=1e-9)
    assert abs(value - oracle) <= 1e-6


# -- embedding ---------------------------------------------------------------

def test_embed_interval_support_pair():
    grid = make_direction_grid(1, 2, "exact1d")
    assert np.array_equal(embed(Interval(2, 5), grid).values, [5.0, -2.0])


def test_embed_origin_is_zero_everywhere():
    grid = make_direction_grid(2, 64, "uniform_angles_2d")
    assert np.all(embed(Polytope([[0.0, 0.0]]), grid).values == 0.0)


def test_embed_unit_disk_is_all_ones():
    grid = make_direction_grid(2, 64, "uniform_angles_2d")
    values = embed(Ellipsoid((0.0, 0.0), (1.0, 1.0)), grid).values
    assert np.allclose(values, 1.0, atol=1e-12)


def test_embedded_sublinearity_violation_rejected():
    grid = make_direction_grid(2, 16, "uniform_angles_2d")
    good = embed(Box((0.0, 0.0), (1.0, 1.0)), grid).values
    Embedded(SupportVector(grid, good))  # sanity: valid values construct
    bad = np.array(good)
    bad[0] = good[0] + 1.0  # bump one direction far above its neighbors' mean
    bad[1] = good[1] - 1.0
    with pytest.raises(GeometryError, match="sublinear"):
        Embedded(SupportVector(grid, bad))


# -- direction grids ---------------------------------------------------------

def test_exact1d_grid():
    grid = make_direction_grid(1, 2, "exact1d")
    assert sorted(d.components[0] for d in grid) == [-1.0, 1.0]
    assert grid.antipodal_closed
    with pytest.raises(GeometryError, match="count 2"):
        make_direction_grid(1, 8, "exact1d")


def test_quarter_turn_grid():
    grid = make_direction_grid(2, 4, "uniform_angles_2d")
    got = np.asarray(grid.matrix)
    want = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.allclose(got, want, atol=1e-12)


def test_fibonacci_grid_is_antipodal_and_unit():
    grid = make_direction_grid(3, 100, "fibonacci_3d")
    assert len(grid) == 100
    norms = np.linalg.norm(grid.matrix, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert grid.antipodal_closed
    # membership check: every antipode is a grid row
    m = np.asarray(grid.matrix)
    for row in m:
        assert np.min(np.linalg.norm(m + row, axis=1)) <= 1e-12


def test_seeded_random_grid_deterministic():
    g1 = make_direction_grid(4, 32, "seeded_random", seed=5)
    g2 = make_direction_grid(4, 32, "seeded_random", seed=5)
    g3 = make_direction_grid(4, 32, "seeded_random", seed=6)
    assert g1 == g2
    assert g1 != g3
    assert g1.antipodal_closed


def test_grid_errors():
    with pytest.raises(GeometryError):
        make_direction_grid(2, 1, "uniform_angles_2d")
    with pytest.raises(GeometryError):
        make_direction_grid(2, 7, "uniform_angles_2d")  # odd count
    with pytest.raises(GeometryError):
        make_direction_grid(3, 8, "uniform_angles_2d")  # wrong dim
    with pytest.raises(GeometryError):
        make_direction_grid(1, 4, "seeded_random")
    with pytest.raises(GeometryError):
        make_direction_grid(2, 8, "nonsense")
    with pytest.raises(GeometryError, match="coincide"):
        DirectionGrid([Direction((1.0, 0.0)), Direction((1.0, 0.0))])


def test_grid_1d_must_be_signs():
    with pytest.raises(GeometryError):
        DirectionGrid([Direction((1.0,))])


def test_direction_validation():
    with pytest.raises(GeometryError):
        Direction((0.5, 0.5))
    assert Direction.unit((3.0, 4.0)).components == (0.6, 0.8)


# -- invariants on representations -------------------------------------------

def test_body_validation_errors():
    with pytest.raises(GeometryError):
        Interval(2, 1)
    with pytest.raises(GeometryError):
        Box((0.0, 0.0), (1.0, -1.0))
    with pytest.raises(GeometryError):
        Ellipsoid((0.0,), (0.0,))
    with pytest.raises(GeometryError):
        Polytope(np.empty((0, 2)))


def test_degenerate_bodies_are_legal():
    assert Interval(1.5, 1.5).dim == 1
    assert set_norm(Interval(1.5, 1.5)) == 1.5


# -- serialization -----------------------------------------------------------

@pytest.mark.parametrize("body", [
    Interval(0.0, 1.25),
    Interval(-3.5, -3.5),
    Box((-1.0, 0.25), (0.5, 0.3000000000000000444)),
    Polytope([[0.1, 0.2], [3.0, -4.0], [0.0, 0.0]]),
    Ellipsoid((2.0, 3.0), (2.0, 3.0)),
])
def test_body_text_round_trip(body):
    again = parse_body(format_body(body))
    assert type(again) is type(body)
    assert again == body


def test_parse_body_errors():
    for line in ("", "interval 1", "box 2 0 0 1", "polytope 2 2 0 0 1",
                 "ellipsoid 1 0", "widget 1 2 3", "interval a b"):
        with pytest.raises(GeometryError):
            parse_body(line)


def test_embedded_has_no_text_form():
    grid = make_direction_grid(1, 2, "exact1d")
    body = Embedded(embed(Interval(0, 1), grid))
    with pytest.raises(GeometryError):
        format_body(body)
