import math
import os
import pickle
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from setlaw import (
    Box,
    Ellipsoid,
    EllipsoidFamilySpec,
    EllipsoidIntervalFamily,
    FamilyError,
    Interval,
    Polytope,
    ScaledTemplateFamily,
    SeedSpec,
    SetSample,
    VarianceSchedule,
    evaluate_variance_condition,
    format_body,
    interval_family_variances,
    make_direction_grid,
    read_set_sample,
    sample_ellipse_pair,
    sample_ellipsoid_uniform,
    scalar_mul,
    support_function,
    uniform_density_constant,
    write_set_sample,
    Direction,
)
import oracles
from setlaw import sampling
from setlaw.harness import _STREAM_SHIFT, _wlln_chunk, _wlln_constants
from setlaw.sampling import (
    DeterministicFamily,
    StreamCursor,
    _ellipsoid_block,
    _scalar_block,
)

UP = Direction((1.0,))


def _marginal_var_se(axes, n, count):
    """Standard error of the sample variance of each ellipsoid coordinate."""
    axes = np.asarray(axes)
    ez2 = 1.0 / (n + 2.0)
    ez4 = 3.0 / ((n + 2.0) * (n + 4.0))
    return axes ** 2 * math.sqrt((ez4 - ez2 ** 2) / count)


# -- seeding -----------------------------------------------------------------

def test_seed_spec_is_pure_function():
    a = SeedSpec(123, 4).generator().standard_normal(8)
    b = SeedSpec(123, 4).generator().standard_normal(8)
    c = SeedSpec(123, 5).generator().standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seed_spec_validation():
    with pytest.raises(FamilyError):
        SeedSpec(-1)
    with pytest.raises(FamilyError):
        SeedSpec(0, 1 << 64)


def test_streams_statistically_independent():
    x = SeedSpec(9, 0).generator().standard_normal(20000)
    y = SeedSpec(9, 1).generator().standard_normal(20000)
    assert abs(np.corrcoef(x, y)[0, 1]) <= 3.0 / math.sqrt(20000)


# -- uniform ellipsoid draws ---------------------------------------------------

def test_ellipsoid_1d_variance_is_one_third():
    spec = EllipsoidFamilySpec((1.0,))
    x = sample_ellipsoid_uniform(spec, 100_000, SeedSpec(11))
    se = _marginal_var_se((1.0,), 1, 100_000)[0]
    assert abs(x.var(ddof=1) - 1.0 / 3.0) <= 5 * se


def test_ellipsoid_2d_density_and_variance():
    spec = EllipsoidFamilySpec((1.0, 1.0))
    assert uniform_density_constant(spec) == pytest.approx(1.0 / math.pi, abs=1e-15)
    x = sample_ellipsoid_uniform(spec, 100_000, SeedSpec(12))
    se = _marginal_var_se((1.0, 1.0), 2, 100_000)
    assert np.all(np.abs(x.var(axis=0, ddof=1) - 0.25) <= 5 * se)


def test_ellipsoid_3d_mean_is_centered():
    spec = EllipsoidFamilySpec((1.0, 2.0, 3.0))
    count = 100_000
    x = sample_ellipsoid_uniform(spec, count, SeedSpec(13))
    sd = np.sqrt(np.asarray(spec.semi_axes) ** 2 / 5.0 / count)
    assert np.all(np.abs(x.mean(axis=0)) <= 3 * sd)


@pytest.mark.parametrize("axes", [(1.0, 1.0), (1.0, 2.0, 3.0),
                                  (1.0, 1.0, 2.0, 2.0, math.sqrt(5.0))])
def test_ellipsoid_moment_invariants(axes):
    n, count = len(axes), 100_000
    spec = EllipsoidFamilySpec(axes)
    x = sample_ellipsoid_uniform(spec, count, SeedSpec(14, n))
    target = np.asarray(axes) ** 2 / (n + 2.0)
    se = _marginal_var_se(axes, n, count)
    assert np.all(np.abs(x.var(axis=0, ddof=1) - target) <= 5 * se)
    corr = np.corrcoef(x.T)
    off = np.abs(corr[np.triu_indices(n, 1)])
    assert np.all(off <= 3.0 / math.sqrt(count))


def test_points_stay_inside_the_ellipsoid():
    spec = EllipsoidFamilySpec((1.0, 2.0))
    x = sample_ellipsoid_uniform(spec, 50_000, SeedSpec(15))
    assert np.all((x / np.asarray(spec.semi_axes)) ** 2 @ np.ones(2) <= 1.0 + 1e-12)


# -- interval family -----------------------------------------------------------

def test_interval_family_endpoints_bounded():
    sample = EllipsoidIntervalFamily((1.0, 1.0), block_dim=2).sample(2000, SeedSpec(16))
    his = np.array([b.hi for b in sample.bodies])
    assert np.all(his >= 0.0)
    assert np.all(his <= 2.0 + 1e-12)
    assert all(b.lo == 0.0 for b in sample.bodies)


def test_interval_family_upper_endpoint_variance():
    n, count = 4, 80_000
    spec = EllipsoidFamilySpec((1.0,) * n)
    sample = EllipsoidIntervalFamily(spec.semi_axes, block_dim=n).sample(count * n, SeedSpec(18))
    his = np.array([b.hi for b in sample.bodies]).reshape(count, n)
    target = interval_family_variances(spec)
    se = _marginal_var_se((1.0,) * n, n, count)
    assert np.all(np.abs(his.var(axis=0, ddof=1) - target) <= 5 * se)


# -- ellipse pairs --------------------------------------------------------------

def test_ellipse_pair_uncorrelated_but_dependent():
    count = 100_000
    pts = sample_ellipse_pair(2.0, 3.0, (2.0, 3.0), count, SeedSpec(19))
    xi, eta = pts[:, 0], pts[:, 1]
    assert abs(np.corrcoef(xi, eta)[0, 1]) <= 3.0 / math.sqrt(count)
    assert np.all(np.abs(pts.mean(axis=0) - (2.0, 3.0)) <= 4.0 / math.sqrt(count) * 3)

    # dependence: variance of eta differs across deciles of xi; a permutation
    # test against the homogeneity null must reject decisively
    order = np.argsort(xi)
    bins = 10
    usable = count - count % bins
    eta_sorted = eta[order][:usable].reshape(bins, -1)
    observed = eta_sorted.var(axis=1).max() - eta_sorted.var(axis=1).min()
    rng = np.random.default_rng(99)
    hits = 0
    perms = 200
    for _ in range(perms):
        shuffled = rng.permutation(eta[:usable]).reshape(bins, -1)
        spread = shuffled.var(axis=1)
        if spread.max() - spread.min() >= observed:
            hits += 1
    assert hits / perms < 0.01


def test_ellipse_pair_validation():
    with pytest.raises(FamilyError):
        sample_ellipse_pair(0.0, 1.0, (0.0, 0.0), 10, SeedSpec(1))


# -- scaled template families -----------------------------------------------------

def test_iid_family_scales_template():
    sample = ScaledTemplateFamily(Interval(0, 1)).sample(50, SeedSpec(20))
    assert all(isinstance(b, Interval) and b.lo == 0.0 and 0.0 <= b.hi <= 1.0
               for b in sample.bodies)


def test_ar1_lag_one_support_covariance_positive():
    rho, count, reps = 0.9, 2, 4000
    fam = ScaledTemplateFamily(Interval(0, 1), "ar1", rho=rho)
    samples = [fam.sample(count, SeedSpec(21, r)) for r in range(reps)]
    s0 = np.array([support_function(s.bodies[0], UP) for s in samples])
    s1 = np.array([support_function(s.bodies[1], UP) for s in samples])
    cov = np.cov(s0, s1, ddof=1)[0, 1]
    # closed form: Cov(c_0, c_1) = rho * Var(c_0) = rho / 12 for the chain
    # started at a uniform draw; verified against a big brute-force simulation
    target = rho / 12.0
    brute = np.cov(np.array([
        (c.bodies[0].hi, c.bodies[1].hi) for c in
        (fam.sample(2, SeedSpec(77, r)) for r in range(20000))]).T, ddof=1)[0, 1]
    assert cov > 0.0
    assert abs(brute - target) <= 5 * (1.0 / 12.0) / math.sqrt(20000) * 3
    assert abs(cov - target) <= 5 * (1.0 / 12.0) / math.sqrt(reps) * 3


@pytest.mark.parametrize("process,rho,match", [
    ("no_such_process", 0.0, "process"),
    ("uncorrelated_ellipsoid", 0.0, "process"),
    *(("ar1", rho, "rho") for rho in (-0.95, -1e-12, 1.0, 1.5, math.nan)),
])
def test_scaled_family_validation(process, rho, match):
    with pytest.raises(FamilyError, match=match):
        ScaledTemplateFamily(Interval(0, 1), process, rho=rho)


# -- determinism and serialization ------------------------------------------------

def test_sample_bytes_deterministic(tmp_path):
    fam = EllipsoidIntervalFamily((1.0, 2.0), block_dim=8)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_set_sample(fam.sample(20, SeedSpec(42, 3)), p1)
    write_set_sample(fam.sample(20, SeedSpec(42, 3)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sample_file_round_trip(tmp_path):
    fam = EllipsoidIntervalFamily((1.0,), block_dim=4)
    sample = fam.sample(10, SeedSpec(42, 3))
    path = tmp_path / "sample.txt"
    write_set_sample(sample, path)
    again = read_set_sample(path)
    assert again.bodies == sample.bodies
    assert again.seed == sample.seed


@pytest.mark.parametrize("family", [
    EllipsoidIntervalFamily((1.0, 2.0), block_dim=4),
    ScaledTemplateFamily(Box((-1.0, 0.0), (1.0, 2.0)), "iid_uniform",
                         direction_grid=make_direction_grid(2, 8, "uniform_angles_2d")),
    DeterministicFamily(Interval(0.5, 2.0)),
    ScaledTemplateFamily(Interval(0.0, 1.0), "ar1", rho=0.85, growth=0.5),
], ids=["ellipsoid-interval", "scaled-box2d", "deterministic", "ar1"])
def test_sample_file_round_trip_keeps_the_family_tag(family, tmp_path):
    sample = family.sample(5, SeedSpec(42, 3))
    # the header names the family as the manifest does, parameters included
    assert sample.family_tag == family.describe(5)
    assert " " in sample.family_tag  # a tag a whitespace split would cut
    path = tmp_path / "sample.txt"
    write_set_sample(sample, path)
    assert path.read_text(encoding="utf-8").startswith(
        f"# setlaw-sample family={family.describe(5)!r} ")
    again = read_set_sample(path)
    assert (again.family_tag, again.seed, again.bodies) == \
        (sample.family_tag, sample.seed, sample.bodies)


def test_sample_file_that_is_not_utf8_raises(tmp_path):
    path = tmp_path / "sample.txt"
    write_set_sample(EllipsoidIntervalFamily((1.0,), block_dim=4).sample(3, SeedSpec(1)), path)
    path.write_bytes(path.read_bytes().replace(b"interval", b"interv\xffl", 1))
    with pytest.raises(FamilyError, match="sample.txt is not UTF-8"):
        read_set_sample(path)


def test_truncated_or_mislabelled_sample_file_raises(tmp_path):
    path = tmp_path / "sample.txt"
    write_set_sample(EllipsoidIntervalFamily((1.0,), block_dim=4).sample(5, SeedSpec(1)), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-2]), encoding="utf-8")
    with pytest.raises(FamilyError, match="count=5"):
        read_set_sample(path)
    path.write_text(lines[0].replace("dim=1", "dim=2") + "".join(lines[1:]),
                    encoding="utf-8")
    with pytest.raises(FamilyError, match="dim=2"):
        read_set_sample(path)
    path.write_text("# setlaw-sample\n" + "".join(lines[1:]), encoding="utf-8")
    with pytest.raises(FamilyError, match="header"):
        read_set_sample(path)


@pytest.mark.parametrize("block_dim", [None, 4])
@pytest.mark.parametrize("n", [0, -1])
def test_ellipsoid_interval_family_rejects_empty_lengths(block_dim, n):
    fam = EllipsoidIntervalFamily((1.0,), block_dim=block_dim)
    with pytest.raises(FamilyError, match="length"):
        fam.sample(n, SeedSpec(1))
    with pytest.raises(FamilyError, match="length"):
        VarianceSchedule.from_family(fam, n)


def test_set_sample_validation():
    with pytest.raises(FamilyError):
        SetSample(())


# -- regenerated family axes ------------------------------------------------------

def test_regenerated_family_clamps_axes_to_sqrt_n():
    fam = EllipsoidIntervalFamily((5.0,))
    axes4 = fam.axes_for(4)
    assert np.allclose(axes4, 2.0)  # sqrt(4) clamp
    axes100 = fam.axes_for(100)
    assert np.allclose(axes100, 5.0)  # 5 <= sqrt(100), no clamp
    assert "min(pattern, sqrt(n))" in fam.describe(4)


def test_huge_axes_bound_the_variance_by_the_limit_or_by_inf():
    """Regenerated mode's bound a^2 / (a^2 + 2) tends to 1 as a^2 overflows;
    a block's a^2 / (block_dim + 2) is then inf, which the variances refuse."""
    assert EllipsoidIntervalFamily((1e200,)).variance_bound() == 1.0
    assert EllipsoidIntervalFamily((1e200, 1.0), block_dim=4).variance_bound() == math.inf
    assert EllipsoidIntervalFamily((2.0,)).variance_bound() == 4.0 / 6.0


# -- draw axes against the rule of the spec cache the family once kept -------------

# 1e154 ** 2 = 1e308 is finite; 1e200 ** 2 overflows to inf
_AXIS_PATTERNS = [(1.0,), (1.0, 5.0), (0.3, 1.7, 1.1), (1e154,), (1e200,)]


def _same(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 17, 130, 1000])
@pytest.mark.parametrize("block_dim", [None, 7])
@pytest.mark.parametrize("pattern", _AXIS_PATTERNS)
def test_draw_axes_equal_the_spec_rule(pattern, block_dim, n):
    fam = EllipsoidIntervalFamily(pattern, block_dim)
    spec = oracles.interval_spec_reference(pattern, block_dim, n)
    with np.errstate(over="ignore"):
        variances = spec.axes ** 2 / (spec.dim + 2.0)
    assert _same(fam._draw_axes(n), spec.axes)
    assert _same(fam.axes_for(n), np.resize(spec.axes, n))
    assert _same(fam._mean_scales(n), np.resize(spec.axes, n))
    assert _same(fam._scale_variances(n), np.resize(variances, n))
    assert _same(interval_family_variances(spec), variances)
    mode = "regenerated" if block_dim is None else f"block_dim={block_dim}"
    note = " axes=min(pattern, sqrt(n))" if block_dim is None else ""
    assert fam.describe(n) == (f"ellipsoid_interval a={fam.axes_pattern} {mode} "
                               f"draw_dim={spec.dim}{note}")


@pytest.mark.parametrize("block_dim", [None, 7])
@pytest.mark.parametrize("n", [0, -1])
def test_draw_axes_refuse_empty_lengths(block_dim, n):
    fam = EllipsoidIntervalFamily((1.0, 5.0), block_dim)
    for call in (fam._draw_axes, fam.axes_for, fam._mean_scales, fam._scale_variances,
                 fam.describe):
        with pytest.raises(FamilyError, match="length"):
            call(n)


# -- weak-law gaps against a spec rebuilt at every replication -----------------------

def _fresh_gaps(fam, n, master, reps):
    """Weak-law gaps with a spec rebuilt from the pattern at every replication."""
    target = np.outer(fam._mean_scales(n), fam._row).mean(axis=0)
    gaps = np.empty(reps)
    for r in range(reps):
        rng = SeedSpec(master, (n << _STREAM_SHIFT) | r).generator()
        spec = oracles.interval_spec_reference(fam.axes_pattern, fam.block_dim, n)
        d = spec.dim
        a = np.asarray(spec.semi_axes)
        z = rng.standard_normal((-(-n // d), d))
        radii = rng.random(len(z)) ** (1.0 / d)
        x = z / np.linalg.norm(z, axis=1, keepdims=True) * radii[:, None] * a
        supports = np.zeros((n, 2))
        supports[:, 0] = (x + a).reshape(-1)[:n]
        gaps[r] = float(np.abs(supports.mean(axis=0) - target).max())
    return gaps


@pytest.mark.parametrize("block_dim,n", [(None, 10), (None, 100), (None, 1000), (16, 100)])
def test_cached_spec_gaps_equal_fresh_spec_gaps(block_dim, n):
    fam = EllipsoidIntervalFamily((1.0, 5.0), block_dim)  # sqrt(n) clamp bites at n = 10
    reps = 40
    for _ in range(2):  # the second pass reads the cursor the first one left
        cached = _wlln_chunk((fam, n, 77, 0, reps, *_wlln_constants(fam, n)))
        assert np.array_equal(cached, _fresh_gaps(fam, n, 77, reps))


def test_spec_axes_are_read_only():
    spec = EllipsoidFamilySpec((1.0, 2.0, 0.5))
    assert np.array_equal(spec.axes, np.asarray(spec.semi_axes))
    with pytest.raises(ValueError):
        spec.axes[0] = 5.0


def test_filled_cache_keeps_family_equality_hash_and_pickle():
    a = EllipsoidIntervalFamily((1.0, 2.0), 8)
    b = EllipsoidIntervalFamily((1.0, 2.0), 8)
    size = len(pickle.dumps(a))
    a.support_draws(50, SeedSpec(3).generator())
    VarianceSchedule.from_family(a, 50)  # reads the grid norm, which is not cached
    # same pattern and draw dimension, but only the regenerated axes are clamped
    regen = EllipsoidIntervalFamily((1.0, 5.0))._draw_axes(16)
    assert not np.array_equal(regen, EllipsoidIntervalFamily((1.0, 5.0), 16)._draw_axes(16))
    assert a == b and hash(a) == hash(b)
    assert len(pickle.dumps(a)) == size
    again = pickle.loads(pickle.dumps(a))
    assert again == a and hash(again) == hash(a)


# -- AR(1) recursions against the element-wise loop -----------------------------

def _reference_ar1(count, rng, rho):
    u = rng.random(count)
    c = np.empty(count)
    c[0] = u[0]
    for k in range(1, count):
        c[k] = rho * c[k - 1] + (1.0 - rho) * u[k]
    return c


def _reference_ar1_variances(rho, n):
    base = np.empty(n)
    v = 1.0 / 12.0
    base[0] = v
    for k in range(1, n):
        v = rho ** 2 * v + (1.0 - rho) ** 2 / 12.0
        base[k] = v
    return base


class _Ar1Stand:
    """The attributes ``_scale_variances`` reads, without the family's
    0 <= rho check, so the recursion is also compared at rho < 0."""

    process = "ar1"

    def __init__(self, rho):
        self.rho = rho

    def _growth_factors(self, n):
        return np.ones(n)


@pytest.mark.parametrize("rho", [0.9, -0.3, 0.0])
@pytest.mark.parametrize("count", [1, 2, 1000])
def test_ar1_recursions_equal_elementwise_loop(rho, count):
    got = _scalar_block("ar1", count, lambda _row: SeedSpec(13, count).generator(), 1, rho)[0]
    want = _reference_ar1(count, SeedSpec(13, count).generator(), rho)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    variances = ScaledTemplateFamily._scale_variances(_Ar1Stand(rho), count)
    assert variances.tobytes() == _reference_ar1_variances(rho, count).tobytes()
    if rho >= 0.0:
        fam = ScaledTemplateFamily(Interval(0, 4), "ar1", rho=rho, growth=0.5)
        growth = np.arange(1, count + 1) ** 0.5
        want_var = _reference_ar1_variances(rho, count) * growth ** 2
        assert fam._scale_variances(count).tobytes() == want_var.tobytes()


@pytest.mark.parametrize("rho", [0.9, -0.3, 0.0])
@pytest.mark.parametrize("size", [1, 3])
def test_ar1_block_rows_equal_elementwise_loop(rho, size):
    got = _scalar_block("ar1", 300, lambda i: SeedSpec(14, i).generator(), size, rho)
    want = np.stack([_reference_ar1(300, SeedSpec(14, i).generator(), rho)
                     for i in range(size)])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -- stream cursor -----------------------------------------------------------------

_U64_MAX = (1 << 64) - 1


def _first_draws(rng):
    return (rng.standard_normal(5), rng.random(3),
            rng.integers(0, 1 << 32, size=3, dtype=np.uint32), rng.standard_normal(2))


@pytest.mark.parametrize("master", [0, 42, _U64_MAX])
def test_cursor_streams_equal_seed_spec_streams(master):
    indices = [0, 1, (1000 << _STREAM_SHIFT) | 9999, _U64_MAX]
    cursor = StreamCursor(master)
    for index in indices + indices[::-1]:  # each stream visited twice, out of order
        got = _first_draws(cursor.at(index))
        want = _first_draws(SeedSpec(master, index).generator())
        assert all(g.dtype == w.dtype and g.tobytes() == w.tobytes()
                   for g, w in zip(got, want))


def test_cursor_reset_after_a_half_used_32_bit_word():
    cursor = StreamCursor(42)
    rng = cursor.at(5)
    rng.integers(0, 1 << 32, size=3, dtype=np.uint32)  # odd: half a word left
    assert rng.bit_generator.state["has_uint32"] == 1
    got = cursor.at(7).integers(0, 1 << 32, size=5, dtype=np.uint32)
    want = SeedSpec(42, 7).generator().integers(0, 1 << 32, size=5, dtype=np.uint32)
    assert got.tobytes() == want.tobytes()


def test_cursor_rejects_out_of_range_seeds():
    with pytest.raises(FamilyError):
        StreamCursor(1 << 64)
    with pytest.raises(FamilyError):
        StreamCursor(-1)


def test_ellipsoid_uniform_draw_equals_the_seed_spec_draw():
    spec = EllipsoidFamilySpec((1.0, 2.0, 0.5))
    fam = EllipsoidIntervalFamily((1.0,), block_dim=4)
    # the thread's cursor is left at another master seed, then mid-stream at this one
    for before in (SeedSpec(9, 1), SeedSpec(3, 7)):
        for seed in (SeedSpec(3, 0), SeedSpec(3, 7), SeedSpec(_U64_MAX, _U64_MAX)):
            fam.sample(5, before)
            got = sample_ellipsoid_uniform(spec, 6, seed)
            want = _ellipsoid_block(spec.axes, 6, lambda _row: seed.generator(), 1)[0]
            assert _same(got, want)


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use; an import that forces it moves
    # about 15 ms into every command's start-up.  The thread pool's modules
    # (6-9 ms) load only when a pool starts, and scipy (about 0.5 s and
    # 33-38 MiB) not at all; the CLI writes its CSV files without csv.
    code = ("import sys, setlaw; random = 'numpy.random' in sys.modules; import setlaw.cli; "
            "print(*[m for m in ('concurrent.futures', 'scipy', 'csv') if m in sys.modules]); "
            "sys.exit(int(random))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.split() == []


# -- block draws ---------------------------------------------------------------------

def _grid256():
    return make_direction_grid(2, 256, "uniform_angles_2d")


_BLOCK_FAMILIES = {
    "ellipsoid-regen": EllipsoidIntervalFamily((1.0, 5.0)),
    "ellipsoid-block7": EllipsoidIntervalFamily((0.5, 1.5), block_dim=7),
    "iid-interval": ScaledTemplateFamily(Interval(0.0, 2.0)),
    "ar1-interval": ScaledTemplateFamily(Interval(-1.0, 2.0), "ar1", rho=0.7, growth=0.3),
    "iid-box2d-256": ScaledTemplateFamily(Box((-0.5, 0.0), (1.0, 2.0)),
                                          direction_grid=_grid256()),
    "ar1-box2d-256": ScaledTemplateFamily(Box((-1.0, -0.5), (0.75, 2.0)), "ar1", rho=0.6,
                                          growth=0.25, direction_grid=_grid256()),
    "deterministic-interval": DeterministicFamily(Interval(-1.0, 3.0)),
    "deterministic-box2d-256": DeterministicFamily(Box((-0.5, 0.0), (1.0, 2.0)), _grid256()),
}


def _one_draw(fam, n, rng):
    """The n scales of one draw from ``rng``."""
    return fam._scales(n, lambda _row: rng, 1)[0]


@pytest.mark.parametrize("name", sorted(_BLOCK_FAMILIES))
@pytest.mark.parametrize("size", [1, 3, 33])
@pytest.mark.parametrize("n", [1, 9, 40])
def test_block_draws_equal_per_replication_draws(name, size, n):
    fam = _BLOCK_FAMILIES[name]
    indices = [(n << _STREAM_SHIFT) | (5 + 2 * i) for i in range(size)]
    block = fam._scales(n, lambda i: SeedSpec(21, indices[i]).generator(), size)
    loop = np.stack([_one_draw(fam, n, SeedSpec(21, r).generator()) for r in indices])
    assert block.shape == (size, n)
    assert block.dtype == loop.dtype and block.tobytes() == loop.tobytes()


def test_block_draws_with_a_cursor_equal_seed_spec_draws():
    fam = EllipsoidIntervalFamily((1.0,), block_dim=16)
    cursor = StreamCursor(77)
    block = fam._scales(100, cursor.at, 5)
    loop = np.stack([_one_draw(fam, 100, SeedSpec(77, i).generator()) for i in range(5)])
    assert block.tobytes() == loop.tobytes()


class _ZeroRowStream:
    """The Philox stream ``SeedSpec(5, index)``, whose first normal draw comes
    back with its first vector all ``zero`` (+0.0 or -0.0) when one is given:
    a stand-in for the exact-zero normal vector, of probability 2^-52 per
    coordinate."""

    def __init__(self, index, zero=None):
        self._rng = SeedSpec(5, index).generator()
        self.zero = zero
        self.normal_calls = 0

    def standard_normal(self, size=None, out=None):
        z = self._rng.standard_normal(size, out=out)
        if self.zero is not None and not self.normal_calls:
            z[0] = self.zero
        self.normal_calls += 1
        return z

    def random(self, size=None, out=None):
        return self._rng.random(size, out=out)


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("axes", [(1.0,), (1.0, 2.0, 0.5)])
def test_zero_norm_vectors_take_the_signs_of_their_zeros(zero, axes):
    spec = EllipsoidFamilySpec(axes)
    d = spec.dim
    # row 1 starts with an all-zero normal vector; rows 0 and 2 are plain streams
    got = _ellipsoid_block(spec.axes, 4,
                           lambda i: _ZeroRowStream(i, zero if i == 1 else None), 3)
    plain = _ellipsoid_block(spec.axes, 4, lambda i: SeedSpec(5, i).generator(), 3)
    rng = SeedSpec(5, 1).generator()
    rng.standard_normal((4, d))
    u = rng.random(4)[0]
    want = np.copysign(1.0 / math.sqrt(d), zero) * u ** (1.0 / d) * spec.axes
    assert got[1, 0].tobytes() == want.tobytes()
    assert np.all(np.signbit(got[1, 0]) == np.signbit(zero))
    others = np.ones(got.shape[:2], bool)
    others[1, 0] = False
    assert got[others].tobytes() == plain[others].tobytes()


class _OnceStreams:
    """A block's stream source that fails when a row is asked for twice; row
    ``zero_row`` starts with an all-zero normal vector."""

    def __init__(self, zero_row):
        self.zero_row = zero_row
        self.asked = []

    def __call__(self, i):
        assert i not in self.asked, f"row {i} asked for twice"
        self.asked.append(i)
        return _ZeroRowStream(i, 0.0 if i == self.zero_row else None)


@pytest.mark.parametrize("name", sorted(_BLOCK_FAMILIES))
@pytest.mark.parametrize("size", [1, 3])
def test_block_draws_read_each_stream_once(name, size):
    fam = _BLOCK_FAMILIES[name]
    streams = _OnceStreams(size - 1)
    block = fam._scales(9, streams, size)
    # a deterministic family reads no stream
    assert streams.asked == ([] if isinstance(fam, DeterministicFamily) else list(range(size)))
    assert np.all(np.isfinite(block))


@pytest.mark.parametrize("name", sorted(_BLOCK_FAMILIES))
def test_support_draws_read_their_generator_once(name):
    fam = _BLOCK_FAMILIES[name]
    rng = _ZeroRowStream(0, 0.0)  # no bit generator state to rewind
    got = fam.support_draws(9, rng)
    assert rng.normal_calls == (1 if isinstance(fam, EllipsoidIntervalFamily) else 0)
    want = np.multiply.outer(fam._scales(9, _OnceStreams(0), 1)[0], fam._row)
    assert got.tobytes() == want.tobytes()


# -- family samples carry their support table -----------------------------------------

_GRID16 = make_direction_grid(2, 16, "uniform_angles_2d")
_TEMPLATES = {
    "interval": Interval(-1.0, 2.0),
    "box2d": Box((-1.5, -0.25), (0.75, 2.0)),
    "polytope2d": Polytope(np.array([[0.0, 0.0], [1.5, 0.25], [0.3, 1.1]])),
    "ellipsoid2d": Ellipsoid((0.2, -0.1), (0.7, 1.3)),
}
_SAMPLE_FAMILIES = {
    "ellipsoid-regen": EllipsoidIntervalFamily((1.0, 2.0, 0.5)),
    "ellipsoid-block4": EllipsoidIntervalFamily((1.0, 2.0, 0.5), block_dim=4),
    **{f"{process}-growth-{name}": ScaledTemplateFamily(
        body, process, rho=0.6 if process == "ar1" else 0.0, growth=0.25,
        direction_grid=_GRID16 if body.dim == 2 else None)
       for name, body in _TEMPLATES.items() for process in ("iid_uniform", "ar1")},
    "deterministic-interval": DeterministicFamily(Interval(-1.0, 3.0)),
    "deterministic-box2d": DeterministicFamily(_TEMPLATES["box2d"], _GRID16),
}


@pytest.mark.parametrize("name", sorted(_SAMPLE_FAMILIES))
def test_family_sample_carries_its_support_block_draw(name):
    fam = _SAMPLE_FAMILIES[name]
    seed = SeedSpec(23, 4)
    sample = fam.sample(9, seed)
    want = fam.support_draws(9, seed.generator())
    got = sample.supports(fam.grid)
    assert (len(sample), sample.dim) == (9, fam.dim)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _sample_table(fam, count, seed):
    return fam.sample(count, seed).supports(fam.grid).tobytes()


def _seed_spec_table(fam, count, seed):
    return fam.support_draws(count, seed.generator()).tobytes()


def test_family_sample_in_threads_draws_each_seed_spec_stream():
    # each thread reads through its own cursor; masters and indices interleave
    # so that every call moves or rebuilds it, and the short switch interval
    # makes the threads trade places inside draws
    fams = [_SAMPLE_FAMILIES["ellipsoid-regen"], _SAMPLE_FAMILIES["ar1-growth-box2d"]]
    jobs = [(f, SeedSpec(master, index)) for index in range(40)
            for master in (3, _U64_MAX) for f in range(len(fams))]
    results, errors = {}, []

    def work(k):
        try:
            for f, seed in (jobs if k % 2 else jobs[::-1]):
                results[k, f, seed] = _sample_table(fams[f], 11, seed)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(results) == 4 * len(jobs)
    for (_k, f, seed), got in results.items():
        assert got == _seed_spec_table(fams[f], 11, seed)


def test_family_sample_loop_builds_one_generator_per_thread(monkeypatch):
    built = []
    original = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.append(a) or original(*a, **k))
    fam = _SAMPLE_FAMILIES["iid_uniform-growth-box2d"]
    # a new thread, so that no cursor from an earlier test is reused
    thread = threading.Thread(target=lambda: [fam.sample(5, SeedSpec(8, i)) for i in range(100)])
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(built) <= 1


def test_alternating_master_seeds_in_one_thread_draw_each_seed_spec_stream():
    # the thread's one cursor is rebuilt at each change of master seed
    fam = _SAMPLE_FAMILIES["ellipsoid-block4"]
    seeds = [SeedSpec(master, index) for index in (2, 0, 5) for master in (0, 9, _U64_MAX)]
    tables = []
    thread = threading.Thread(target=lambda: tables.extend(_sample_table(fam, 6, seed)
                                                           for seed in seeds))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert tables == [_seed_spec_table(fam, 6, seed) for seed in seeds]


def _reference_bodies(fam, count, seed):
    """The bodies of a family's draw on stream ``seed``, built from the raw draws."""
    if isinstance(fam, EllipsoidIntervalFamily):
        spec = oracles.interval_spec_reference(fam.axes_pattern, fam.block_dim, count)
        # Y = X + a over independent blocks, from the public ellipsoid draw
        x = sample_ellipsoid_uniform(spec, -(-count // spec.dim), seed)
        return [Interval(0.0, float(y)) for y in (x + spec.axes).ravel()[:count]]
    if isinstance(fam, DeterministicFamily):
        return [fam.body] * count
    c = _scalar_block(fam.process, count, lambda _row: seed.generator(), 1, fam.rho)[0]
    c = c * np.arange(1, count + 1) ** fam.growth
    return [scalar_mul(float(v), fam.template) for v in c]


@pytest.mark.parametrize("name", sorted(_SAMPLE_FAMILIES))
def test_family_bodies_are_built_when_read_as_scales_times_the_body(name, monkeypatch):
    fam = _SAMPLE_FAMILIES[name]
    seed = SeedSpec(23, 5)
    built = []
    original = sampling.scalar_mul
    monkeypatch.setattr(sampling, "scalar_mul", lambda *a: built.append(a) or original(*a))
    sample = fam.sample(9, seed)
    table = sample.supports(fam.grid)
    assert built == []  # drawing and reading the table build no body
    got = [format_body(b) for b in sample.bodies]
    assert len(built) == (0 if isinstance(fam, DeterministicFamily) else 9)
    monkeypatch.undo()
    # the bodies' own supports round on their own: within 4 ulps of each row's max |h|
    by_body = SetSample(sample.bodies).supports(fam.grid)
    ulp = np.spacing(np.abs(by_body).max(axis=1, keepdims=True))
    assert np.all(np.abs(by_body - table) <= 4 * ulp)
    assert got == [format_body(b) for b in _reference_bodies(fam, 9, seed)]
    again = pickle.loads(pickle.dumps(fam.sample(9, seed)))
    assert [format_body(b) for b in again.bodies] == got


@pytest.mark.parametrize("name", sorted(_SAMPLE_FAMILIES))
def test_draws_and_moments_are_scales_times_the_support_row(name):
    # the draws are pinned by test_family_sample_carries_its_support_block_draw;
    # the schedule is the largest column of Var(s_k) h_T(u)^2, bit for bit
    fam = _SAMPLE_FAMILIES[name]
    got = VarianceSchedule.from_family(fam, 9).per_index
    want = oracles.variance_table(fam, 9).max(axis=1, keepdims=True)
    assert got.shape == want.shape == (9, 1) and got.tobytes() == want.tobytes()
    norm = fam._norm
    assert norm.tobytes() == np.abs(fam._row).max().tobytes()
    assert got[:, 0].tobytes() == (fam._scale_variances(9) * (norm * norm)).tobytes()


_BOUNDS = {"wlln_eq4": None, "slln_log2": None, "slln_bounded": 0.05}


@pytest.mark.parametrize("n", [2, 17, 1000])
@pytest.mark.parametrize("name", sorted(_SAMPLE_FAMILIES))
def test_one_column_schedule_decides_as_the_full_table(name, n):
    fam = _SAMPLE_FAMILIES[name]
    column = VarianceSchedule.from_family(fam, n)
    table = VarianceSchedule(fam.grid, oracles.variance_table(fam, n))
    assert table.per_index.shape == (n, len(fam.grid))
    for kind, bound in _BOUNDS.items():
        got = evaluate_variance_condition(column, kind, bound=bound)
        want = evaluate_variance_condition(table, kind, bound=bound)
        assert got.trajectory.tobytes() == want.trajectory.tobytes()
        assert (got.satisfied, got.note) == (want.satisfied, want.note)


def test_deterministic_sample_keeps_the_body_as_given(tmp_path):
    path = tmp_path / "sample.txt"
    write_set_sample(DeterministicFamily(Interval(-0.0, 0.0)).sample(3, SeedSpec(1)), path)
    assert path.read_text(encoding="utf-8").splitlines()[1:] == ["interval -0.0 0.0"] * 3


# -- growth factors -----------------------------------------------------------------

@pytest.mark.parametrize("growth", [math.inf, -math.inf, math.nan])
def test_non_finite_growth_is_rejected(growth):
    with pytest.raises(FamilyError, match="finite"):
        ScaledTemplateFamily(Interval(0, 1), growth=growth)


def test_overflowing_growth_is_an_error_not_a_warning():
    fam = ScaledTemplateFamily(Interval(0, 1), growth=400.0)
    # the variance factor g_k**2 = k**(2 * growth) must stay finite too:
    # 34**200 < 1.8e308 < 35**200
    squared = ScaledTemplateFamily(Interval(0, 1), growth=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fam._scale_variances(1).tolist() == [1.0 / 12.0]
        assert VarianceSchedule.from_family(fam, 1).per_index.tolist() == [[1.0 / 12.0]]
        assert np.isfinite(squared._scale_variances(34)).all()
        assert np.isfinite(VarianceSchedule.from_family(squared, 34).per_index).all()
        for call, n in ((fam._scale_variances, 10), (fam._mean_scales, 10),
                        (squared._scale_variances, 35),
                        (lambda k: VarianceSchedule.from_family(squared, k), 35)):
            with pytest.raises(FamilyError, match="overflows"):
                call(n)
        with pytest.raises(FamilyError, match="overflows"):
            fam.sample(10, SeedSpec(1))
