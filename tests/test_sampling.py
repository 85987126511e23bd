import math
import pickle

import numpy as np
import pytest

from setlaw import (
    EllipsoidFamilySpec,
    EllipsoidIntervalFamily,
    FamilyError,
    Interval,
    SeedSpec,
    SetSample,
    interval_family_variances,
    make_generic_family,
    make_interval_family,
    read_set_sample,
    sample_ellipse_pair,
    sample_ellipsoid_uniform,
    support_function,
    uniform_density_constant,
    write_set_sample,
    Direction,
)
from setlaw.harness import _STREAM_SHIFT, _wlln_chunk

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
    assert SeedSpec(123).stream(4) == SeedSpec(123, 4)


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


def test_sqrt_bound_enforcement():
    EllipsoidFamilySpec((1.0, 1.0, 1.7), enforce_sqrt_bound=True)
    with pytest.raises(FamilyError):
        EllipsoidFamilySpec((1.0, 2.0, 3.0), enforce_sqrt_bound=True)


# -- interval family -----------------------------------------------------------

def test_interval_family_endpoints_bounded():
    spec = EllipsoidFamilySpec((1.0, 1.0), shift="to_positive")
    sample = make_interval_family(spec, 2000, SeedSpec(16))
    his = np.array([b.hi for b in sample.bodies])
    assert np.all(his >= 0.0)
    assert np.all(his <= 2.0 + 1e-12)
    assert all(b.lo == 0.0 for b in sample.bodies)


def test_interval_family_expectation_metadata():
    spec = EllipsoidFamilySpec((1.0, 2.0), shift="to_positive")
    sample = make_interval_family(spec, 4, SeedSpec(17))
    assert sample.expectations == (Interval(0, 1), Interval(0, 2),
                                   Interval(0, 1), Interval(0, 2))


def test_interval_family_upper_endpoint_variance():
    n, count = 4, 80_000
    spec = EllipsoidFamilySpec((1.0,) * n, shift="to_positive")
    sample = make_interval_family(spec, count * n, SeedSpec(18))
    his = np.array([b.hi for b in sample.bodies]).reshape(count, n)
    target = interval_family_variances(spec)
    se = _marginal_var_se((1.0,) * n, n, count)
    assert np.all(np.abs(his.var(axis=0, ddof=1) - target) <= 5 * se)


def test_interval_family_requires_positive_shift():
    with pytest.raises(FamilyError, match="to_positive"):
        make_interval_family(EllipsoidFamilySpec((1.0,)), 3, SeedSpec(1))


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


# -- generic scalar families -----------------------------------------------------

def test_iid_family_scales_template():
    sample = make_generic_family(Interval(0, 1), "iid_uniform", 50, SeedSpec(20))
    assert all(isinstance(b, Interval) and b.lo == 0.0 and 0.0 <= b.hi <= 1.0
               for b in sample.bodies)


def test_ar1_lag_one_support_covariance_positive():
    rho, count, reps = 0.9, 2, 4000
    samples = [make_generic_family(Interval(0, 1), "ar1", count, SeedSpec(21, r), rho=rho)
               for r in range(reps)]
    s0 = np.array([support_function(s.bodies[0], UP) for s in samples])
    s1 = np.array([support_function(s.bodies[1], UP) for s in samples])
    cov = np.cov(s0, s1, ddof=1)[0, 1]
    # closed form: Cov(c_0, c_1) = rho * Var(c_0) = rho / 12 for the chain
    # started at a uniform draw; verified against a big brute-force simulation
    target = rho / 12.0
    brute = np.cov(np.array([
        (c.bodies[0].hi, c.bodies[1].hi) for c in
        (make_generic_family(Interval(0, 1), "ar1", 2, SeedSpec(77, r), rho=rho)
         for r in range(20000))]).T, ddof=1)[0, 1]
    assert cov > 0.0
    assert abs(brute - target) <= 5 * (1.0 / 12.0) / math.sqrt(20000) * 3
    assert abs(cov - target) <= 5 * (1.0 / 12.0) / math.sqrt(reps) * 3


def test_ellipsoid_process_reduces_to_interval_family():
    spec = EllipsoidFamilySpec((1.0, 2.0), shift="to_positive")
    via_generic = make_generic_family(Interval(0, 1), "uncorrelated_ellipsoid", 6,
                                      SeedSpec(22), ellipsoid=spec)
    via_family = make_interval_family(spec, 6, SeedSpec(22))
    assert via_generic.bodies == via_family.bodies


def test_negative_scalars_are_signalled():
    with pytest.raises(FamilyError, match="negative"):
        make_generic_family(Interval(0, 1), "ar1", 200, SeedSpec(23), rho=-0.95)


def test_generic_family_validation():
    with pytest.raises(FamilyError):
        make_generic_family(Interval(0, 1), "ar1", 10, SeedSpec(1), rho=1.5)
    with pytest.raises(FamilyError):
        make_generic_family(Interval(0, 1), "no_such_process", 10, SeedSpec(1))
    with pytest.raises(FamilyError):
        make_generic_family(Interval(0, 1), "uncorrelated_ellipsoid", 10, SeedSpec(1))


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


def test_set_sample_validation():
    with pytest.raises(FamilyError):
        SetSample(())
    with pytest.raises(FamilyError):
        SetSample((Interval(0, 1), ), expectations=(Interval(0, 1), Interval(0, 2)))


# -- regenerated family axes ------------------------------------------------------

def test_regenerated_family_clamps_axes_to_sqrt_n():
    fam = EllipsoidIntervalFamily((5.0,))
    axes4 = fam.axes_for(4)
    assert np.allclose(axes4, 2.0)  # sqrt(4) clamp
    axes100 = fam.axes_for(100)
    assert np.allclose(axes100, 5.0)  # 5 <= sqrt(100), no clamp
    assert "min(pattern, sqrt(n))" in fam.describe(4)


# -- per-length spec cache ------------------------------------------------------

def _fresh_gaps(fam, n, master, reps):
    """Weak-law gaps with a spec rebuilt from the pattern at every replication."""
    target = fam.mean_supports(n).mean(axis=0)
    gaps = np.empty(reps)
    for r in range(reps):
        rng = SeedSpec(master, (n << _STREAM_SHIFT) | r).generator()
        d = fam.block_dim if fam.block_dim is not None else n
        axes = np.resize(np.asarray(fam.axes_pattern), d)
        if fam.block_dim is None:
            axes = np.minimum(axes, math.sqrt(d))
        spec = EllipsoidFamilySpec(tuple(axes), shift="to_positive")
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
    target = fam.mean_supports(n).mean(axis=0)
    for _ in range(2):  # the second pass reads a cache the first one filled
        cached = _wlln_chunk((fam, n, 77, 0, reps, target))
        assert np.array_equal(cached, _fresh_gaps(fam, n, 77, reps))


def test_spec_axes_are_read_only():
    spec = EllipsoidIntervalFamily((1.0, 2.0))._spec_for(10)
    assert np.array_equal(spec.axes, np.asarray(spec.semi_axes))
    with pytest.raises(ValueError):
        spec.axes[0] = 5.0


def test_filled_cache_keeps_family_equality_hash_and_pickle():
    a = EllipsoidIntervalFamily((1.0, 2.0), 8)
    b = EllipsoidIntervalFamily((1.0, 2.0), 8)
    size = len(pickle.dumps(a))
    a.support_draws(50, SeedSpec(3).generator())
    a.variances(50)
    assert a._spec_for(50) is b._spec_for(50)
    # same pattern and draw dimension, but only the regenerated spec is clamped
    regen = EllipsoidIntervalFamily((1.0, 5.0))._spec_for(16)
    assert regen.semi_axes != EllipsoidIntervalFamily((1.0, 5.0), 16)._spec_for(16).semi_axes
    assert a == b and hash(a) == hash(b)
    assert len(pickle.dumps(a)) == size
    again = pickle.loads(pickle.dumps(a))
    assert again == a and hash(again) == hash(a)
