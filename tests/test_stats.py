import math
from statistics import NormalDist

import numpy as np
import pytest

from setlaw import (
    Box,
    Direction,
    Ellipsoid,
    EllipsoidFamilySpec,
    EllipsoidIntervalFamily,
    Interval,
    Polytope,
    ScaledTemplateFamily,
    SeedSpec,
    SetSample,
    StatsError,
    UncorrelationVerdict,
    VarianceSchedule,
    aumann_mean_estimate,
    embed,
    empirical_support_covariance,
    evaluate_variance_condition,
    interval_family_variances,
    make_direction_grid,
    minkowski_sum,
    sample_ellipse_pair,
    scalar_mul,
    support_function,
    test_interval_endpoint_reduction,
    test_uncorrelated,
)

UP = Direction((1.0,))
DOWN = Direction((-1.0,))
EXACT_1D = make_direction_grid(1, 2, "exact1d")


# -- support covariance -------------------------------------------------------

def test_identical_deterministic_bodies_have_zero_covariance():
    bodies = [Interval(1, 2)] * 50
    assert empirical_support_covariance(bodies, bodies, UP) == 0.0


def test_shared_endpoint_covariance_matches_uniform_variance():
    count = 40_000
    xi = SeedSpec(3).generator().random(count)
    a = [Interval(0.0, x) for x in xi]
    cov = empirical_support_covariance(a, a, UP)
    # Var of uniform(0,1) is 1/12; SE of the sample variance is
    # sqrt((E[(x-mu)^4] - Var^2) / N) with E[(x-mu)^4] = 1/80
    se = math.sqrt((1.0 / 80.0 - 1.0 / 144.0) / count)
    assert abs(cov - 1.0 / 12.0) <= 5 * se


def test_ellipse_pairs_have_near_zero_covariance():
    count = 50_000
    pts = sample_ellipse_pair(2.0, 3.0, (2.0, 3.0), count, SeedSpec(4))
    a = [Interval(0.0, max(x, 0.0)) for x in pts[:, 0]]
    b = [Interval(0.0, max(y, 0.0)) for y in pts[:, 1]]
    cov = empirical_support_covariance(a, b, UP)
    se = math.sqrt(pts[:, 0].var() * pts[:, 1].var() / count)
    assert abs(cov) <= 5 * se


def test_covariance_symmetry_exact():
    rng = SeedSpec(5).generator()
    a = [Interval(0.0, v) for v in rng.random(200)]
    b = [Interval(-v, 0.0) for v in rng.random(200)]
    assert empirical_support_covariance(a, b, UP) == \
        empirical_support_covariance(b, a, UP)


def test_covariance_scaling_in_first_argument():
    rng = SeedSpec(6).generator()
    a = [Interval(0.0, v) for v in rng.random(300)]
    b = [Interval(0.0, v) for v in rng.random(300)]
    lam = 3.75
    scaled = [scalar_mul(lam, body) for body in a]
    lhs = empirical_support_covariance(scaled, b, UP)
    rhs = lam * empirical_support_covariance(a, b, UP)
    assert abs(lhs - rhs) <= 1e-9


def test_covariance_errors():
    with pytest.raises(StatsError):
        empirical_support_covariance([Interval(0, 1)], [Interval(0, 1)], UP)
    with pytest.raises(StatsError):
        empirical_support_covariance([Interval(0, 1)] * 3, [Interval(0, 1)] * 2, UP)


# -- uncorrelation tests --------------------------------------------------------

def _replications(family, length, reps, master):
    return [family.sample(length, SeedSpec(master, r)) for r in range(reps)]


def test_ellipsoid_interval_family_is_consistent():
    fam = EllipsoidIntervalFamily((1.0,), block_dim=4)
    verdict = test_uncorrelated(_replications(fam, 4, 10_000, 30))
    assert verdict.verdict == "consistent"
    assert verdict.max_abs_corr <= verdict.threshold


def test_ar1_control_family_is_rejected():
    fam = ScaledTemplateFamily(Interval(0, 1), "ar1", rho=0.9)
    verdict = test_uncorrelated(_replications(fam, 5, 3000, 31))
    assert verdict.verdict == "rejected"
    assert verdict.max_abs_corr > 0.5


def test_deterministic_sequence_is_consistent():
    samples = [SetSample((Interval(0, 1), Interval(1, 2), Interval(2, 3)))
               for _ in range(50)]
    verdict = test_uncorrelated(samples)
    assert verdict.verdict == "consistent"
    assert verdict.max_abs_corr == 0.0


def test_verdict_is_read_off_the_correlations():
    pairs = np.array([[0, 1]])
    corr = np.array([[0.25, -0.5]])
    at_threshold = UncorrelationVerdict(0.5, pairs, np.zeros((1, 2)), corr)
    assert at_threshold.max_abs_corr == 0.5 and at_threshold.verdict == "consistent"
    above = UncorrelationVerdict(0.4999, pairs, np.zeros((1, 2)), corr)
    assert above.verdict == "rejected"
    no_pairs = UncorrelationVerdict(0.5, np.empty((0, 2), int), np.empty((0, 3)),
                                    np.empty((0, 3)))
    assert no_pairs.max_abs_corr == 0.0 and no_pairs.verdict == "consistent"


def test_uncorrelated_needs_replications():
    fam = EllipsoidIntervalFamily((1.0,), block_dim=3)
    with pytest.raises(StatsError, match="replications"):
        test_uncorrelated(_replications(fam, 3, 2, 1))


def test_index_pair_covariances_are_verdict_rows_and_schedule_rows():
    """The covariance of indices (k, l) across replications, per direction, is
    the verdict's row for the pair (either order), and for k = l the
    empirical schedule's row k, a variance."""
    from setlaw.stats import _support_tensor
    fam = EllipsoidIntervalFamily((1.0,), block_dim=3)
    reps = _replications(fam, 3, 500, 32)
    tensor = _support_tensor(reps, None)[0]
    centered = tensor - tensor.mean(axis=0)

    def cov(k, l):
        return (centered[:, k] * centered[:, l]).sum(axis=0) / (len(reps) - 1)

    verdict = test_uncorrelated(reps)
    for row, (k, l) in zip(verdict.covariance, verdict.pairs.tolist()):
        assert row.tobytes() == cov(k, l).tobytes() == cov(l, k).tobytes()
    per_index = VarianceSchedule.empirical(reps).per_index
    for k in range(3):
        assert per_index[k].tobytes() == cov(k, k).tobytes()
    assert np.all(per_index >= 0.0)


@pytest.mark.parametrize("family", [
    EllipsoidIntervalFamily((1e200,), block_dim=4),
    ScaledTemplateFamily(Interval(-1e200, 1e200)),
], ids=["ellipsoid-interval", "scaled-interval"])
def test_overflowing_covariances_are_an_error(family):
    """Support values whose products overflow fail the uncorrelation test and
    the empirical schedule, rather than giving a correlation of nan."""
    reps = _replications(family, 4, 50, 1)
    with pytest.raises(StatsError, match="overflow"):
        test_uncorrelated(reps)
    with pytest.raises(StatsError, match="finite"):
        VarianceSchedule.empirical(reps)


# -- endpoint reduction -----------------------------------------------------------

def test_endpoint_reduction_on_uncorrelated_ellipse_pairs():
    pts = sample_ellipse_pair(2.0, 3.0, (2.0, 3.0), 2000, SeedSpec(33))
    pairs = [(Interval(0.0, max(x, 0.0)), Interval(0.0, max(y, 0.0)))
             for x, y in pts]
    assert test_interval_endpoint_reduction(pairs) is True


def test_endpoint_reduction_on_perfectly_correlated_pairs():
    xi = SeedSpec(34).generator().random(2000)
    pairs = [(Interval(x, x + 1.0), Interval(x, x + 2.0)) for x in xi]
    assert test_interval_endpoint_reduction(pairs) is True
    # and the underlying verdicts are both "rejected"
    verdict = test_uncorrelated([SetSample(p) for p in pairs])
    assert verdict.verdict == "rejected"


def test_endpoint_reduction_on_degenerate_pairs():
    pairs = [(Interval(1.0, 1.0), Interval(2.0, 2.0))] * 100
    assert test_interval_endpoint_reduction(pairs) is True
    verdict = test_uncorrelated([SetSample(p) for p in pairs])
    assert verdict.verdict == "consistent"


def test_endpoint_reduction_rejects_non_intervals():
    box_pairs = [(Box((0.0,), (1.0,)), Box((0.0,), (1.0,)))] * 10
    with pytest.raises(StatsError):
        test_interval_endpoint_reduction(box_pairs)


def test_endpoint_reduction_agreement_over_randomized_processes():
    rng = np.random.default_rng(35)
    agreements = 0
    total = 100
    for trial in range(total):
        reps = 200
        mode = trial % 4
        if mode == 0:  # independent uniforms
            x, y = rng.random(reps), rng.random(reps)
        elif mode == 1:  # shared driver, strongly correlated
            x = rng.random(reps)
            y = x * rng.uniform(0.5, 1.5) + rng.normal(0, 0.01, reps)
        elif mode == 2:  # uncorrelated but dependent ellipse coordinates
            pts = sample_ellipse_pair(2.0, 3.0, (2.0, 3.0), reps,
                                      SeedSpec(36, trial))
            x, y = np.maximum(pts[:, 0], 0.0), np.maximum(pts[:, 1], 0.0)
        else:  # anti-correlated
            x = rng.random(reps)
            y = 1.0 - x + rng.normal(0, 0.05, reps)
        widths = rng.uniform(0.0, 1.0, 2)
        pairs = [(Interval(a, a + widths[0]), Interval(b, b + widths[1]))
                 for a, b in zip(x, y)]
        agreements += test_interval_endpoint_reduction(pairs)
    assert agreements == total


# -- aumann mean --------------------------------------------------------------

def test_aumann_mean_of_two_intervals():
    sample = SetSample((Interval(0, 1), Interval(0, 3)))
    est = aumann_mean_estimate(sample)
    assert np.array_equal(est.support.values, [2.0, 0.0])  # the interval [0, 2]


def test_aumann_mean_of_single_body_is_its_embedding():
    grid = make_direction_grid(2, 16, "uniform_angles_2d")
    body = Box((0.0, -1.0), (2.0, 1.0))
    est = aumann_mean_estimate(SetSample((body,)), grid)
    assert np.array_equal(est.support.values, embed(body, grid).values)


def test_aumann_mean_matches_family_expectation_at_large_n():
    n = 4000
    fam = EllipsoidIntervalFamily((1.0,))
    sample = fam.sample(n, SeedSpec(37))
    est = aumann_mean_estimate(sample)
    # upper endpoints have variance 1/(n+2) each and are uncorrelated, so
    # the mean has standard error sqrt(n/(n+2))/n
    se = math.sqrt(n / (n + 2.0)) / n
    assert abs(est.support.values[0] - 1.0) <= 5 * se
    assert est.support.values[1] == 0.0


def test_support_mean_equals_exact_minkowski_average_fold():
    rng = np.random.default_rng(38)
    grid = make_direction_grid(2, 32, "uniform_angles_2d")
    bodies = []
    for _ in range(12):
        kind = rng.integers(0, 2)
        if kind == 0:
            lo = rng.uniform(-2, 0, 2)
            bodies.append(Box(tuple(lo), tuple(lo + rng.uniform(0, 2, 2))))
        else:
            bodies.append(Polytope(rng.uniform(-2, 2, (4, 2))))
    sample = SetSample(tuple(bodies))
    est = aumann_mean_estimate(sample, grid)
    folded = bodies[0]
    for b in bodies[1:]:
        folded = minkowski_sum(folded, b, grid)
    averaged = scalar_mul(1.0 / len(bodies), folded)
    fold_values = embed(averaged, grid).values
    assert np.all(np.abs(est.support.values - fold_values) <= 1e-9)


def test_aumann_mean_errors():
    with pytest.raises(StatsError):
        aumann_mean_estimate(SetSample((Box((0.0, 0.0), (1.0, 1.0)),)))


# -- variance conditions ----------------------------------------------------------

def test_constant_variance_trajectory_is_exactly_m_over_n():
    m_const = 0.3
    schedule = VarianceSchedule(EXACT_1D, np.full(1000, m_const))
    result = evaluate_variance_condition(schedule, "wlln_eq4")
    n = np.arange(1, 1001, dtype=float)
    assert np.all(np.abs(result.trajectory - m_const / n) <= 1e-12)
    assert result.satisfied


def test_linear_variance_fails_quadratic_mean_condition():
    schedule = VarianceSchedule(EXACT_1D, np.arange(1.0, 1001.0))
    result = evaluate_variance_condition(schedule, "wlln_eq4")
    assert result.trajectory[-1] == pytest.approx(0.5, abs=1e-3)
    assert not result.satisfied


def test_family_schedule_stays_under_envelope():
    for n in (5, 17, 64, 200):
        spec = EllipsoidFamilySpec((1.0,) * n)
        schedule = VarianceSchedule(EXACT_1D,
                                    np.column_stack([interval_family_variances(spec),
                                                     np.zeros(n)]))
        result = evaluate_variance_condition(schedule, "wlln_eq4")
        assert result.trajectory[-1] <= 1.0 / (n + 2.0) + 1e-12


def test_bounded_condition():
    schedule = VarianceSchedule(EXACT_1D, np.full(100, 0.25))
    assert evaluate_variance_condition(schedule, "slln_bounded", bound=0.25).satisfied
    assert not evaluate_variance_condition(schedule, "slln_bounded", bound=0.2).satisfied
    for bound in (None, math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(StatsError, match="positive finite bound"):
            evaluate_variance_condition(schedule, "slln_bounded", bound=bound)


@pytest.mark.parametrize("kind,count", [("wlln_eq4", 2), ("slln_log2", 1000)])
def test_variance_sums_that_overflow_are_an_error(kind, count):
    # the weights log^2(k) / k^2 sum to 1.93 over k <= 1000, so 1e308 overflows there
    schedule = VarianceSchedule(EXACT_1D, np.full(count, 1e308))
    with pytest.raises(StatsError, match="variance sums overflow"):
        evaluate_variance_condition(schedule, kind)


def test_log2_condition_convergent_vs_divergent():
    convergent = VarianceSchedule(EXACT_1D, np.full(3000, 1.0))
    assert evaluate_variance_condition(convergent, "slln_log2").satisfied
    divergent = VarianceSchedule(EXACT_1D, 50.0 * np.arange(1.0, 3001.0))
    assert not evaluate_variance_condition(divergent, "slln_log2").satisfied


@pytest.mark.parametrize("tail_window", [0, -3])
def test_log2_condition_needs_a_positive_tail_window(tail_window):
    schedule = VarianceSchedule(EXACT_1D, np.full(50, 1.0))
    with pytest.raises(StatsError, match="tail_window"):
        evaluate_variance_condition(schedule, "slln_log2", tail_window=tail_window)


def test_log2_condition_needs_two_entries():
    # log^2(1) = 0: a one-entry schedule would pass on a tail of no terms
    with pytest.raises(StatsError, match="at least 2"):
        evaluate_variance_condition(VarianceSchedule(EXACT_1D, np.array([5.0])), "slln_log2")
    two = evaluate_variance_condition(VarianceSchedule(EXACT_1D, np.array([5.0, 5.0])),
                                      "slln_log2")
    assert "over last 1 terms" in two.note


def test_schedule_validation():
    with pytest.raises(StatsError):
        VarianceSchedule(EXACT_1D, np.array([1.0, -0.5]))
    with pytest.raises(StatsError):
        VarianceSchedule(EXACT_1D, np.array([1.0, math.nan]))
    with pytest.raises(StatsError):
        evaluate_variance_condition(
            VarianceSchedule(EXACT_1D, np.ones(5)), "no_such_kind")


def test_non_finite_support_values_raise():
    with pytest.raises((StatsError, ValueError)):
        empirical_support_covariance(
            [Interval(0, 1)] * 3,
            [Interval(0, 1)] * 3,
            Direction((float("nan"),)))


def test_empirical_schedule_is_the_unbiased_sample_variance():
    from setlaw.stats import _support_tensor
    grid = make_direction_grid(2, 16, "uniform_angles_2d")
    fam = ScaledTemplateFamily(Box((-1.0, -0.5), (1.0, 2.0)), "ar1", rho=0.6,
                               direction_grid=grid)
    reps = [fam.sample(6, SeedSpec(41, r)) for r in range(40)]
    want = _support_tensor(reps, grid)[0].var(axis=0, ddof=1)
    got = VarianceSchedule.empirical(reps, grid).per_index
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_empirical_schedule_approximates_analytic_variances():
    fam = EllipsoidIntervalFamily((1.0,), block_dim=4)
    reps = [fam.sample(4, SeedSpec(40, r)) for r in range(5000)]
    schedule = VarianceSchedule.empirical(reps)
    analytic = fam.variances(4)
    # SE of a sample variance is roughly Var * sqrt(2/R); allow 6 of those
    slack = 6.0 * analytic[:, 0].max() * math.sqrt(2.0 / 5000.0)
    assert np.all(np.abs(schedule.per_index - analytic) <= slack)


# -- array-based support tensor and uncorrelation test ----------------------------

def _scalar_support(body, u):
    """Pre-vectorization scalar closed forms of intervals and boxes."""
    if isinstance(body, Interval):
        c = u.components[0]
        return body.hi * c if c > 0.0 else body.lo * c
    total = 0.0
    for c, lo, hi in zip(u.components, body.lo, body.hi):
        total += hi * c if c > 0.0 else lo * c
    return total


def _reference_tensor(reps, grid, support):
    return np.array([[[support(body, u) for u in grid] for body in rep.bodies]
                     for rep in reps])


def _drawn_tensor(family, length, reps, master):
    """(R, L, m) rows of ``support_block`` on the streams ``_replications`` uses."""
    gens = [SeedSpec(master, r).generator() for r in range(reps)]
    return np.stack([family.support_block(length, lambda _row: gen, 1)[:, 0] for gen in gens])


def test_support_tensor_matches_scalar_triple_loop():
    from setlaw.stats import _support_tensor
    grid = make_direction_grid(2, 24, "uniform_angles_2d")
    box = ScaledTemplateFamily(Box((-1.5, -0.25), (0.75, 2.0)), direction_grid=grid)
    reps = _replications(box, 6, 9, 60)
    tensor, used = _support_tensor(reps, grid)
    assert used is grid
    # a family sample gives its support_block draw, c_k h_T(u), bit for bit
    assert tensor.tobytes() == _drawn_tensor(box, 6, 9, 60).tobytes()
    # samples built by hand from the same bodies c_k T give the scalar loop's bytes
    by_hand = [SetSample(rep.bodies) for rep in reps]
    bodies, _ = _support_tensor(by_hand, grid)
    assert bodies.tobytes() == _reference_tensor(by_hand, grid, _scalar_support).tobytes()
    # h_{cT}(u) rounds on its own: within 4 ulps of the largest |h| of each body
    ulp = np.spacing(np.abs(bodies).max(axis=2, keepdims=True))
    assert np.all(np.abs(tensor - bodies) <= 4 * ulp)

    # zero bounds give -0.0 terms; the scalar sum starting at 0.0 makes them +0.0
    zeros = [SetSample((Box((0.0, 0.0), (1.0, 2.0)), Box((0.0, -1.0), (0.0, 0.0))))] * 3
    tensor, _ = _support_tensor(zeros, grid)
    assert tensor.tobytes() == _reference_tensor(zeros, grid, _scalar_support).tobytes()

    # in 1-D the family draw and the body loop agree (up to the sign of a zero)
    for family in (EllipsoidIntervalFamily((1.0, 2.0), block_dim=3),
                   ScaledTemplateFamily(Interval(-1.0, 2.0), "ar1", rho=0.5, growth=0.25)):
        intervals = _replications(family, 8, 3, 61)
        tensor, _ = _support_tensor(intervals, None)
        assert tensor.tobytes() == _drawn_tensor(family, 8, 3, 61).tobytes()
        by_hand = [SetSample(rep.bodies) for rep in intervals]
        bodies, _ = _support_tensor(by_hand, None)
        assert bodies.tobytes() == _reference_tensor(by_hand, EXACT_1D,
                                                     _scalar_support).tobytes()
        assert np.array_equal(tensor, bodies)

    rng = np.random.default_rng(62)
    mixed = [SetSample((Polytope(rng.uniform(-1, 1, (4, 2))),
                        Box((0.0, 0.0), tuple(rng.uniform(0, 1, 2))),
                        Ellipsoid(tuple(rng.uniform(-1, 1, 2)), (0.5, 1.5))))
             for _ in range(5)]
    tensor, _ = _support_tensor(mixed, grid)
    assert tensor.tobytes() == _reference_tensor(mixed, grid, support_function).tobytes()


def test_threshold_whose_quantile_rounds_to_one_is_an_error():
    from setlaw.stats import _corr_threshold
    want = NormalDist().inv_cdf(1.0 - 0.05 / 12 / 2.0) / math.sqrt(30)
    assert _corr_threshold(0.05, 12, 30) == want
    assert math.isfinite(_corr_threshold(2e-16, 1, 30))
    for significance in (1e-17, 5e-324):
        with pytest.raises(StatsError, match="significance"):
            _corr_threshold(significance, 12, 30)


def _reference_cells(tensor, significance):
    """Per-cell loop: centered dot products, zero variance -> 0, clamp to [-1, 1]."""
    n_reps, length, n_dirs = tensor.shape
    centered = tensor - tensor.mean(axis=0)
    n_tests = (length * (length - 1) // 2) * n_dirs
    z = NormalDist().inv_cdf(1.0 - significance / max(n_tests, 1) / 2.0)
    threshold = z / math.sqrt(n_reps)
    cells = []
    for k in range(length):
        for l in range(k + 1, length):
            for j in range(n_dirs):
                x, y = centered[:, k, j], centered[:, l, j]
                cov = float(np.dot(x, y) / (n_reps - 1))
                vx = float(np.dot(x, x) / (n_reps - 1))
                vy = float(np.dot(y, y) / (n_reps - 1))
                denom = math.sqrt(vx * vy) if vx > 0.0 and vy > 0.0 else 0.0
                corr = 0.0 if denom <= 0.0 else max(-1.0, min(1.0, cov / denom))
                cells.append((k, l, j, cov, corr, math.sqrt(vx * vy)))
    return threshold, cells


@pytest.mark.parametrize("case", ["box2d", "ar1", "ellipsoid"])
def test_uncorrelated_matches_per_cell_reference(case):
    from setlaw.stats import _support_tensor
    grid = make_direction_grid(2, 16, "uniform_angles_2d")
    if case == "box2d":
        fam = ScaledTemplateFamily(Box((-1.0, -0.5), (2.0, 1.0)), direction_grid=grid)
        reps, use_grid = _replications(fam, 6, 80, 63), grid
    elif case == "ar1":
        fam = ScaledTemplateFamily(Interval(0, 1), "ar1", rho=0.9)
        reps, use_grid = _replications(fam, 5, 300, 64), None
    else:
        fam = EllipsoidIntervalFamily((1.0,), block_dim=4)
        reps, use_grid = _replications(fam, 4, 200, 65), None
    verdict = test_uncorrelated(reps, use_grid, significance=0.05)
    threshold, cells = _reference_cells(_support_tensor(reps, use_grid)[0], 0.05)
    assert verdict.threshold == threshold
    n_dirs = verdict.covariance.shape[1]
    assert len(cells) == verdict.covariance.size
    for p, (k, l, j, cov, corr, scale) in enumerate(cells):
        assert tuple(verdict.pairs[p // n_dirs]) == (k, l) and p % n_dirs == j
        got_cov = verdict.covariance.flat[p]
        got_corr = verdict.correlation.flat[p]
        assert abs(got_cov - cov) <= 1e-12 * max(abs(cov), scale)
        assert abs(got_corr - corr) <= 1e-12
        assert verdict.rejected.flat[p] == (abs(corr) > threshold)
    max_abs = max(abs(c[4]) for c in cells)
    assert verdict.max_abs_corr == pytest.approx(max_abs, abs=1e-12)
    assert verdict.verdict == ("rejected" if max_abs > threshold else "consistent")


def test_uncorrelated_zero_variance_and_perfect_correlation():
    xi = SeedSpec(66).generator().random(40)
    # f = {x} and g = {-2x}: every support pair is exactly anti-proportional;
    # h = [0, 1] is constant, so its cells have zero variance
    samples = [SetSample((Interval(x, x), Interval(-2 * x, -2 * x), Interval(0, 1)))
               for x in xi]
    verdict = test_uncorrelated(samples)
    assert [tuple(p) for p in verdict.pairs] == [(0, 1), (0, 2), (1, 2)]
    assert np.array_equal(verdict.correlation[0], [-1.0, -1.0])
    assert np.array_equal(verdict.correlation[1:], np.zeros((2, 2)))
    assert np.array_equal(verdict.covariance[1:], np.zeros((2, 2)))
    assert verdict.max_abs_corr == 1.0 and verdict.verdict == "rejected"
    assert verdict.rejected.tolist() == [[True, True], [False, False], [False, False]]


def test_verdict_csv_rows_follow_the_arrays(tmp_path):
    from setlaw.cli import write_verdict_csv
    fam = ScaledTemplateFamily(Interval(0, 1), "ar1", rho=0.5)
    verdict = test_uncorrelated(_replications(fam, 3, 50, 67))
    path = tmp_path / "uncorrelation.csv"
    write_verdict_csv(verdict, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,l,direction,covariance,correlation,threshold,flag"
    assert len(lines) == 1 + verdict.correlation.size
    # after the header, pair (0, 1) fills two rows; pair (0, 2) starts on line 3
    k, l, j, cov, corr, thr, flag = lines[3].split(",")
    assert (k, l, j) == ("0", "2", "0")
    assert float(cov) == verdict.covariance[1, 0]
    assert float(corr) == verdict.correlation[1, 0]
    assert float(thr) == verdict.threshold
    assert flag == str(int(verdict.rejected[1, 0]))


def test_verdict_csv_is_what_csv_writer_writes(tmp_path):
    import csv
    from setlaw.cli import write_verdict_csv
    nan, inf = float("nan"), float("inf")
    corr = np.array([[nan, inf, -inf, -0.0], [1e-300, 0.25, -0.75, 1.0]])
    cov = np.array([[-0.0, 1e-300, nan, inf], [-inf, 3.5, -1e-300, 0.0]])
    verdict = UncorrelationVerdict(0.5, np.array([[0, 1], [1, 2]]), cov, corr)
    write_verdict_csv(verdict, tmp_path / "got.csv")
    with open(tmp_path / "want.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "l", "direction", "covariance", "correlation",
                         "threshold", "flag"])
        for p, (k, l) in enumerate(((0, 1), (1, 2))):
            for j in range(4):
                writer.writerow([k, l, j, repr(float(cov[p, j])), repr(float(corr[p, j])),
                                 repr(0.5), int(abs(corr[p, j]) > 0.5)])
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert b",nan,0.5,0\r\n" in got and b",-0.0,0.5,0\r\n" in got  # both cases ran


def test_verdicts_compare_by_value():
    fam = ScaledTemplateFamily(Interval(0, 1), "ar1", rho=0.5)
    reps = _replications(fam, 3, 50, 68)
    verdict = test_uncorrelated(reps)
    assert verdict == test_uncorrelated(reps)
    changed = verdict.correlation.copy()
    changed[0, 0] = 0.5 * changed[0, 0] + 0.25
    assert verdict != UncorrelationVerdict(verdict.threshold, verdict.pairs,
                                           verdict.covariance, changed)
