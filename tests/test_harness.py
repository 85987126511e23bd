import math
import os

import numpy as np
import pytest

from setlaw import (
    ConvergenceReport,
    DeterministicFamily,
    EllipsoidIntervalFamily,
    HarnessError,
    Interval,
    ScaledTemplateFamily,
    SeedSpec,
    SllnConfig,
    WllnConfig,
    compare_bound,
    regenerated_wlln_trajectory,
    run_slln,
    run_wlln,
)
from setlaw import harness
from setlaw.harness import ReportRow

SEED = SeedSpec(42)


# -- configuration validation --------------------------------------------------

def test_wlln_config_validation():
    fam = EllipsoidIntervalFamily((1.0,))
    with pytest.raises(HarnessError):
        WllnConfig(fam, (10, 10), 0.5, 100, SEED)
    with pytest.raises(HarnessError):
        WllnConfig(fam, (100, 10), 0.5, 100, SEED)
    with pytest.raises(HarnessError):
        WllnConfig(fam, (10, 100), -0.5, 100, SEED)
    with pytest.raises(HarnessError):
        WllnConfig(fam, (10, 100), 0.5, 50, SEED)


def test_config_grid_must_restate_family_grid():
    from setlaw import make_direction_grid
    fam = EllipsoidIntervalFamily((1.0,))
    ok = WllnConfig(fam, (10,), 0.5, 100, SEED, grid=fam.grid)
    assert ok.grid == fam.grid
    other = make_direction_grid(2, 8, "uniform_angles_2d")
    with pytest.raises(HarnessError, match="grid"):
        WllnConfig(fam, (10,), 0.5, 100, SEED, grid=other)
    with pytest.raises(HarnessError, match="grid"):
        SllnConfig(fam, 100, 2, SEED, grid=other)


def test_slln_config_checkpoints():
    fam = EllipsoidIntervalFamily((1.0,), block_dim=4)
    cfg = SllnConfig(fam, 100, 2, SEED)
    squares = tuple(m * m for m in range(1, 11))
    assert set(squares) <= set(cfg.checkpoints)
    assert cfg.checkpoints[-1] == 100
    with pytest.raises(HarnessError, match="squares"):
        SllnConfig(fam, 100, 2, SEED, checkpoints=(1, 4, 9, 100))
    with pytest.raises(HarnessError):
        SllnConfig(fam, 100, 2, SEED, checkpoints=squares + (200,))


# -- weak law --------------------------------------------------------------------

def test_deterministic_family_has_zero_gap():
    fam = DeterministicFamily(Interval(1, 3))
    report = run_wlln(WllnConfig(fam, (10, 50), 0.25, 100, SEED))
    for row in report.rows:
        assert row.mean_value == 0.0
        assert row.max_value == 0.0
        assert row.exceed_freq == 0.0
        assert row.bound == 0.0
        assert row.bound_ok is True


@pytest.mark.parametrize("family", [
    EllipsoidIntervalFamily((1.0,), block_dim=5),
    ScaledTemplateFamily(Interval(0, 1), "iid_uniform"),
])
def test_scalar_identity_cross_check(family):
    # for interval families with left endpoint 0 the metric gap must equal
    # |mean(upper) - mean(expected upper)| computed independently from the
    # serialized sample bodies drawn on the same stream
    n, reps = 50, 100
    report = run_wlln(WllnConfig(family, (n,), 0.5, reps, SEED))
    gaps = report.detail[n]
    expected_upper = family.mean_supports(n)[:, 0]
    for r in range(reps):
        sample = family.sample(n, SeedSpec(SEED.master_seed, (n << 20) | r))
        uppers = np.array([b.hi for b in sample.bodies])
        scalar_gap = abs(uppers.mean() - expected_upper.mean())
        assert abs(gaps[r] - scalar_gap) <= 1e-12


def test_mean_gap_decays_with_n():
    fam = EllipsoidIntervalFamily((1.0,))
    report = run_wlln(WllnConfig(fam, (10, 100, 1000), 0.5, 300, SEED))
    means = [row.mean_value for row in report.rows]
    ses = [np.std(report.detail[row.n], ddof=1) / math.sqrt(report.replications)
           for row in report.rows]
    for i in range(len(means) - 1):
        slack = 2.0 * math.hypot(ses[i], ses[i + 1])
        assert means[i + 1] <= means[i] + slack


def test_published_bound_value_at_n_100():
    # re-derivation: with unit axes the upper endpoints have variance
    # 1/(n+2) each, so the tail bound at (n=100, eps=0.5) is
    # 2 * sum Var / (eps*n)^2 = 2 * 100 * (1/102) / (0.5*100)^2
    fam = EllipsoidIntervalFamily((1.0,))
    bound = fam.chebyshev_bound(100, 0.5)
    assert bound == pytest.approx(2.0 * 100.0 / 102.0 / 2500.0, rel=1e-12)
    assert bound == pytest.approx(7.8431372549e-04, rel=1e-9)


def test_compare_bound_rules():
    rows = (ReportRow(10, 0.5, 0.9, 0.9, 1.7, None),
            ReportRow(20, 0.1, 0.2, 0.0, 0.3, None),
            ReportRow(30, 0.5, 0.9, 0.9, 0.001, None))
    report = ConvergenceReport("wlln", rows, 1000, epsilon=0.5)
    out = compare_bound(report)
    assert [row["ok"] for row in out] == [True, True, False]


def test_compare_bound_needs_analytic_bounds():
    rows = (ReportRow(10, 0.0, 0.0, 0.0, None, None),)
    report = ConvergenceReport("wlln", rows, 1000, epsilon=0.5)
    with pytest.raises(HarnessError, match="bound"):
        compare_bound(report)
    with pytest.raises(HarnessError):
        compare_bound(ConvergenceReport("slln", (), 10))


def test_variance_condition_gate_and_override():
    control = ScaledTemplateFamily(Interval(0, 4), "ar1", rho=0.9, growth=0.5)
    cfg = WllnConfig(control, (200, 2000), 0.5, 200, SeedSpec(5))
    with pytest.raises(HarnessError, match="variance condition"):
        run_wlln(cfg)
    report = run_wlln(cfg, enforce_variance_condition=False)
    assert "descriptive" in report.metadata["mode"]
    # negative control: the correlated growing family sits far above the
    # envelope an uncorrelated family with the same variances would obey
    for row in report.rows:
        assert row.mean_value > control.rms_envelope(row.n)


def test_bound_validity_across_configurations():
    # the tail bound is conservative, so every comparison row must be ok
    for axes, eps, master in (((1.0,), 0.5, 61), ((1.0, 2.0), 0.25, 62),
                              ((0.5, 0.5, 2.0), 1.0, 63)):
        fam = EllipsoidIntervalFamily(axes)
        report = run_wlln(WllnConfig(fam, (10, 100), eps, 150, SeedSpec(master)))
        assert all(row["ok"] for row in compare_bound(report))


def test_regenerated_trajectory_under_envelope():
    fam = EllipsoidIntervalFamily((2.5,))
    ns = np.array([2, 5, 10, 100, 1000])
    traj = regenerated_wlln_trajectory(fam, ns)
    assert np.all(traj <= 1.0 / (ns + 2.0) + 1e-12)


def test_wlln_threads_do_not_change_results():
    fam = EllipsoidIntervalFamily((1.0,))
    cfg = WllnConfig(fam, (10, 100), 0.5, 300, SeedSpec(3))
    r1 = run_wlln(cfg, threads=1)
    r2 = run_wlln(cfg, threads=4)
    assert r1.rows == r2.rows
    for n in (10, 100):
        assert np.array_equal(r1.detail[n], r2.detail[n])


# -- strong law -------------------------------------------------------------------

def test_deterministic_family_slln_is_identically_zero():
    fam = DeterministicFamily(Interval(0, 2))
    report = run_slln(SllnConfig(fam, 100, 3, SEED))
    assert np.all(report.detail["s_over_n"] == 0.0)
    assert np.all(report.detail["square_values"] == 0.0)
    assert bool(report.detail["path_pass"].all())


def test_square_checkpoints_are_a_subsequence_of_the_rows():
    fam = EllipsoidIntervalFamily((1.0,), block_dim=4)
    report = run_slln(SllnConfig(fam, 400, 4, SeedSpec(9)))
    cps = list(report.detail["checkpoints"])
    for j, m in enumerate(report.detail["squares"]):
        sq = int(m) ** 2
        col = cps.index(sq)
        assert np.array_equal(report.detail["square_values"][:, j],
                              report.detail["s_over_n"][:, col])


def test_interblock_windows_clip_at_max_n():
    fam = EllipsoidIntervalFamily((1.0,), block_dim=4)
    report = run_slln(SllnConfig(fam, 100, 2, SeedSpec(9)))
    ib = report.detail["interblock_max"]
    assert np.all(np.isfinite(ib[:, :-1]))
    assert np.all(np.isnan(ib[:, -1]))  # window beyond 10^2 = max_n is empty


def test_slln_paths_pass_on_blocked_family():
    fam = EllipsoidIntervalFamily((1.0,), block_dim=16)
    report = run_slln(SllnConfig(fam, 2500, 10, SeedSpec(9)))
    assert bool(report.detail["path_pass"].all())
    assert report.metadata["paths_passed"] == "10/10"


def test_slln_rejects_unbounded_growing_variance():
    control = ScaledTemplateFamily(Interval(0, 4), "ar1", rho=0.9, growth=0.5)
    with pytest.raises(HarnessError, match="strong-law"):
        run_slln(SllnConfig(control, 400, 2, SeedSpec(1)))


def test_slln_threads_do_not_change_results():
    fam = EllipsoidIntervalFamily((1.0,), block_dim=8)
    r1 = run_slln(SllnConfig(fam, 400, 9, SeedSpec(4)), threads=1)
    r2 = run_slln(SllnConfig(fam, 400, 9, SeedSpec(4)), threads=3)
    for key in ("s_over_n", "square_values", "path_pass"):
        assert np.array_equal(r1.detail[key], r2.detail[key])
    assert np.array_equal(r1.detail["interblock_max"],
                          r2.detail["interblock_max"], equal_nan=True)


# -- multi-direction (d >= 2) experiments -------------------------------------

def test_wlln_on_two_dimensional_families():
    from setlaw import Box, make_direction_grid
    grid = make_direction_grid(2, 16, "uniform_angles_2d")
    det = DeterministicFamily(Box((0.0, 0.0), (1.0, 2.0)), grid)
    report = run_wlln(WllnConfig(det, (10, 50), 0.3, 100, SeedSpec(8)))
    assert all(r.mean_value == 0.0 and r.bound == 0.0 for r in report.rows)

    scaled = ScaledTemplateFamily(Box((0.0, 0.0), (1.0, 2.0)), "iid_uniform",
                                  direction_grid=grid)
    report2 = run_wlln(WllnConfig(scaled, (100, 1000), 0.3, 200, SeedSpec(9)))
    means = [r.mean_value for r in report2.rows]
    assert means[1] < means[0]
    assert all(r.bound is None for r in report2.rows)  # no closed-form bound
    with pytest.raises(HarnessError):
        compare_bound(report2)


def test_slln_on_two_dimensional_family():
    from setlaw import Box, make_direction_grid
    grid = make_direction_grid(2, 16, "uniform_angles_2d")
    scaled = ScaledTemplateFamily(Box((0.0, 0.0), (1.0, 2.0)), "iid_uniform",
                                  direction_grid=grid)
    report = run_slln(SllnConfig(scaled, 2500, 5, SeedSpec(11)))
    assert bool(report.detail["path_pass"].all())


def test_pool_size_is_clamped_to_chunks_and_cpus(monkeypatch):
    # a stand-in executor records the requested size and starts no process
    requested = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, args_list):
            return map(func, args_list)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert harness._map_chunks(abs, [-1, -2, -3], 64) == [1, 2, 3]
    assert harness._map_chunks(abs, list(range(-10, 0)), 64) == list(range(10, 0, -1))
    assert requested == [3, 4]
    # one chunk or one CPU runs in-process without a pool
    assert harness._map_chunks(abs, [-5], 64) == [5]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._map_chunks(abs, [-1, -2], 64) == [1, 2]
    assert requested == [3, 4]
