import concurrent.futures
import csv
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
from setlaw.cli import write_slln_detail_csv
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


def test_slln_median_windows_must_not_overlap():
    # 20 checkpoints: windows of 10 split them, a window of 11 shares one
    fam = EllipsoidIntervalFamily((1.0,), block_dim=4)
    assert len(SllnConfig(fam, 400, 8, SeedSpec(3), median_window=10).checkpoints) == 20
    with pytest.raises(HarnessError, match="median_window must be in \\[1, 10\\]"):
        SllnConfig(fam, 400, 8, SeedSpec(3), median_window=11)
    with pytest.raises(HarnessError, match="median_window"):
        SllnConfig(fam, 400, 8, SeedSpec(3), median_window=0)


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
        assert row.mean_value > math.sqrt(control.variances(row.n).sum()) / row.n


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


@pytest.mark.parametrize("n", [1, 7, 60])
def test_wlln_chunk_bytes_do_not_depend_on_block_size(n, monkeypatch):
    from setlaw import Box, geometry, make_direction_grid
    box = ScaledTemplateFamily(Box((-0.5, 0.0), (1.0, 2.0)), "ar1", rho=0.3,
                               direction_grid=make_direction_grid(2, 16, "uniform_angles_2d"))
    chunks = [(family, n, 19, 5, 45, family.mean_supports(n).mean(axis=0))
              for family in (EllipsoidIntervalFamily((1.0, 2.0)), box)]
    want = [harness._wlln_chunk(chunk).tobytes() for chunk in chunks]
    for elements in (7, 1 << 20):  # one replication per block; one block per chunk
        monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", elements)
        assert [harness._wlln_chunk(chunk).tobytes() for chunk in chunks] == want


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
    # row-major, as the chunks wrote it: column means are summed in memory order
    assert report.detail["square_values"].flags.c_contiguous
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
    # a stand-in executor records the requested size and batch, and starts no process
    requested = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context):
            self.workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, args_list, chunksize):
            requested.append((self.workers, chunksize))
            return map(func, args_list)

    # _map_chunks imports the executor only when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert harness._map_chunks(abs, [-1, -2, -3], 64) == [1, 2, 3]
    assert harness._map_chunks(abs, list(range(-10, 0)), 64) == list(range(10, 0, -1))
    # about four tasks per worker: 125 chunks (slln-block) go as 8 tasks of 16 on 2 workers
    assert harness._map_chunks(abs, list(range(-125, 0)), 2) == list(range(125, 0, -1))
    assert harness._map_chunks(abs, list(range(-17, 0)), 64) == list(range(17, 0, -1))
    assert requested == [(3, 1), (4, 1), (2, 16), (4, 2)]
    # one chunk or one CPU runs in-process without a pool
    assert harness._map_chunks(abs, [-5], 64) == [5]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._map_chunks(abs, [-1, -2], 64) == [1, 2]
    assert len(requested) == 4


# -- strong-law chunk against the pre-vectorization loop -----------------------

def _reference_windowed_medians(values, window):
    if len(values) < window:
        return np.array([float(np.median(values))])
    return np.array([float(np.median(values[i:i + window]))
                     for i in range(len(values) - window + 1)])


def _reference_eventually_decreasing(values, window):
    meds = _reference_windowed_medians(values, window)
    return bool(meds[-1] <= 0.5 * meds[0] + 1e-15)


def _reference_slln_chunk(args):
    """``harness._slln_chunk`` as it was written before it worked on arrays:
    every windowed median, and one Python step per square."""
    family, max_n, master_seed, lo, hi, checkpoints, squares, threshold, window = args
    cps = np.asarray(checkpoints)
    target = family.mean_supports(max_n)
    s_over = np.empty((hi - lo, len(cps)))
    interblock = np.full((hi - lo, len(squares)), np.nan)
    passed = np.empty(hi - lo, dtype=bool)
    for i, p in enumerate(range(lo, hi)):
        rng = SeedSpec(master_seed, p).generator()
        supports = family.support_draws(max_n, rng)
        gap = np.cumsum(supports - target, axis=0)
        s = np.abs(gap).max(axis=1)  # s[k-1] is the cumulative gap at length k
        s_over[i] = s[cps - 1] / cps
        for mi, m in enumerate(squares):
            sq = m * m
            k_hi = min((m + 1) ** 2 - 1, max_n)
            if k_hi > sq:
                interblock[i, mi] = float(np.abs(s[sq:k_hi] - s[sq - 1]).max()) / sq
        passed[i] = s_over[i, -1] < threshold and _reference_eventually_decreasing(
            s_over[i], window)
    return s_over, interblock, passed


def _chunk_args(family, max_n, window, checkpoints=None, threshold=0.05):
    squares = tuple(range(1, math.isqrt(max_n) + 1))
    if checkpoints is None:
        checkpoints = SllnConfig(family, max_n, 1, SEED, median_window=1).checkpoints
    return (family, max_n, 31, 3, 7, tuple(checkpoints), squares, threshold, window)


def _assert_same_chunk(args):
    """The chunk against the reference loop.  Bit for bit on the interval
    family, whose row is (1, 0), and on a deterministic one, whose gaps are 0.
    On a scaled family the chunk multiplies one cumulative scale sum by the
    grid norm, where the loop sums s_k h_T(u) - mu_k h_T(u) per direction, so
    the values may differ by a few rounding steps: at most 8 ulps of the
    largest value, and no verdict moves."""
    new, old = harness._slln_chunk(args), _reference_slln_chunk(args)
    assert len(new) == len(old)
    for a, b in zip(new, old):  # s_over, interblock (NaN included), pass
        # strides too: reductions over a column-major copy round differently
        assert a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides
        if not isinstance(args[0], ScaledTemplateFamily) or a.dtype == bool:
            assert a.tobytes() == b.tobytes()
        else:
            assert np.array_equal(np.isnan(a), np.isnan(b))
            if not np.isnan(b).all():
                ulp = np.spacing(np.nanmax(np.abs(b)))
                assert np.nanmax(np.abs(a - b)) <= 8 * ulp


def _box_family_256(process="iid_uniform", **kwargs):
    from setlaw import Box, make_direction_grid
    grid = make_direction_grid(2, 256, "uniform_angles_2d")
    return ScaledTemplateFamily(Box((-0.5, 0.0), (1.0, 2.0)), process,
                                direction_grid=grid, **kwargs)


_BOXES = [_box_family_256(), _box_family_256("ar1", rho=0.9), _box_family_256(growth=0.3)]
_BOX_IDS = ["box2d-256", "box2d-256-ar1", "box2d-256-growth"]


@pytest.mark.parametrize("family", [
    EllipsoidIntervalFamily((1.0, 2.0), block_dim=16),
    DeterministicFamily(Interval(0, 2)),
    *_BOXES,
], ids=["ellipsoid-interval", "deterministic", *_BOX_IDS])
@pytest.mark.parametrize("max_n", [4, 5, 10, 99, 400, 2500])
def test_slln_chunk_matches_reference_loop(family, max_n):
    n_checkpoints = len(SllnConfig(family, max_n, 1, SEED, median_window=1).checkpoints)
    for window in (1, 4, 5, n_checkpoints + 3):
        # a high threshold lets the median certificate decide path_pass
        for threshold in (0.05, 10.0):
            _assert_same_chunk(_chunk_args(family, max_n, window, threshold=threshold))


@pytest.mark.parametrize("family", [
    EllipsoidIntervalFamily((1.0,), block_dim=4),
    *_BOXES,
], ids=["ellipsoid-interval", *_BOX_IDS])
def test_slln_chunk_matches_reference_loop_on_explicit_checkpoints(family):
    cps = (1, 2, 3, 4, 7, 9, 16, 20, 25, 33, 36, 49, 50)
    for window in (1, 4, 5, 30):
        _assert_same_chunk(_chunk_args(family, 50, window, cps, threshold=10.0))


@pytest.mark.parametrize("family", [
    EllipsoidIntervalFamily((1.0,), block_dim=4),
    DeterministicFamily(Interval(0, 2)),
    _box_family_256("ar1", rho=0.5),
], ids=["ellipsoid-interval", "deterministic", "box2d-256-ar1"])
def test_slln_draws_no_support_table(family, monkeypatch):
    # the strong law reads a family's scales; its support tables are the weak law's
    def refuse(*args, **kwargs):
        raise AssertionError("the strong law drew a support table")

    for attr in ("support_draws", "support_block"):
        monkeypatch.setattr(type(family), attr, refuse)
    report = run_slln(SllnConfig(family, 100, 9, SeedSpec(6)))
    assert report.detail["s_over_n"].shape == (9, 10)


def test_slln_chunk_memory_does_not_grow_with_the_grid():
    # one 8-path chunk to 2 * 10^4 on 256 directions: a (max_n, m) support
    # table alone would be 39 MiB, and the scale path holds a few (8, max_n) arrays
    import tracemalloc
    max_n = 20_000
    family = _box_family_256()
    checkpoints = SllnConfig(family, max_n, 1, SEED, median_window=1).checkpoints
    args = (family, max_n, 31, 0, 8, checkpoints, tuple(range(1, math.isqrt(max_n) + 1)),
            0.05, 5)
    tracemalloc.start()
    try:
        harness._slln_chunk(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_slln_chunk_passes_and_fails_paths_like_the_reference():
    # both verdicts occur here, and each half of the pass rule fails a path:
    # the second path passes on its medians but ends above the threshold,
    # the last one ends below it but fails on its medians
    fam = EllipsoidIntervalFamily((1.0,), block_dim=4)
    strict = _chunk_args(fam, 100, 5, threshold=0.03)
    s_over, _, passed = harness._slln_chunk(strict)
    on_medians = harness._slln_chunk(_chunk_args(fam, 100, 5, threshold=10.0))[2]
    assert passed.tolist() == [False, False, True, False]
    assert on_medians.tolist() == [False, True, True, False]
    assert s_over[1, -1] > 0.03 and s_over[3, -1] < 0.03
    _assert_same_chunk(strict)


def test_slln_detail_csv_rows_are_what_csv_writer_writes(tmp_path):
    nan, inf = float("nan"), float("inf")
    s_over = np.array([[0.5, nan, 0.25, 1e-300], [inf, 2.0, -0.0, 3.0]])
    interblock = np.array([[0.125, inf], [nan, 1.5]])
    report = ConvergenceReport("slln", (), 2, detail={
        "checkpoints": np.array([1, 3, 4, 5]), "s_over_n": s_over,
        "squares": np.array([1, 2]), "interblock_max": interblock})
    write_slln_detail_csv(report, tmp_path / "got.csv")
    with open(tmp_path / "want.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "n", "s_n_over_n", "is_square_checkpoint",
                         "interblock_max"])
        for p in range(2):
            for j, n in enumerate((1, 3, 4, 5)):
                ib = {1: interblock[p, 0], 4: interblock[p, 1]}.get(n)
                ib = repr(float(ib)) if ib is not None and np.isfinite(ib) else ""
                writer.writerow([p, n, repr(float(s_over[p, j])), int(n in (1, 4)), ib])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_experiments_and_statistics_open_no_file(monkeypatch):
    # harness and stats compute; every output file is the CLI's to write
    import builtins
    import io
    from setlaw import test_uncorrelated

    def refuse(*args, **kwargs):
        raise AssertionError(f"open{args!r} called")

    fam = EllipsoidIntervalFamily((1.0,), block_dim=4)
    reps = [fam.sample(4, SeedSpec(3, r)) for r in range(50)]
    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.setattr(io, "open", refuse)
    wlln = run_wlln(WllnConfig(fam, (5, 20), 0.5, 100, SEED))
    slln = run_slln(SllnConfig(fam, 100, 4, SEED))
    assert harness.plot_series(wlln) and harness.plot_series(slln)
    assert test_uncorrelated(reps).verdict in ("consistent", "rejected")
