import concurrent.futures
import csv
import math
import os
import sys
import threading

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
    SetSample,
    SllnConfig,
    WllnConfig,
    regenerated_wlln_trajectory,
    run_slln,
    run_wlln,
)
import oracles
from setlaw import harness, sampling
from setlaw.cli import write_slln_detail_csv
from setlaw.geometry import _row_blocks
from setlaw.harness import _STREAM_SHIFT, _bound_ok
from setlaw.sampling import StreamCursor

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
    expected_upper = np.outer(family._mean_scales(n), family._row)[:, 0]
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
    # (exceedance, bound) at R = 1000: a bound above 1 passes; 0.9 is far
    # above 0.001 plus 3 binomial standard errors
    cases = ((0.9, 1.7), (0.0, 0.3), (0.9, 0.001))
    assert [_bound_ok(freq, bound, 1000) for freq, bound in cases] == [True, True, False]


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
        assert row.mean_value > math.sqrt(oracles.variance_table(control, row.n).sum()) / row.n


def test_bound_validity_across_configurations():
    # the tail bound is conservative, so every comparison row must be ok
    for axes, eps, master in (((1.0,), 0.5, 61), ((1.0, 2.0), 0.25, 62),
                              ((0.5, 0.5, 2.0), 1.0, 63)):
        fam = EllipsoidIntervalFamily(axes)
        report = run_wlln(WllnConfig(fam, (10, 100), eps, 150, SeedSpec(master)))
        assert all(row.bound_ok for row in report.rows)


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
    chunks = [(family, n, 19, 5, 45)
              for family in (EllipsoidIntervalFamily((1.0, 2.0)), box)]

    def chunk_bytes():  # the scale sums, and the gaps the run makes of them
        return [(harness._wlln_chunk(chunk).tobytes(),
                 oracles.wlln_chunk_gaps(chunk).tobytes()) for chunk in chunks]

    want = chunk_bytes()
    for elements in (7, 1 << 20):  # one replication per block; one block per chunk
        monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", elements)
        assert chunk_bytes() == want


# -- weak-law chunk against the support-table chunk ---------------------------

def _support_table(family, n, streams, size):
    """(n, size, m) support values of ``size`` draws: their scales times the
    family's support row, length-major and C-contiguous, the layout whose
    reduction over n sums in order."""
    return np.ascontiguousarray(np.multiply.outer(family._scales(n, streams, size).T,
                                                  family._row))


def _reference_wlln_chunk(args):
    """``harness._wlln_chunk`` as it was written over support tables: ``args``
    ends in the mean of the (n, m) table of mean supports."""
    family, n, master_seed, lo, hi, target = args
    cursor = StreamCursor(master_seed)
    out = np.empty(hi - lo)
    for rows in _row_blocks(hi - lo, n * len(target)):
        block = _support_table(
            family, n, lambda i: cursor.at((n << _STREAM_SHIFT) | (lo + rows.start + i)),
            rows.stop - rows.start)
        # sums over n in order, like one replication's (n, m).mean(axis=0);
        # a contiguous 1-D mean would sum pairwise and round differently
        means = np.add.reduce(block, axis=0) / n
        np.abs(means - target).max(axis=1, out=out[rows])
    return out


def _oracle_families():
    from setlaw import Box, make_direction_grid
    grid = make_direction_grid(2, 16, "uniform_angles_2d")
    box = Box((-1.0, -0.5), (0.75, 2.0))
    return {
        "interval-regenerated": EllipsoidIntervalFamily((0.3, 1.7, 1.1)),
        "interval-block7": EllipsoidIntervalFamily((0.3, 1.7, 1.1), block_dim=7),
        "deterministic-box2d": DeterministicFamily(box, grid),
        "ar1-growth-box2d": ScaledTemplateFamily(box, "ar1", rho=0.6, growth=0.25,
                                                 direction_grid=grid),
        "iid-interval": ScaledTemplateFamily(Interval(-1.0, 2.0)),
    }


@pytest.mark.parametrize("name", sorted(_oracle_families()))
@pytest.mark.parametrize("n", [1, 7, 60, 1000])
def test_wlln_chunk_matches_the_support_table_chunk(name, n):
    # bit for bit on interval and deterministic families, whose rows are (1, 0)
    # and whose gaps are 0.  A scaled family's chunk multiplies one scale mean
    # by the grid norm, where the table chunk takes max_u |mean s_k h_u - t_u|,
    # so the two round apart by at most 4 n eps max_u |t_u|; no verdict moves.
    # The chunks (one replication; 65 = 32 + 32 + 1 at n = 1000; 256) end in
    # row blocks of one, which a reduction of the transpose would sum pairwise
    family = _oracle_families()[name]
    table_target = np.outer(family._mean_scales(n), family._row).mean(axis=0)
    scaled = isinstance(family, ScaledTemplateFamily)
    for lo, hi in ((0, 1), (5, 70), (3, 259)):
        new = oracles.wlln_chunk_gaps((family, n, 19, lo, hi))
        old = _reference_wlln_chunk((family, n, 19, lo, hi, table_target))
        assert new.dtype == old.dtype and new.shape == old.shape
        if not scaled:
            assert new.tobytes() == old.tobytes()
            continue
        tol = 4 * n * np.finfo(float).eps * np.abs(table_target).max()
        assert np.abs(new - old).max() <= tol
        for epsilon in (0.05, 0.3):
            assert np.array_equal(new > epsilon, old > epsilon)


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
    # no closed-form bound, so no bound verdict
    assert all(r.bound is None and r.bound_ok is None for r in report2.rows)


def test_slln_on_two_dimensional_family():
    from setlaw import Box, make_direction_grid
    grid = make_direction_grid(2, 16, "uniform_angles_2d")
    scaled = ScaledTemplateFamily(Box((0.0, 0.0), (1.0, 2.0)), "iid_uniform",
                                  direction_grid=grid)
    report = run_slln(SllnConfig(scaled, 2500, 5, SeedSpec(11)))
    assert bool(report.detail["path_pass"].all())


def test_pool_size_is_clamped_to_chunks_and_cpus(monkeypatch):
    # a thread pool that records the size it was asked for
    requested = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            requested.append(max_workers)
            super().__init__(max_workers)

    # _map_chunks imports the executor only when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert harness._map_chunks(abs, [-1, -2, -3], 64) == [1, 2, 3]
    assert harness._map_chunks(abs, list(range(-10, 0)), 64) == list(range(10, 0, -1))
    # slln-block: 125 chunks on 2 workers, results in chunk order
    assert harness._map_chunks(abs, list(range(-125, 0)), 2) == list(range(125, 0, -1))
    assert harness._map_chunks(abs, list(range(-17, 0)), 64) == list(range(17, 0, -1))
    assert requested == [3, 4, 2, 4]
    # one chunk or one CPU runs in the calling thread without a pool
    assert harness._map_chunks(abs, [-5], 64) == [5]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._map_chunks(abs, [-1, -2], 64) == [1, 2]
    assert len(requested) == 4


def _overflow_mode(_):
    return np.geterr()["over"]


def test_chunks_see_the_callers_numpy_error_state(monkeypatch):
    # a worker thread starts in an empty context, where numpy's default "warn" holds
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with np.errstate(over="raise"):
        assert harness._map_chunks(_overflow_mode, range(6), 2) == ["raise"] * 6
    assert harness._map_chunks(_overflow_mode, range(6), 2) == [np.geterr()["over"]] * 6


def test_laws_start_no_process(monkeypatch):
    def no_fork():
        raise AssertionError("a chunk map forked a process")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    fam = EllipsoidIntervalFamily((1.0,), block_dim=4)
    report = run_slln(SllnConfig(fam, 100, 20, SeedSpec(6)), threads=2)
    assert report.metadata["paths_passed"].endswith("/20")
    report = run_wlln(WllnConfig(fam, (10, 100), 0.5, 600, SeedSpec(6)), threads=2)
    assert len(report.detail[100]) == 600


def _fresh_families():
    from setlaw import Box, make_direction_grid
    grid = make_direction_grid(2, 16, "uniform_angles_2d")
    box = Box((-0.5, 0.0), (1.0, 2.0))
    return {
        "interval-block": EllipsoidIntervalFamily((1.0, 0.5), block_dim=7),
        "interval-regenerated": EllipsoidIntervalFamily((1.0, 2.0)),
        "scaled_iid-box": ScaledTemplateFamily(box, "iid_uniform", direction_grid=grid),
        "scaled_ar1": ScaledTemplateFamily(Interval(0.0, 4.0), "ar1", rho=0.5),
        "deterministic": DeterministicFamily(box, grid),
    }


def _report_bytes(report):
    return report.rows, [(k, np.asarray(v).tobytes()) for k, v in report.detail.items()]


def _drop_cursor():
    """Drop the calling thread's stream cursor, so that its next draw builds one."""
    vars(sampling._thread).pop("cursor", None)


@pytest.mark.parametrize("name", sorted(_fresh_families()))
def test_threads_fill_cold_caches_without_changing_bytes(name, monkeypatch):
    # every lazy value a chunk reads (a family's _row, the thread's stream
    # cursor) starts empty, so the threads fill it themselves (in a bare chunk
    # map only the cursor: the constants read _row)

    def cold(threads, run):
        _drop_cursor()
        return run(_fresh_families()[name], threads)

    def laws(family, threads):
        slln = run_slln(SllnConfig(family, 100, 20, SeedSpec(5)), threads=threads)
        wlln = run_wlln(WllnConfig(family, (10, 100), 0.5, 600, SeedSpec(5)),
                        threads=threads)
        return _report_bytes(slln), _report_bytes(wlln)

    checkpoints = SllnConfig(EllipsoidIntervalFamily(), 100, 1, SEED).checkpoints

    def chunks(family, threads):
        # the chunks alone: no run builds a cursor before the pool starts, and
        # the caller's is dropped, so each worker's first chunk builds its own
        constants = harness._slln_constants(family, 100, checkpoints)
        _drop_cursor()
        work = [(family, 100, 5, lo, lo + 2, *constants) for lo in range(0, 16, 2)]
        return [[part.tobytes() for part in (*parts, _pass_flags(parts[0], 0.05, 5))]
                for parts in harness._map_chunks(harness._slln_chunk, work, threads)]

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert cold(2, laws) == cold(1, laws)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert cold(4, chunks) == cold(1, chunks)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("law", ["wlln", "slln"])
def test_chunk_map_builds_at_most_one_cursor_per_worker_thread(law, threads, monkeypatch):
    fam = EllipsoidIntervalFamily((1.0, 2.0), block_dim=7)
    if law == "wlln":
        func, size = harness._wlln_chunk, harness._WLLN_CHUNK
        constants = ()
        head = (fam, 10, 5)
    else:
        func, size = harness._slln_chunk, harness._SLLN_CHUNK
        checkpoints = SllnConfig(fam, 100, 1, SEED).checkpoints
        constants = harness._slln_constants(fam, 100, checkpoints)
        head = (fam, 100, 5)
    chunks = [(*head, lo, lo + size, *constants) for lo in range(0, 8 * size, size)]
    built = []
    original = sampling.StreamCursor.__init__

    def spy(self, master_seed):
        built.append(threading.get_ident())
        original(self, master_seed)

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    _drop_cursor()
    monkeypatch.setattr(sampling.StreamCursor, "__init__", spy)
    harness._map_chunks(func, chunks, threads)
    # the pool's threads all live until the map ends, so their idents differ
    assert len(set(built)) == len(built) and 1 <= len(built) <= threads


def test_law_chunks_carry_only_their_rows(monkeypatch):
    # a weak-law chunk is (family, n, master_seed, lo, hi) and nothing the run
    # computes once per n; a strong-law chunk returns S_n/n and the
    # between-square maxima, and the run applies the pass rule
    fam = EllipsoidIntervalFamily((1.0, 2.0), block_dim=7)
    maps = []
    original = harness._map_chunks

    def spy(func, args_list, threads):
        results = original(func, args_list, threads)
        maps.append((func, args_list, results))
        return results

    monkeypatch.setattr(harness, "_map_chunks", spy)
    reps, paths = 2 * harness._WLLN_CHUNK + 100, 3 * harness._SLLN_CHUNK + 1
    run_wlln(WllnConfig(fam, (10, 100), 0.5, reps, SeedSpec(5)))
    run_slln(SllnConfig(fam, 100, paths, SeedSpec(5)))
    assert [m[0] for m in maps] == [harness._wlln_chunk] * 2 + [harness._slln_chunk]
    (_, wlln_10, _), (_, wlln_100, _), (_, slln, results) = maps
    for n, chunks in ((10, wlln_10), (100, wlln_100)):
        assert all(len(chunk) == 5 and chunk[:3] == (fam, n, 5) for chunk in chunks)
    for chunks, count in ((wlln_10, reps), (wlln_100, reps), (slln, paths)):
        bounds = [0] + [chunk[4] for chunk in chunks]  # consecutive, from 0 to count
        assert [chunk[3:5] for chunk in chunks] == list(zip(bounds, bounds[1:]))
        assert bounds[-1] == count
    for chunk, parts in zip(slln, results):
        assert len(parts) == 2 and all(isinstance(part, np.ndarray) for part in parts)
        assert [len(part) for part in parts] == [chunk[4] - chunk[3]] * 2


@pytest.mark.parametrize("threads", [1, 2])
def test_runs_after_another_draw_on_the_thread_give_a_cold_runs_bytes(threads, monkeypatch):
    fam = EllipsoidIntervalFamily((0.3, 1.7, 1.1), block_dim=7)

    def laws(master):
        slln = run_slln(SllnConfig(fam, 100, 20, SeedSpec(master)), threads=threads)
        wlln = run_wlln(WllnConfig(fam, (10, 100), 0.5, 600, SeedSpec(master)),
                        threads=threads)
        return _report_bytes(slln), _report_bytes(wlln)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _drop_cursor()
    cold = laws(5)
    # a run and a sample at another master seed, and a sample that leaves the
    # cursor mid-stream at this one
    for before in (lambda: laws(6), lambda: fam.sample(9, SeedSpec(6, 3)),
                   lambda: fam.sample(9, SeedSpec(5, 3))):
        before()
        assert laws(5) == cold


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
    target = np.outer(family._mean_scales(max_n), family._row)
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


def _reference_interblock_maxima(s, sq):
    """``harness._interblock_maxima`` as it was written with one ``np.repeat``
    copy of the gap, each length differenced against s at its square."""
    max_n = s.shape[1]
    ends = np.append(sq[1:] - 1, max_n)  # window j is columns sq[j] .. ends[j] - 1
    diff = np.repeat(s[:, sq - 1], ends - sq + 1, axis=1)
    np.abs(np.subtract(s, diff, out=diff), out=diff)
    full = ends > sq  # only the last window can be empty
    starts = np.stack([sq[full], ends[full]], axis=1).ravel()
    windows = np.maximum.reduceat(diff, starts[starts < max_n], axis=1)
    out = np.full((s.shape[0], len(sq)), np.nan)
    out[:, full] = windows[:, ::2] / sq[full]
    return out


@pytest.mark.parametrize("max_n", [4, 5, 8, 9, 10, 99, 100, 101, 2500])
def test_interblock_maxima_equal_the_repeat_version(max_n):
    # rows of gaps, then rows that hold inf (from the last square on, from
    # length 2 on, inside one window, everywhere, so that s_k - s_{m^2} is
    # inf - inf), -inf, NaN, signed zeros and a mix of them
    rng = np.random.default_rng(max_n)
    sq = np.arange(1, math.isqrt(max_n) + 1) ** 2
    s = np.abs(np.cumsum(rng.standard_normal((12, max_n)), axis=1))
    s[1, sq[-1] - 1:] = np.inf
    s[2, 1:] = np.inf
    s[3, max_n // 2] = np.inf
    s[4, max_n // 3] = -np.inf
    s[5, -1] = np.nan
    s[6] = np.inf
    s[7, ::3] = -0.0
    s[8] = rng.choice([0.0, -0.0, 1.0, np.inf, -np.inf], size=max_n)
    with np.errstate(invalid="ignore"):  # inf - inf
        new, old = harness._interblock_maxima(s, sq), _reference_interblock_maxima(s, sq)
    assert new.dtype == old.dtype and new.shape == old.shape
    assert np.array_equal(np.isnan(new), np.isnan(old))
    assert new.tobytes() == old.tobytes()
    assert np.isnan(new[6]).all() and np.isinf(new[3]).any()


@pytest.mark.parametrize("window", range(1, 9))
def test_row_medians_equal_numpy_median(window):
    # ties, signed zeros, infinities of both signs and NaN, many rows at once
    rng = np.random.default_rng(window)
    pool = [0.0, -0.0, 0.5, 1.0, 1.0, -2.0, np.inf, -np.inf, np.nan]
    x = rng.choice(pool, size=(4000, window))
    x[:5] = [-0.0] * window, [0.0] * window, [np.nan] * window, [np.inf] * window, \
        [1.0] * window
    with np.errstate(invalid="ignore"):  # inf + -inf
        got, want = harness._row_medians(x), np.median(x, axis=1)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _chunk_args(family, max_n, checkpoints=None):
    if checkpoints is None:
        checkpoints = SllnConfig(family, max_n, 1, SEED, median_window=1).checkpoints
    return (family, max_n, 31, 3, 7,
            *harness._slln_constants(family, max_n, tuple(checkpoints)))


def _pass_flags(s_over, threshold, window):
    """The pass rule ``run_slln`` applies to its paths' S_n/n once per run."""
    return (s_over[:, -1] < threshold) & harness._eventually_decreasing(s_over, window)


def _chunk_with_pass_flags(args, threshold, window):
    """``harness._slln_chunk(args)`` and the pass flags of its paths."""
    s_over, interblock = harness._slln_chunk(args)
    return s_over, interblock, _pass_flags(s_over, threshold, window)


def _reference_args(args, threshold, window):
    """The reference loop's inputs for the chunk ``args``: the same paths and
    checkpoints, with the squares' roots 1..isqrt(max_n), then the threshold
    and window."""
    family, max_n, seed, lo, hi, cps, *_ = args
    squares = tuple(range(1, math.isqrt(max_n) + 1))
    return (family, max_n, seed, lo, hi, tuple(cps.tolist()), squares, threshold, window)


def _assert_same_chunk(args, threshold, window):
    """The chunk and the run's pass rule against the reference loop.  Bit for
    bit on the interval family, whose row is (1, 0), and on a deterministic
    one, whose gaps are 0.  On a scaled family the chunk multiplies one
    cumulative scale sum by the grid norm, where the loop sums
    s_k h_T(u) - mu_k h_T(u) per direction, so the values may differ by a few
    rounding steps: at most 8 ulps of the largest value, and no verdict moves."""
    new = _chunk_with_pass_flags(args, threshold, window)
    old = _reference_slln_chunk(_reference_args(args, threshold, window))
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
    args = _chunk_args(family, max_n)
    for window in (1, 4, 5, n_checkpoints + 3):
        # a high threshold lets the median certificate decide path_pass
        for threshold in (0.05, 10.0):
            _assert_same_chunk(args, threshold, window)


@pytest.mark.parametrize("family", [
    EllipsoidIntervalFamily((1.0,), block_dim=4),
    *_BOXES,
], ids=["ellipsoid-interval", *_BOX_IDS])
def test_slln_chunk_matches_reference_loop_on_explicit_checkpoints(family):
    cps = (1, 2, 3, 4, 7, 9, 16, 20, 25, 33, 36, 49, 50)
    args = _chunk_args(family, 50, cps)
    for window in (1, 4, 5, 30):
        _assert_same_chunk(args, 10.0, window)


@pytest.mark.parametrize("family", [
    EllipsoidIntervalFamily((1.0,), block_dim=4),
    DeterministicFamily(Interval(0, 2)),
    _box_family_256("ar1", rho=0.5),
], ids=["ellipsoid-interval", "deterministic", "box2d-256-ar1"])
@pytest.mark.parametrize("law", ["wlln", "slln"])
def test_laws_draw_no_support_table(law, family, monkeypatch):
    # both laws read a family's scales; a support table is only for samples
    def refuse(*args, **kwargs):
        raise AssertionError(f"the {law} drew a support table")

    monkeypatch.setattr(type(family), "support_draws", refuse)
    monkeypatch.setattr(SetSample, "supports", refuse)
    if law == "wlln":
        report = run_wlln(WllnConfig(family, (10, 100), 0.5, 300, SeedSpec(6)))
        assert report.detail[100].shape == (300,)
    else:
        report = run_slln(SllnConfig(family, 100, 9, SeedSpec(6)))
        assert report.detail["s_over_n"].shape == (9, 10)


def test_slln_chunk_memory_does_not_grow_with_the_grid():
    # one 8-path chunk to 2 * 10^4 on 256 directions: a (max_n, m) support
    # table alone would be 39 MiB, and the scale path holds a few (8, max_n) arrays
    import tracemalloc
    max_n = 20_000
    family = _box_family_256()
    checkpoints = SllnConfig(family, max_n, 1, SEED, median_window=1).checkpoints
    args = (family, max_n, 31, 0, 8, *harness._slln_constants(family, max_n, checkpoints))
    tracemalloc.start()
    try:
        _chunk_with_pass_flags(args, 0.05, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


_LAW_RUNS = {
    "wlln": lambda fam: run_wlln(WllnConfig(fam, (20_000,), 0.5, 100, SeedSpec(12))),
    "slln": lambda fam: run_slln(SllnConfig(fam, 20_000, 16, SeedSpec(13))),
}


@pytest.mark.parametrize("law", sorted(_LAW_RUNS))
def test_law_run_memory_does_not_grow_with_the_grid(law):
    # 1024 directions to 2 * 10^4: an (n, m) variance schedule alone would be
    # 156 MiB, and its cumulative sum as much again; the one-column schedule,
    # the scale draws and the detail take a few MiB
    import tracemalloc
    from setlaw import Box, make_direction_grid
    grid = make_direction_grid(2, 1024, "uniform_angles_2d")
    family = ScaledTemplateFamily(Box((-1.0, -0.5), (1.0, 2.0)), direction_grid=grid)
    family._row  # the grid embedding, built before the measured window
    tracemalloc.start()
    try:
        report = _LAW_RUNS[law](family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.rows
    assert peak < 16 << 20, f"{peak / 2 ** 20:.1f} MiB"


def test_slln_chunk_passes_and_fails_paths_like_the_reference():
    # both verdicts occur here, and each half of the pass rule fails a path:
    # the second path passes on its medians but ends above the threshold,
    # the last one ends below it but fails on its medians
    fam = EllipsoidIntervalFamily((1.0,), block_dim=4)
    args = _chunk_args(fam, 100)
    s_over, _, passed = _chunk_with_pass_flags(args, 0.03, 5)
    on_medians = _chunk_with_pass_flags(args, 10.0, 5)[2]
    assert passed.tolist() == [False, False, True, False]
    assert on_medians.tolist() == [False, True, True, False]
    assert s_over[1, -1] > 0.03 and s_over[3, -1] < 0.03
    _assert_same_chunk(args, 0.03, 5)


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
