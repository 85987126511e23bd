"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from setlaw import (
    EllipsoidFamilySpec,
    EllipsoidIntervalFamily,
    Interval,
    Polytope,
    ScaledTemplateFamily,
    SeedSpec,
    SllnConfig,
    VarianceSchedule,
    WllnConfig,
    compare_bound,
    evaluate_variance_condition,
    hausdorff_distance,
    make_direction_grid,
    regenerated_wlln_trajectory,
    run_slln,
    run_wlln,
    sample_ellipse_pair,
    sample_ellipsoid_uniform,
    test_interval_endpoint_reduction,
    uniform_density_constant,
)
import oracles

EXACT_1D = make_direction_grid(1, 2, "exact1d")


def _report(ok: bool, label: str):
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


# -- criterion 1: ellipsoid moments -------------------------------------------

def test_criterion_1_ellipsoid_moments():
    t0 = time.perf_counter()
    n, count = 3, 100_000
    axes = (1.0, 2.0, 3.0)
    x = sample_ellipsoid_uniform(EllipsoidFamilySpec(axes), count, SeedSpec(1001))
    target = np.asarray(axes) ** 2 / (n + 2.0)
    # SE of the sample variance from the exact marginal moments:
    # E Z^2 = 1/(n+2), E Z^4 = 3/((n+2)(n+4)) for the unit-ball marginal
    ez2, ez4 = 1.0 / (n + 2.0), 3.0 / ((n + 2.0) * (n + 4.0))
    se = np.asarray(axes) ** 2 * math.sqrt((ez4 - ez2 ** 2) / count)
    var_ok = bool(np.all(np.abs(x.var(axis=0, ddof=1) - target) <= 5 * se))
    corr = np.corrcoef(x.T)
    corr_ok = bool(np.all(np.abs(corr[np.triu_indices(n, 1)]) <= 3.0 / math.sqrt(count)))
    elapsed = time.perf_counter() - t0
    _report(var_ok and corr_ok and elapsed < 5.0,
            f"criterion 1: ellipsoid moments (var_ok={var_ok} corr_ok={corr_ok} "
            f"runtime={elapsed:.2f}s < 5s)")


# -- criterion 2: density normalization ----------------------------------------

def test_criterion_2_density_normalization():
    spec = EllipsoidFamilySpec((1.0, 1.0))
    const_ok = abs(uniform_density_constant(spec) - 1.0 / math.pi) <= 1e-15

    count = 100_000
    rng = SeedSpec(1002).generator()
    box_points = rng.uniform(-1.0, 1.0, size=(count, 2))
    hit = float(np.mean((box_points ** 2).sum(axis=1) <= 1.0))
    se = math.sqrt(hit * (1.0 - hit) / count)
    hit_ok = abs(hit - math.pi / 4.0) <= 3.0 * se
    _report(const_ok and hit_ok,
            f"criterion 2: density constant == 1/pi and hit rate {hit:.5f} "
            f"within 3 SE of pi/4")


# -- criterion 3: endpoint-reduction property suite ------------------------------

def test_criterion_3_endpoint_reduction_suite():
    rng = np.random.default_rng(1003)
    reps = 256
    agreements = 0
    total = 500
    for trial in range(total):
        mode = trial % 5
        if mode == 0:
            # the uncorrelated-but-dependent ellipse construction
            pts = sample_ellipse_pair(2.0, 3.0, (2.0, 3.0), reps, SeedSpec(1004, trial))
            x, y = pts[:, 0], pts[:, 1]
        elif mode == 1:
            x, y = rng.random(reps), rng.random(reps)
        elif mode == 2:
            x = rng.random(reps)
            y = rng.uniform(0.5, 2.0) * x + rng.normal(0.0, 0.02, reps)
        elif mode == 3:
            x = rng.random(reps)
            y = -x + rng.normal(0.0, rng.uniform(0.01, 0.5), reps)
        else:
            shared = rng.random(reps)
            x = shared + rng.normal(0.0, rng.uniform(0.05, 1.0), reps)
            y = shared + rng.normal(0.0, rng.uniform(0.05, 1.0), reps)
        w1, w2 = rng.uniform(0.0, 2.0, 2)
        pairs = [(Interval(a, a + w1), Interval(b, b + w2)) for a, b in zip(x, y)]
        agreements += test_interval_endpoint_reduction(pairs)
    _report(agreements == total,
            f"criterion 3: support-vs-endpoint verdicts agree on "
            f"{agreements}/{total} randomized interval-pair processes")


# -- criterion 4: weak-law bound ---------------------------------------------------

def test_criterion_4_wlln_bound():
    t0 = time.perf_counter()
    family = EllipsoidIntervalFamily((1.0,))
    config = WllnConfig(family, (10, 100, 1000), 0.5, 10_000, SeedSpec(1005))
    report = run_wlln(config)
    rows = compare_bound(report)
    bound_ok = all(row["ok"] for row in rows)
    final_count = int(np.count_nonzero(report.detail[1000] > config.epsilon))
    elapsed = time.perf_counter() - t0
    _report(bound_ok and final_count == 0 and elapsed < 60.0,
            f"criterion 4: exceedance <= bound+3SE at all n (ok={bound_ok}), "
            f"count at n=1000 is {final_count}, runtime={elapsed:.1f}s < 60s")


def test_criterion_4_negative_control_bound_check_can_fail():
    # the bound sums per-index variances, which is valid only for
    # uncorrelated summands; an AR(1) chain with rho = 0.9 makes the mean's
    # variance about (1 + rho)/(1 - rho) = 19 times larger, so with epsilon
    # set for a bound of 0.05 about 0.31 of the replications exceed it
    family = ScaledTemplateFamily(Interval(0.0, 4.0), "ar1", rho=0.9)
    n = 1000
    epsilon = math.sqrt(family.chebyshev_bound(n, 1.0) / 0.05)
    assert family.chebyshev_bound(n, epsilon) == pytest.approx(0.05)
    report = run_wlln(WllnConfig(family, (n,), epsilon, 2000, SeedSpec(1012)))
    row = report.rows[0]
    _report(row.bound_ok is False and not compare_bound(report)[0]["ok"],
            f"criterion 4 negative control: ar1 rho=0.9 exceedance "
            f"{row.exceed_freq:.3g} vs bound {row.bound:.3g} flagged (ok={row.bound_ok})")


# -- criterion 5: weak-law decay ----------------------------------------------------

def test_criterion_5_wlln_decay():
    family = EllipsoidIntervalFamily((1.0,))
    config = WllnConfig(family, (10, 100, 1000, 10_000), 0.5, 400, SeedSpec(1006))
    # threshold calibration from the scalar identity: the gap is
    # |mean(Y) - 1| with Var <= (1/n^2) * n * (1/3), so its SD at
    # n = 10^4 is at most 1/sqrt(3n) ~ 0.0058 and 0.02 sits beyond 3 SD
    assert 0.02 > 3.0 / math.sqrt(3.0 * 10_000)
    report = run_wlln(config)
    means = [row.mean_value for row in report.rows]
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    final_ok = means[-1] < 0.02
    _report(decreasing and final_ok,
            f"criterion 5: mean gap decreases {['%.3g' % m for m in means]} "
            f"and final {means[-1]:.3g} < 0.02")


# -- criterion 6: strong-law path check ----------------------------------------------

def test_criterion_6_slln_paths():
    t0 = time.perf_counter()
    family = EllipsoidIntervalFamily((1.0,), block_dim=16)
    # threshold calibration: S_n/n = |mean(Y) - 1| whose SD is at most
    # 1/sqrt(3n) ~ 0.0058 at the final checkpoint; 0.05 is ~8.6 SD out
    assert 0.05 > 5.0 / math.sqrt(3.0 * 10_000)
    config = SllnConfig(family, 10_000, 50, SeedSpec(1007), threshold=0.05)
    report = run_slln(config)
    detail = report.detail
    finals = detail["s_over_n"][:, -1]
    finals_ok = bool(np.all(finals < 0.05))
    square_final = detail["square_values"][:, -1]  # m = 100, n = 10^4
    square_ok = bool(np.all(square_final < 0.05))
    ib = detail["interblock_max"]
    complete = [j for j in range(ib.shape[1]) if np.all(np.isfinite(ib[:, j]))]
    ib_final = ib[:, complete[-1]]  # last square with a nonempty window (m=99)
    ib_ok = bool(np.all(ib_final < 0.05))
    elapsed = time.perf_counter() - t0
    _report(finals_ok and square_ok and ib_ok and elapsed < 120.0,
            f"criterion 6: all 50 paths final {finals.max():.4f} < 0.05, "
            f"square subseq {square_final.max():.4f} < 0.05, interblock "
            f"{ib_final.max():.4f} < 0.05, runtime={elapsed:.1f}s < 120s")


# -- criterion 7: variance-condition evaluator ----------------------------------------

def test_criterion_7_variance_conditions():
    m_const = 0.7
    n_max = 1000
    const = evaluate_variance_condition(
        VarianceSchedule(EXACT_1D, np.full(n_max, m_const)), "wlln_eq4")
    n = np.arange(1, n_max + 1, dtype=float)
    const_ok = bool(np.all(np.abs(const.trajectory - m_const / n) <= 1e-12)) \
        and const.satisfied

    linear = evaluate_variance_condition(
        VarianceSchedule(EXACT_1D, np.arange(1.0, n_max + 1.0)), "wlln_eq4")
    linear_ok = abs(linear.trajectory[-1] - 0.5) <= 1e-3 and not linear.satisfied

    family = EllipsoidIntervalFamily((1.0, 2.0))  # clamped to sqrt(n) early on
    ns = np.arange(2, 501)
    traj = regenerated_wlln_trajectory(family, ns)
    envelope_ok = bool(np.all(traj <= 1.0 / (ns + 2.0) + 1e-12))
    _report(const_ok and linear_ok and envelope_ok,
            f"criterion 7: M/n exact ({const_ok}), linear-variance verdict "
            f"not-satisfied at limit {linear.trajectory[-1]:.4f} ({linear_ok}), "
            f"family trajectory under 1/(n+2) ({envelope_ok})")


# -- criterion 8: geometry oracle equivalence ------------------------------------------

def test_criterion_8_geometry_oracles():
    rng = np.random.default_rng(1008)
    grid = make_direction_grid(2, 4096, "uniform_angles_2d")
    worst_rel = 0.0
    smallest = math.inf
    for _ in range(200):
        center_a = rng.uniform(-1.0, 1.0, 2)
        center_b = center_a + rng.uniform(1.5, 3.0) * _unit(rng)
        hull_a = oracles.random_convex_polygon(rng, center_a, rng.uniform(0.5, 1.2))
        hull_b = oracles.random_convex_polygon(rng, center_b, rng.uniform(0.5, 1.2))
        got = hausdorff_distance(Polytope(hull_a), Polytope(hull_b), grid)
        want = oracles.polygon_hausdorff(hull_a, hull_b, samples=100_000)
        smallest = min(smallest, want)
        worst_rel = max(worst_rel, abs(got - want) / want)
    polygons_ok = worst_rel <= 1e-2 and smallest > 0.05

    rng2 = np.random.default_rng(1009)
    axioms_ok = True
    for _ in range(10_000):
        a, b, c = (Interval(*np.sort(rng2.uniform(-10, 10, 2))) for _ in range(3))
        dab = hausdorff_distance(a, b)
        axioms_ok &= dab >= 0.0
        axioms_ok &= (dab == 0.0) == (a == b)
        axioms_ok &= dab == hausdorff_distance(b, a)
        axioms_ok &= dab <= hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-12
    _report(polygons_ok and bool(axioms_ok),
            f"criterion 8: grid-vs-oracle worst relative gap {worst_rel:.2e} <= 1e-2 "
            f"over 200 polygon pairs, 1-D metric axioms over 10^4 triples")


def _unit(rng):
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([math.cos(angle), math.sin(angle)])


# -- criterion 9: determinism across thread counts --------------------------------------

WLLN_CFG = """\
command = wlln
seed = 90
family = ellipsoid_interval
a = 1
n_grid = 10,100,600
epsilon = 0.5
replications = 600
"""

SLLN_CFG = """\
command = slln
seed = 91
family = ellipsoid_interval
a = 1
block_dim = 16
max_n = 2500
paths = 12
"""


def test_criterion_9_thread_determinism(tmp_path):
    env = dict(os.environ)
    results = {}
    for name, text in (("wlln", WLLN_CFG), ("slln", SLLN_CFG)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        for threads in (1, 2, 4):
            out = tmp_path / f"{name}-t{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "setlaw", "--config", str(cfg),
                 "--out", str(out), "--threads", str(threads)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            results[(name, threads)] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir())}
    same = all(results[(name, 1)] == results[(name, t)]
               for name in ("wlln", "slln") for t in (2, 4))
    _report(same, "criterion 9: byte-identical outputs at --threads 1/2/4 "
                  "for weak- and strong-law runs")
