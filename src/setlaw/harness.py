"""Seeded Monte Carlo experiments for set-valued laws of large numbers.

The weak-law experiment measures, at each sequence length n, the metric
gap between the Minkowski sample average and the average of the exact
expected bodies, across R independent replications, and compares the
exceedance frequency P{gap > epsilon} with the family's analytic
Chebyshev-type bound.  The strong-law experiment follows whole paths of
the cumulative gap S_n, recording S_n/n at checkpoints plus the square
subsequence S_{m^2}/m^2 and between-square fluctuation maxima that the
almost-sure argument rests on.

Replications and paths are the unit of parallelism: each derives its own
counter-based stream from (master_seed, index), and aggregation runs in a
fixed order, so outputs are byte-identical at any worker count.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Sequence

import numpy as np

from .sampling import SeedSpec
from .stats import VarianceSchedule, evaluate_variance_condition

_STREAM_SHIFT = 20          # replication r at length n uses stream (n << 20) | r
_MAX_REPLICATIONS = 1 << _STREAM_SHIFT
_WLLN_CHUNK = 256
_SLLN_CHUNK = 8


class HarnessError(ValueError):
    """Invalid experiment configuration or unusable family."""


def _check_config_grid(grid, family) -> None:
    # the same grid must serve both the metric and the variance schedule,
    # so an explicitly configured grid may only restate the family's own
    if grid is not None and grid != family.grid:
        raise HarnessError("config grid must match the family's direction grid")


@dataclass(frozen=True)
class WllnConfig:
    family: object
    n_grid: tuple[int, ...]
    epsilon: float
    replications: int
    seed: SeedSpec
    grid: object | None = None  # must equal the family's own direction grid

    def __post_init__(self):
        lengths = tuple(int(n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", lengths)
        if not lengths or any(n < 1 for n in lengths):
            raise HarnessError("n_grid must contain positive lengths")
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise HarnessError("n_grid must be strictly increasing")
        if not self.epsilon > 0.0:
            raise HarnessError("epsilon must be > 0")
        if not 100 <= self.replications < _MAX_REPLICATIONS:
            raise HarnessError(f"replications must be in [100, {_MAX_REPLICATIONS})")
        _check_config_grid(self.grid, self.family)


@dataclass(frozen=True)
class SllnConfig:
    family: object
    max_n: int
    paths: int
    seed: SeedSpec
    checkpoints: tuple[int, ...] | None = None
    threshold: float = 0.05
    median_window: int = 5
    grid: object | None = None  # must equal the family's own direction grid

    def __post_init__(self):
        _check_config_grid(self.grid, self.family)
        if self.max_n < 4:
            raise HarnessError("max_n must be >= 4")
        if not 1 <= self.paths < _MAX_REPLICATIONS:
            raise HarnessError(f"paths must be in [1, {_MAX_REPLICATIONS})")
        if not self.threshold > 0.0:
            raise HarnessError("threshold must be > 0")
        if self.median_window < 1:
            raise HarnessError("median_window must be >= 1")
        squares = [m * m for m in range(1, math.isqrt(self.max_n) + 1)]
        if self.checkpoints is None:
            cps = sorted(set(squares) | {self.max_n})
        else:
            cps = [int(n) for n in self.checkpoints]
            if cps != sorted(set(cps)):
                raise HarnessError("checkpoints must be strictly increasing")
            if cps and (cps[0] < 1 or cps[-1] > self.max_n):
                raise HarnessError("checkpoints must lie in [1, max_n]")
            missing = sorted(set(squares) - set(cps))
            if missing:
                raise HarnessError(f"checkpoints missing required squares {missing[:5]}")
        object.__setattr__(self, "checkpoints", tuple(cps))


@dataclass(frozen=True)
class ReportRow:
    """Per-length summary of the metric gap across replications or paths."""

    n: int
    mean_value: float
    max_value: float
    exceed_freq: float
    bound: float | None = None
    bound_ok: bool | None = None


@dataclass
class ConvergenceReport:
    """Summary rows plus raw per-replication/per-path detail and run metadata
    (seed, grid size, family description, variance-condition status)."""

    kind: str  # "wlln" or "slln"
    rows: tuple[ReportRow, ...]
    replications: int
    epsilon: float | None = None
    threshold: float | None = None
    metadata: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def _bound_ok(empirical: float, bound: float, replications: int) -> bool:
    """Empirical frequency within the clamped bound plus 3 binomial SEs."""
    b = min(1.0, bound)
    slack = 3.0 * math.sqrt(b * (1.0 - b) / replications)
    return empirical <= b + slack


def _map_chunks(func, args_list, threads: int):
    # the fork context starts every worker up front, so never ask for more
    # than there are chunks or CPUs; outputs do not depend on the count
    workers = min(threads, len(args_list), os.cpu_count() or 1)
    if workers <= 1:
        return [func(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=get_context("fork")) as pool:
        return list(pool.map(func, args_list))


# -- weak law ---------------------------------------------------------------


def _wlln_chunk(args) -> np.ndarray:
    family, n, master_seed, lo, hi, target = args
    out = np.empty(hi - lo)
    for i, r in enumerate(range(lo, hi)):
        rng = SeedSpec(master_seed, (n << _STREAM_SHIFT) | r).generator()
        supports = family.support_draws(n, rng)
        out[i] = float(np.abs(supports.mean(axis=0) - target).max())
    return out


def regenerated_wlln_trajectory(family, n_values: Sequence[int]) -> np.ndarray:
    """(1/n^2) * sum_{k<=n} Var(support), maximized over directions,
    with the family regenerated at each requested length n."""
    out = np.empty(len(n_values))
    for i, n in enumerate(n_values):
        out[i] = float(np.max(family.variances(n).sum(axis=0)) / n ** 2)
    return out


def run_wlln(config: WllnConfig, threads: int = 1,
             enforce_variance_condition: bool = True) -> ConvergenceReport:
    """Estimate P{gap > epsilon} at every n and attach analytic bounds.

    The family must satisfy the quadratic-mean variance condition; an
    explicit ``enforce_variance_condition=False`` runs a violating family
    anyway (for negative controls) and marks the report descriptive.
    """
    family = config.family
    n_max = config.n_grid[-1]
    schedule = VarianceSchedule.from_family(family, n_max)
    condition = evaluate_variance_condition(schedule, "wlln_eq4")
    if not condition.satisfied and enforce_variance_condition:
        raise HarnessError(
            f"family violates the variance condition ({condition.note}); "
            "pass enforce_variance_condition=False to run it as a negative control")

    master = config.seed.master_seed
    reps = config.replications
    rows = []
    detail: dict[int, np.ndarray] = {}
    for n in config.n_grid:
        target = family.mean_supports(n).mean(axis=0)
        chunks = [(family, n, master, lo, min(lo + _WLLN_CHUNK, reps), target)
                  for lo in range(0, reps, _WLLN_CHUNK)]
        gaps = np.concatenate(_map_chunks(_wlln_chunk, chunks, threads))
        exceed = float(np.count_nonzero(gaps > config.epsilon) / reps)
        bound = family.chebyshev_bound(n, config.epsilon)
        ok = _bound_ok(exceed, bound, reps) if bound is not None else None
        rows.append(ReportRow(n, float(gaps.mean()), float(gaps.max()),
                              exceed, bound, ok))
        detail[n] = gaps
    metadata = {
        "family": family.describe(n_max),
        "master_seed": str(master),
        "grid": family.grid.label,
        "grid_size": str(len(family.grid)),
        "variance_condition": f"{'satisfied' if condition.satisfied else 'VIOLATED'}"
                              f" ({condition.note})",
        "mode": "standard" if condition.satisfied else "descriptive(negative control)",
    }
    return ConvergenceReport("wlln", tuple(rows), reps, epsilon=config.epsilon,
                             metadata=metadata, detail=detail)


def compare_bound(report: ConvergenceReport, replications: int | None = None) -> list[dict]:
    """Per-n comparison of the exceedance frequency with its analytic bound.

    ``ok`` means empirical <= min(1, bound) + 3 binomial standard errors;
    a bound above 1 passes trivially.
    """
    if report.kind != "wlln":
        raise HarnessError("bound comparison applies to weak-law reports")
    reps = replications if replications is not None else report.replications
    out = []
    for row in report.rows:
        if row.bound is None:
            raise HarnessError(
                f"row n={row.n} carries no analytic bound (missing variance metadata)")
        out.append({"n": row.n, "empirical": row.exceed_freq, "bound": row.bound,
                    "ok": _bound_ok(row.exceed_freq, row.bound, reps)})
    return out


# -- strong law --------------------------------------------------------------


def _windowed_medians(values: np.ndarray, window: int) -> np.ndarray:
    if len(values) < window:
        return np.array([float(np.median(values))])
    return np.array([float(np.median(values[i:i + window]))
                     for i in range(len(values) - window + 1)])


def _eventually_decreasing(values: np.ndarray, window: int) -> bool:
    """Decay certificate for a noisy nonnegative sequence.

    The raw ratio fluctuates and dips toward zero mid-path, so requiring a
    pathwise-monotone tail would reject genuinely converging paths; instead
    the windowed median must end at no more than half its starting level.
    """
    meds = _windowed_medians(values, window)
    return bool(meds[-1] <= 0.5 * meds[0] + 1e-15)


def _slln_chunk(args):
    family, max_n, master_seed, lo, hi, checkpoints, squares, threshold, window = args
    cps = np.asarray(checkpoints)
    target = family.mean_supports(max_n)
    s_over = np.empty((hi - lo, len(cps)))
    square_vals = np.empty((hi - lo, len(squares)))
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
            square_vals[i, mi] = s[sq - 1] / sq
            k_hi = min((m + 1) ** 2 - 1, max_n)
            if k_hi > sq:
                interblock[i, mi] = float(np.abs(s[sq:k_hi] - s[sq - 1]).max()) / sq
        passed[i] = s_over[i, -1] < threshold and _eventually_decreasing(s_over[i], window)
    return s_over, square_vals, interblock, passed


def run_slln(config: SllnConfig, threads: int = 1) -> ConvergenceReport:
    """Follow P independent paths of the normalized cumulative gap S_n/n.

    Records S_n/n at every checkpoint, the square subsequence S_{m^2}/m^2,
    and the between-square maxima max |S_k - S_{m^2}|/m^2 over
    m^2 < k < (m+1)^2 (clipped to max_n; absent when the window is empty).
    A path passes when its final value is below the threshold and its
    checkpoint series is eventually decreasing in windowed median.
    """
    family = config.family
    bound_m = family.variance_bound()
    schedule = VarianceSchedule.from_family(family, config.max_n)
    checks = []
    if bound_m is not None:
        checks.append(evaluate_variance_condition(schedule, "slln_bounded",
                                                  bound=max(bound_m, 1e-300)))
    checks.append(evaluate_variance_condition(schedule, "slln_log2"))
    if not any(c.satisfied for c in checks):
        notes = "; ".join(c.note for c in checks)
        raise HarnessError(f"family passes neither strong-law variance check ({notes})")

    squares = tuple(m for m in range(1, math.isqrt(config.max_n) + 1))
    master = config.seed.master_seed
    chunks = [(family, config.max_n, master, lo, min(lo + _SLLN_CHUNK, config.paths),
               config.checkpoints, squares, config.threshold, config.median_window)
              for lo in range(0, config.paths, _SLLN_CHUNK)]
    parts = _map_chunks(_slln_chunk, chunks, threads)
    s_over = np.concatenate([p[0] for p in parts])
    square_vals = np.concatenate([p[1] for p in parts])
    interblock = np.concatenate([p[2] for p in parts])
    path_pass = np.concatenate([p[3] for p in parts])

    rows = []
    for j, n in enumerate(config.checkpoints):
        col = s_over[:, j]
        rows.append(ReportRow(n, float(col.mean()), float(col.max()),
                              float(np.count_nonzero(col > config.threshold)
                                    / config.paths)))
    metadata = {
        "family": family.describe(config.max_n),
        "master_seed": str(master),
        "grid": family.grid.label,
        "grid_size": str(len(family.grid)),
        "variance_checks": "; ".join(f"{c.kind}: "
                                     f"{'ok' if c.satisfied else 'fail'} ({c.note})"
                                     for c in checks),
        "paths_passed": f"{int(path_pass.sum())}/{config.paths}",
    }
    detail = {
        "checkpoints": np.asarray(config.checkpoints),
        "s_over_n": s_over,
        "squares": np.asarray(squares),
        "square_values": square_vals,
        "interblock_max": interblock,
        "path_pass": path_pass,
    }
    return ConvergenceReport("slln", tuple(rows), config.paths,
                             threshold=config.threshold, metadata=metadata,
                             detail=detail)


# -- CSV emission ------------------------------------------------------------


def write_wlln_detail_csv(report: ConvergenceReport, path) -> None:
    if report.kind != "wlln":
        raise HarnessError("detail format n,replication,... is for weak-law reports")
    bounds = {row.n: row.bound for row in report.rows}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "replication", "d_h", "epsilon", "exceeded", "bound"])
        for n in sorted(report.detail):
            bound = bounds[n]
            btxt = repr(bound) if bound is not None else ""
            for r, d in enumerate(report.detail[n]):
                writer.writerow([n, r, repr(float(d)), repr(report.epsilon),
                                 int(d > report.epsilon), btxt])


def write_wlln_summary_csv(report: ConvergenceReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "mean_d_h", "max_d_h", "exceedance", "bound", "bound_ok"])
        for row in report.rows:
            writer.writerow([row.n, repr(row.mean_value), repr(row.max_value),
                             repr(row.exceed_freq),
                             repr(row.bound) if row.bound is not None else "",
                             "" if row.bound_ok is None else int(row.bound_ok)])


def write_slln_detail_csv(report: ConvergenceReport, path) -> None:
    if report.kind != "slln":
        raise HarnessError("detail format path,n,... is for strong-law reports")
    d = report.detail
    square_col = {int(m) ** 2: j for j, m in enumerate(d["squares"])}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "n", "s_n_over_n", "is_square_checkpoint",
                         "interblock_max"])
        for p in range(d["s_over_n"].shape[0]):
            for j, n in enumerate(d["checkpoints"]):
                n = int(n)
                is_sq = n in square_col
                ib = ""
                if is_sq:
                    v = d["interblock_max"][p, square_col[n]]
                    ib = repr(float(v)) if np.isfinite(v) else ""
                writer.writerow([p, n, repr(float(d["s_over_n"][p, j])),
                                 int(is_sq), ib])


def write_slln_summary_csv(report: ConvergenceReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "mean_s_n_over_n", "max_s_n_over_n",
                         "frac_above_threshold"])
        for row in report.rows:
            writer.writerow([row.n, repr(row.mean_value), repr(row.max_value),
                             repr(row.exceed_freq)])


def plot_series(report: ConvergenceReport) -> dict[str, list[tuple[int, float]]]:
    """Two-column (n, value) curves for external plotting."""
    series: dict[str, list[tuple[int, float]]] = {}
    if report.kind == "wlln":
        series["mean_d_h"] = [(r.n, r.mean_value) for r in report.rows]
        series["exceedance"] = [(r.n, r.exceed_freq) for r in report.rows]
        if all(r.bound is not None for r in report.rows):
            series["bound"] = [(r.n, r.bound) for r in report.rows]
    else:
        series["mean_s_n_over_n"] = [(r.n, r.mean_value) for r in report.rows]
        d = report.detail
        sq_mean = d["square_values"].mean(axis=0)
        series["square_mean"] = [(int(m) ** 2, float(v))
                                 for m, v in zip(d["squares"], sq_mean)]
        ib = d["interblock_max"]
        pairs = []
        for j, m in enumerate(d["squares"]):
            col = ib[:, j]
            if np.all(np.isfinite(col)):
                pairs.append((int(m) ** 2, float(col.mean())))
        series["interblock_mean"] = pairs
    return series


def write_plot_series(series: dict[str, list[tuple[int, float]]], directory) -> list[str]:
    names = []
    for name, pairs in series.items():
        fname = f"plot_{name}.csv"
        with open(f"{directory}/{fname}", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "value"])
            for n, v in pairs:
                writer.writerow([n, repr(float(v))])
        names.append(fname)
    return sorted(names)
