"""Seeded Monte Carlo experiments for set-valued laws of large numbers.

The weak-law experiment measures, at each sequence length n, the metric
gap between the Minkowski sample average and the average of the exact
expected bodies, across R independent replications, and compares the
exceedance frequency P{gap > epsilon} with the family's analytic
Chebyshev-type bound.  The strong-law experiment follows whole paths of
the cumulative gap S_n, recording S_n/n at checkpoints plus the square
subsequence S_{m^2}/m^2 and between-square fluctuation maxima that the
almost-sure argument rests on.

Every family is V_k = s_k T, so h(V_k, u) = s_k h_T(u), and with
mu_k = E s_k the strong law's gap on the family grid is one scalar sum
per path:

    S_n = max_u |sum_{k<=n} (s_k - mu_k) h_T(u)|
        = |sum_{k<=n} (s_k - mu_k)| * max_u |h_T(u)|.

So a path costs O(max_n) floats, whatever the grid size.

Replications and paths are the unit of parallelism: each derives its own
counter-based stream from (master_seed, index), and aggregation runs in a
fixed order, so outputs are byte-identical at any worker count.

This module only computes: reports and plot curves go to files through
``setlaw.cli``, which writes every output.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import _row_blocks
from .sampling import SeedSpec, StreamCursor
from .stats import VarianceSchedule, evaluate_variance_condition

_STREAM_SHIFT = 20          # replication r at length n uses stream (n << 20) | r
_MAX_REPLICATIONS = 1 << _STREAM_SHIFT
_WLLN_CHUNK = 256
_SLLN_CHUNK = 8


class HarnessError(ValueError):
    """Invalid experiment configuration or unusable family."""


@dataclass(frozen=True)
class WllnConfig:
    family: object
    n_grid: tuple[int, ...]
    epsilon: float
    replications: int
    seed: SeedSpec

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


@dataclass(frozen=True)
class SllnConfig:
    family: object
    max_n: int
    paths: int
    seed: SeedSpec
    checkpoints: tuple[int, ...] | None = None
    threshold: float = 0.05
    median_window: int = 5

    def __post_init__(self):
        if self.max_n < 4:
            raise HarnessError("max_n must be >= 4")
        if not 1 <= self.paths < _MAX_REPLICATIONS:
            raise HarnessError(f"paths must be in [1, {_MAX_REPLICATIONS})")
        if not self.threshold > 0.0:
            raise HarnessError("threshold must be > 0")
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
        # the first and last median windows must not overlap
        if not 1 <= self.median_window <= len(cps) // 2:
            raise HarnessError(f"median_window must be in [1, {len(cps) // 2}], "
                               f"half of the {len(cps)} checkpoints")
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
    """Summary rows plus raw per-replication/per-path detail and run metadata:
    ``family`` and ``grid`` labels, then ``variance_condition`` and ``mode``
    (weak law) or ``variance_checks`` and ``paths_passed`` (strong law)."""

    kind: str  # "wlln" or "slln"
    rows: tuple[ReportRow, ...]
    replications: int
    epsilon: float | None = None
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
    # imported here, so that commands that never start a pool skip about 16 ms
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    # about four tasks per worker: each task is one round trip through the
    # pool's queues, and a few per worker still even out their finishing times
    chunksize = -(-len(args_list) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=get_context("fork")) as pool:
        return list(pool.map(func, args_list, chunksize=chunksize))


# -- weak law ---------------------------------------------------------------


def _wlln_chunk(args) -> np.ndarray:
    family, n, master_seed, lo, hi, target = args
    cursor = StreamCursor(master_seed)
    out = np.empty(hi - lo)
    for rows in _row_blocks(hi - lo, n * len(target)):
        block = family.support_block(
            n, lambda i: cursor.at((n << _STREAM_SHIFT) | (lo + rows.start + i)),
            rows.stop - rows.start)
        # sums over n in order, like one replication's (n, m).mean(axis=0);
        # a contiguous 1-D mean would sum pairwise and round differently
        means = np.add.reduce(block, axis=0) / n
        np.abs(means - target).max(axis=1, out=out[rows])
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
        "grid": family.grid.label,
        "variance_condition": f"{'satisfied' if condition.satisfied else 'VIOLATED'}"
                              f" ({condition.note})",
        "mode": "standard" if condition.satisfied else "descriptive(negative control)",
    }
    return ConvergenceReport("wlln", tuple(rows), reps, epsilon=config.epsilon,
                             metadata=metadata, detail=detail)


def compare_bound(report: ConvergenceReport) -> list[dict]:
    """Per-n comparison of the exceedance frequency with its analytic bound.

    ``ok`` means empirical <= min(1, bound) + 3 binomial standard errors;
    a bound above 1 passes trivially.
    """
    if report.kind != "wlln":
        raise HarnessError("bound comparison applies to weak-law reports")
    out = []
    for row in report.rows:
        if row.bound is None:
            raise HarnessError(
                f"row n={row.n} carries no analytic bound (missing variance metadata)")
        out.append({"n": row.n, "empirical": row.exceed_freq, "bound": row.bound,
                    "ok": _bound_ok(row.exceed_freq, row.bound, report.replications)})
    return out


# -- strong law --------------------------------------------------------------


def _eventually_decreasing(s_over: np.ndarray, window: int) -> np.ndarray:
    """Decay certificate for each row of noisy nonnegative sequences.

    The raw ratio fluctuates and dips toward zero mid-path, so requiring a
    pathwise-monotone tail would reject genuinely converging paths; instead
    the windowed median must end at no more than half its starting level.
    ``SllnConfig`` keeps the window to at most half the series, so the
    first and last windows are disjoint.
    """
    first = np.median(s_over[:, :window], axis=1)
    last = np.median(s_over[:, -window:], axis=1)
    return last <= 0.5 * first + 1e-15


def _interblock_maxima(s: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """max |s_k - s_{m^2}| / m^2 over m^2 < k < (m+1)^2, k <= max_n, per row.

    ``s[:, k-1]`` is the cumulative gap at length k and ``sq`` holds every
    square m^2 <= max_n.  Each length is differenced against s at the last
    square at or below it, and one ``maximum.reduceat`` over starts
    alternating m^2, (m+1)^2 - 1 leaves each window's maximum in its even
    columns; an empty window stays NaN.
    """
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


def _slln_chunk(args):
    family, max_n, master_seed, lo, hi, checkpoints, squares, threshold, window = args
    cps = np.asarray(checkpoints)
    cursor = StreamCursor(master_seed)
    # path p reads stream p.  By the scale identity of the module docstring,
    # S_k = |sum_{j<=k} (s_j - mu_j)| times the grid norm max_u |h_T(u)|; the
    # interval family's row is (1, 0), so its S_k is the scale sum itself
    s = family._scales(max_n, lambda i: cursor.at(lo + i), hi - lo)
    np.subtract(s, family._mean_scales(max_n), out=s)
    np.cumsum(s, axis=1, out=s)
    np.abs(s, out=s)
    s *= np.abs(family._row).max()  # s[i, k-1] is path i's cumulative gap at length k
    # np.take keeps the columns row-major, as s[:, idx] would not: the
    # report's column means are summed in memory order, so layout shows in bits
    s_over = np.take(s, cps - 1, axis=1) / cps
    passed = (s_over[:, -1] < threshold) & _eventually_decreasing(s_over, window)
    return s_over, _interblock_maxima(s, np.asarray(squares) ** 2), passed


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
    s_over, interblock, path_pass = (
        np.concatenate(part) for part in zip(*_map_chunks(_slln_chunk, chunks, threads)))

    rows = []
    for j, n in enumerate(config.checkpoints):
        col = s_over[:, j]
        rows.append(ReportRow(n, float(col.mean()), float(col.max()),
                              float(np.count_nonzero(col > config.threshold)
                                    / config.paths)))
    metadata = {
        "family": family.describe(config.max_n),
        "grid": family.grid.label,
        "variance_checks": "; ".join(f"{c.kind}: "
                                     f"{'ok' if c.satisfied else 'fail'} ({c.note})"
                                     for c in checks),
        "paths_passed": f"{int(path_pass.sum())}/{config.paths}",
    }
    detail = {
        "checkpoints": np.asarray(config.checkpoints),
        "s_over_n": s_over,
        "squares": np.asarray(squares),
        # every square is a checkpoint, so S_{m^2}/m^2 is a column of s_over
        "square_values": np.take(s_over, np.searchsorted(config.checkpoints,
                                                         np.square(squares)), axis=1),
        "interblock_max": interblock,
        "path_pass": path_pass,
    }
    return ConvergenceReport("slln", tuple(rows), config.paths, metadata=metadata,
                             detail=detail)


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
