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
mu_k = E s_k the gap on the family grid is one scalar sum:

    S_n = max_u |sum_{k<=n} (s_k - mu_k) h_T(u)|
        = |sum_{k<=n} (s_k - mu_k)| * max_u |h_T(u)|.

The strong law follows S_n along each path, and the weak law's gap at n is
S_n / n = |mean(s_1..s_n) - mean(mu_1..mu_n)| * max_u |h_T(u)|.  So neither
law builds a support table: a replication or a path costs O(n) floats,
whatever the grid size.

Replications and paths are the unit of parallelism: each reads stream
(master_seed, index) from its worker thread's cursor, and aggregation runs
in a fixed order, so outputs are byte-identical at any worker count.

This module only computes: reports and plot curves go to files through
``setlaw.cli``, which writes every output.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import _row_blocks
from .sampling import SeedSpec, _cursor
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
    # never more workers than there are chunks or CPUs; outputs do not
    # depend on the count
    workers = min(threads, len(args_list), os.cpu_count() or 1)
    if workers <= 1:
        return [func(a) for a in args_list]
    # imported here, so that commands that never start a pool skip about 6 ms
    from concurrent.futures import ThreadPoolExecutor
    # a chunk's heavy steps are numpy calls that release the GIL.  Each chunk
    # runs in its own copy of the caller's context, which carries numpy's error
    # state; the copies are taken here, as a context cannot be entered by two
    # threads at once.  map cancels the chunks not yet started if one raises
    contexts = [contextvars.copy_context() for _ in args_list]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda ctx, args: ctx.run(func, args), contexts, args_list))


# -- weak law ---------------------------------------------------------------


def _sums_in_order(s: np.ndarray) -> np.ndarray:
    """Row sums of ``s``, added k = 1..n in order, as an (n, m) support table
    sums down axis 0; reducing one contiguous run (a single row) sums pairwise."""
    if len(s) == 1:
        return np.cumsum(s[0])[-1:]
    return np.add.reduce(np.ascontiguousarray(s.T), axis=0)


def _wlln_constants(family, n: int) -> tuple:
    """What every weak-law chunk at n reads after its (family, n, seed, lo, hi):
    the mean of mu_1..mu_n and the grid norm max_u |h_T(u)|, computed once per n."""
    return _sums_in_order(family._mean_scales(n)[None])[0] / n, family._norm


def _wlln_chunk(args) -> np.ndarray:
    """Gaps S_n / n of replications lo..hi-1 (module docstring)."""
    family, n, master_seed, lo, hi, target, norm = args
    cursor = _cursor(master_seed)
    out = np.empty(hi - lo)
    for rows in _row_blocks(hi - lo, n):
        s = family._scales(
            n, lambda i: cursor.at((n << _STREAM_SHIFT) | (lo + rows.start + i)),
            rows.stop - rows.start)
        np.abs(_sums_in_order(s) / n - target, out=out[rows])
    out *= norm
    return out


def regenerated_wlln_trajectory(family, n_values: Sequence[int]) -> np.ndarray:
    """(1/n^2) * sum_{k<=n} Var(support), maximized over directions, with the
    family regenerated at each requested length n: the final ``wlln_eq4`` value."""
    return np.array([evaluate_variance_condition(VarianceSchedule.from_family(family, n),
                                                 "wlln_eq4").trajectory[-1]
                     for n in n_values])


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
        constants = _wlln_constants(family, n)
        chunks = [(family, n, master, lo, min(lo + _WLLN_CHUNK, reps), *constants)
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


# -- strong law --------------------------------------------------------------


def _row_medians(x: np.ndarray) -> np.ndarray:
    """``np.median(x, axis=1)`` bit for bit, from one sort: the middle value,
    or the mean of the middle two, summed from +0.0 as ``np.median`` sums, so
    a -0.0 median reads +0.0; NaN where the row holds a NaN.  ``np.median``
    itself imports ``numpy.ma`` on its first call (about 8 ms)."""
    x = np.sort(x, axis=1)
    h = x.shape[1] // 2
    mid = x[:, h] + 0.0 if x.shape[1] % 2 else (x[:, h - 1] + x[:, h] + 0.0) / 2
    return np.where(np.isnan(x[:, -1]), x[:, -1], mid)  # NaNs sort last


def _eventually_decreasing(s_over: np.ndarray, window: int) -> np.ndarray:
    """Decay certificate for each row of noisy nonnegative sequences.

    The raw ratio fluctuates and dips toward zero mid-path, so requiring a
    pathwise-monotone tail would reject genuinely converging paths; instead
    the windowed median must end at no more than half its starting level.
    ``SllnConfig`` keeps the window to at most half the series, so the
    first and last windows are disjoint.
    """
    first = _row_medians(s_over[:, :window])
    last = _row_medians(s_over[:, -window:])
    return last <= 0.5 * first + 1e-15


def _interblock_maxima(s: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """max |s_k - s_{m^2}| / m^2 over m^2 < k < (m+1)^2, k <= max_n, per row.

    ``s[:, k-1]`` is the cumulative gap at length k and ``sq`` holds every
    square m^2 <= max_n.  One ``maximum.reduceat`` and one
    ``minimum.reduceat`` over starts alternating m^2, (m+1)^2 - 1 leave each
    window's largest and smallest s, hi and lo, in their even columns.  With
    b = s_{m^2}, max(hi - b, b - lo) is max |s_k - b| exactly, as rounding is
    monotone and b - x rounds to -(x - b); the abs gives a NaN from
    inf - inf the sign ``np.abs`` gives it.  An empty window stays NaN.
    """
    max_n = s.shape[1]
    ends = np.append(sq[1:] - 1, max_n)  # window j is columns sq[j] .. ends[j] - 1
    full = ends > sq  # only the last window can be empty
    starts = np.stack([sq[full], ends[full]], axis=1).ravel()
    starts = starts[starts < max_n]
    b = s[:, sq[full] - 1]
    above = np.maximum.reduceat(s, starts, axis=1)[:, ::2] - b
    below = b - np.minimum.reduceat(s, starts, axis=1)[:, ::2]
    out = np.full((s.shape[0], len(sq)), np.nan)
    out[:, full] = np.abs(np.maximum(above, below)) / sq[full]
    return out


def _slln_chunk(args):
    """Paths lo..hi-1 of a strong-law run: (S_n/n at the checkpoints,
    interblock maxima, pass flags).  ``args`` is (family, max_n, master_seed,
    lo, hi) and then ``_slln_constants``' tuple, which the run computes once
    for all its chunks."""
    (family, max_n, master_seed, lo, hi,
     cps, sq, mean_scales, norm, threshold, window) = args
    cursor = _cursor(master_seed)
    # path p reads stream p.  By the scale identity of the module docstring,
    # S_k = |sum_{j<=k} (s_j - mu_j)| times the grid norm max_u |h_T(u)|; the
    # interval family's row is (1, 0), so its S_k is the scale sum itself
    s = family._scales(max_n, lambda i: cursor.at(lo + i), hi - lo)
    np.subtract(s, mean_scales, out=s)
    np.cumsum(s, axis=1, out=s)
    np.abs(s, out=s)
    s *= norm  # s[i, k-1] is path i's cumulative gap at length k
    # np.take keeps the columns row-major, as s[:, idx] would not: the
    # report's column means are summed in memory order, so layout shows in bits
    s_over = np.take(s, cps - 1, axis=1) / cps
    passed = (s_over[:, -1] < threshold) & _eventually_decreasing(s_over, window)
    return s_over, _interblock_maxima(s, sq), passed


def _slln_constants(family, max_n: int, checkpoints, threshold: float,
                    window: int) -> tuple:
    """What every strong-law chunk reads after its (family, max_n, seed, lo, hi):
    the checkpoints, the squares m^2 <= max_n, the mean scales mu_1..mu_max_n,
    the grid norm max_u |h_T(u)|, the threshold and the median window.  A run
    computes them once, before its chunks start."""
    roots = np.arange(1, math.isqrt(max_n) + 1)
    return (np.asarray(checkpoints), roots * roots, family._mean_scales(max_n),
            family._norm, threshold, window)


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

    master = config.seed.master_seed
    constants = _slln_constants(family, config.max_n, config.checkpoints,
                                config.threshold, config.median_window)
    squares = constants[1]
    chunks = [(family, config.max_n, master, lo, min(lo + _SLLN_CHUNK, config.paths),
               *constants)
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
        "squares": np.arange(1, len(squares) + 1),  # the roots m
        # every square is a checkpoint, so S_{m^2}/m^2 is a column of s_over
        "square_values": np.take(s_over, np.searchsorted(config.checkpoints, squares),
                                 axis=1),
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
