"""Empirical statistics of set-valued samples.

Uncorrelation of random convex bodies is a property of their support
values: two bodies are uncorrelated when the scalar support sequences are
uncorrelated in every direction.  For dimension 1 the two sign directions
are the whole dual sphere, so the grid test is exact and reduces to plain
endpoint correlations; for d >= 2 a finite grid yields a necessary
condition only, which the verdict records.

Sample means of sets are taken through the embedding: the support vector
of the Minkowski average is exactly the arithmetic mean of the per-draw
support vectors, so no set-level folding is needed (the fold is kept as
an independent cross-check in the test suite).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .geometry import (
    ConvexBody,
    DirectionGrid,
    Embedded,
    Interval,
    SupportVector,
    embed,
    support_function,
    Direction,
)
from .sampling import _EXACT_1D, SetSample


class StatsError(ValueError):
    """Invalid statistical computation or inputs."""


@dataclass(frozen=True)
class SupportCovMatrix:
    """Covariances of support values for one index pair, per direction."""

    grid: DirectionGrid
    k: int
    l: int
    covariances: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.covariances, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "covariances", vals)
        if vals.shape != (len(self.grid),):
            raise StatsError("one covariance per grid direction required")
        if self.k == self.l and np.any(vals < -1e-12):
            raise StatsError("diagonal covariances are variances and must be >= -1e-12")


@dataclass(frozen=True)
class VarianceSchedule:
    """Per-index variances of support values, one column per grid direction."""

    grid: DirectionGrid
    per_index: np.ndarray
    source: str = "analytic"

    def __post_init__(self):
        vals = np.asarray(self.per_index, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None] * np.ones((1, len(self.grid)))
        vals = np.array(vals, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "per_index", vals)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] != len(self.grid):
            raise StatsError("per_index must be (count, grid size)")
        if not np.all(np.isfinite(vals)):
            raise StatsError("variance entries must be finite")
        if np.any(vals < 0.0):
            raise StatsError("variance entries must be nonnegative")
        if self.source not in ("analytic", "empirical"):
            raise StatsError(f"unknown schedule source {self.source!r}")

    @classmethod
    def from_family(cls, family, n: int) -> "VarianceSchedule":
        """Analytic schedule of a sampling family at sequence length n."""
        return cls(family.grid, family.variances(n), source="analytic")

    @classmethod
    def empirical(cls, replications: Sequence[SetSample],
                  grid: DirectionGrid | None = None) -> "VarianceSchedule":
        tensor, grid = _support_tensor(replications, grid)
        return cls(grid, tensor.var(axis=0, ddof=1), source="empirical")

    def __len__(self) -> int:
        return self.per_index.shape[0]


@dataclass(frozen=True)
class PairDirectionStat:
    """One tested (index pair, direction) cell of an uncorrelation test."""

    k: int
    l: int
    direction: int
    covariance: float
    correlation: float
    rejected: bool


@dataclass(frozen=True)
class UncorrelationVerdict:
    max_abs_corr: float
    threshold: float
    details: tuple[PairDirectionStat, ...]
    verdict: str  # "consistent" or "rejected"

    def __post_init__(self):
        rejected = self.max_abs_corr > self.threshold
        if (self.verdict == "rejected") != rejected:
            raise StatsError("verdict must be 'rejected' exactly when max |corr| > threshold")


def _supports(bodies: Sequence[ConvexBody], u: Direction) -> np.ndarray:
    vals = np.fromiter((support_function(b, u) for b in bodies), dtype=float,
                       count=len(bodies))
    if not np.all(np.isfinite(vals)):
        raise StatsError("support values must be finite for moment estimation")
    return vals


def empirical_support_covariance(samples_a: Sequence[ConvexBody],
                                 samples_b: Sequence[ConvexBody],
                                 u: Direction) -> float:
    """Unbiased sample covariance of paired support values along u."""
    if len(samples_a) != len(samples_b):
        raise StatsError("paired samples must have equal length")
    if len(samples_a) < 2:
        raise StatsError("covariance needs at least 2 paired draws")
    x = _supports(samples_a, u)
    y = _supports(samples_b, u)
    xc = x - x.mean()
    yc = y - y.mean()
    return float(np.dot(xc, yc) / (len(x) - 1))


def _support_tensor(replications: Sequence[SetSample],
                    grid: DirectionGrid | None) -> tuple[np.ndarray, DirectionGrid]:
    """(R, L, m) support values of R replications of a length-L sequence."""
    reps = list(replications)
    if len(reps) < 3:
        raise StatsError("at least 3 independent replications are required")
    length = len(reps[0])
    dim = reps[0].dim
    if any(len(r) != length or r.dim != dim for r in reps):
        raise StatsError("replications must share length and dimension")
    if grid is None:
        if dim != 1:
            raise StatsError("a direction grid is required for dimension >= 2")
        grid = _EXACT_1D
    if grid.dim != dim:
        raise StatsError("grid dimension must match the sample")
    tensor = np.empty((len(reps), length, len(grid)))
    for r, rep in enumerate(reps):
        for k, body in enumerate(rep.bodies):
            for j, u in enumerate(grid):
                tensor[r, k, j] = support_function(body, u)
    if not np.all(np.isfinite(tensor)):
        raise StatsError("support values must be finite for moment estimation")
    return tensor, grid


def _correlations(centered_x: np.ndarray, centered_y: np.ndarray) -> tuple[float, float]:
    """(covariance, correlation); zero-variance inputs give correlation 0."""
    r = len(centered_x)
    cov = float(np.dot(centered_x, centered_y) / (r - 1))
    vx = float(np.dot(centered_x, centered_x) / (r - 1))
    vy = float(np.dot(centered_y, centered_y) / (r - 1))
    denom = math.sqrt(vx * vy) if vx > 0.0 and vy > 0.0 else 0.0
    if denom <= 0.0:
        return cov, 0.0
    return cov, max(-1.0, min(1.0, cov / denom))


def _corr_threshold(significance: float, n_tests: int, replications: int) -> float:
    """z / sqrt(R) at the Bonferroni-corrected two-sided level."""
    if not 0.0 < significance < 1.0:
        raise StatsError("significance must be in (0, 1)")
    alpha = significance / max(n_tests, 1)
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return z / math.sqrt(replications)


def support_covariance_matrix(replications: Sequence[SetSample], k: int, l: int,
                              grid: DirectionGrid | None = None) -> SupportCovMatrix:
    """Per-direction covariance of indices (k, l) across replications."""
    tensor, grid = _support_tensor(replications, grid)
    centered = tensor - tensor.mean(axis=0)
    covs = np.einsum("rj,rj->j", centered[:, k, :], centered[:, l, :]) / (len(tensor) - 1)
    return SupportCovMatrix(grid, k, l, covs)


def test_uncorrelated(replications: Sequence[SetSample],
                      grid: DirectionGrid | None = None,
                      significance: float = 0.05) -> UncorrelationVerdict:
    """Check pairwise uncorrelation of a set-valued sequence.

    The caller supplies R independent realizations of the whole sequence;
    every index pair and grid direction is tested at the Bonferroni-
    corrected z threshold.  Exact for dimension 1; for d >= 2 the grid
    makes this a necessary-condition filter only.
    """
    tensor, grid = _support_tensor(replications, grid)
    n_reps, length, n_dirs = tensor.shape
    if length < 2:
        raise StatsError("uncorrelation needs a sequence of length >= 2")
    centered = tensor - tensor.mean(axis=0)
    n_tests = (length * (length - 1) // 2) * n_dirs
    threshold = _corr_threshold(significance, n_tests, n_reps)
    details = []
    max_abs = 0.0
    for k in range(length):
        for l in range(k + 1, length):
            for j in range(n_dirs):
                cov, corr = _correlations(centered[:, k, j], centered[:, l, j])
                rejected = abs(corr) > threshold
                details.append(PairDirectionStat(k, l, j, cov, corr, rejected))
                max_abs = max(max_abs, abs(corr))
    verdict = "rejected" if max_abs > threshold else "consistent"
    return UncorrelationVerdict(max_abs, threshold, tuple(details), verdict)


test_uncorrelated.__test__ = False  # a library op, not a pytest case


def test_interval_endpoint_reduction(replications: Sequence[tuple[Interval, Interval]],
                                     significance: float = 0.05) -> bool:
    """Whether the support-value verdict agrees with the endpoint verdict.

    For interval pairs the support test on {+1, -1} and the direct test of
    (lower, lower) and (upper, upper) endpoint correlations decide the same
    thing; this runs both procedures and reports their agreement.
    """
    reps = list(replications)
    if len(reps) < 3:
        raise StatsError("at least 3 replications of the pair are required")
    for f, g in reps:
        if not (isinstance(f, Interval) and isinstance(g, Interval)):
            raise StatsError("endpoint reduction applies to interval pairs only")

    support_samples = [SetSample((f, g)) for f, g in reps]
    via_support = test_uncorrelated(support_samples, significance=significance).verdict

    f_lo = np.array([f.lo for f, _ in reps])
    f_hi = np.array([f.hi for f, _ in reps])
    g_lo = np.array([g.lo for _, g in reps])
    g_hi = np.array([g.hi for _, g in reps])
    threshold = _corr_threshold(significance, 2, len(reps))
    worst = 0.0
    for x, y in ((f_lo, g_lo), (f_hi, g_hi)):
        _, corr = _correlations(x - x.mean(), y - y.mean())
        worst = max(worst, abs(corr))
    via_endpoints = "rejected" if worst > threshold else "consistent"
    return via_support == via_endpoints


test_interval_endpoint_reduction.__test__ = False  # a library op, not a pytest case


def aumann_mean_estimate(sample: SetSample,
                         grid: DirectionGrid | None = None) -> Embedded:
    """Embedding of the Minkowski sample average (1/n)(V_1 + ... + V_n).

    The support vector is the arithmetic mean of per-draw support vectors,
    which equals the embedded average exactly by support additivity.
    """
    if grid is None:
        if sample.dim != 1:
            raise StatsError("a direction grid is required for dimension >= 2")
        grid = _EXACT_1D
    if grid.dim != sample.dim:
        raise StatsError("grid dimension must match the sample")
    rows = np.stack([embed(b, grid).values for b in sample.bodies])
    return Embedded(SupportVector(grid, rows.mean(axis=0)))


@dataclass(frozen=True)
class ConditionResult:
    satisfied: bool
    trajectory: np.ndarray
    kind: str
    note: str


def evaluate_variance_condition(schedule: VarianceSchedule, kind: str, *,
                                bound: float | None = None,
                                threshold: float = 1e-2,
                                tail_window: int = 10) -> ConditionResult:
    """Evaluate a variance-sum condition on a finite schedule.

    ``wlln_eq4``: trajectory t_n = max over directions of
    (1/n^2) * sum_{k<=n} Var_k; satisfied when the final value is below
    ``threshold``.  ``slln_bounded``: satisfied when every entry is <= the
    given ``bound``.  ``slln_log2``: partial sums of Var_k * log^2(k) / k^2;
    satisfied when the increment over the last ``tail_window`` terms falls
    below ``threshold``.  Finite schedules cannot decide the infinite
    conditions, so the last two are heuristics and say so in the note.
    """
    per = schedule.per_index
    count = per.shape[0]
    if kind == "wlln_eq4":
        n = np.arange(1, count + 1, dtype=float)
        traj = np.max(np.cumsum(per, axis=0) / n[:, None] ** 2, axis=1)
        ok = bool(traj[-1] < threshold)
        note = f"final value {traj[-1]:.6g} vs threshold {threshold:g}"
        return ConditionResult(ok, traj, kind, note)
    if kind == "slln_bounded":
        if bound is None or bound <= 0.0:
            raise StatsError("slln_bounded needs a positive bound")
        traj = per.max(axis=1)
        ok = bool(np.all(traj <= bound))
        note = f"max variance {traj.max():.6g} vs bound {bound:g}"
        return ConditionResult(ok, traj, kind, note)
    if kind == "slln_log2":
        k = np.arange(1, count + 1, dtype=float)
        weights = np.log(k) ** 2 / k ** 2
        traj = np.max(np.cumsum(per * weights[:, None], axis=0), axis=1)
        w = min(tail_window, count - 1)
        increment = float(traj[-1] - traj[-1 - w]) if w >= 1 else float(traj[-1])
        ok = bool(increment < threshold)
        note = (f"tail increment {increment:.6g} over last {w} terms vs "
                f"threshold {threshold:g} (finite-schedule heuristic)")
        return ConditionResult(ok, traj, kind, note)
    raise StatsError(f"unknown condition kind {kind!r}")


# ---------------------------------------------------------------------------
# CSV forms
# ---------------------------------------------------------------------------


def write_verdict_csv(verdict: UncorrelationVerdict, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "l", "direction", "covariance", "correlation",
                         "threshold", "flag"])
        for row in verdict.details:
            writer.writerow([row.k, row.l, row.direction, repr(row.covariance),
                             repr(row.correlation), repr(verdict.threshold),
                             int(row.rejected)])


def write_schedule_csv(schedule: VarianceSchedule, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "direction", "variance"])
        for k in range(len(schedule)):
            for j in range(schedule.per_index.shape[1]):
                writer.writerow([k, j, repr(float(schedule.per_index[k, j]))])
