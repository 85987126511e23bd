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

This module only computes; ``setlaw.cli`` writes verdicts and condition
trajectories to files.
"""

from __future__ import annotations

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
    embed,  # unused here, but the benchmark's trace wraps stats.embed by name
    support_function,
    Direction,
    _default_grid,
)
from .sampling import SetSample


class StatsError(ValueError):
    """Invalid statistical computation or inputs."""


@dataclass(frozen=True)
class VarianceSchedule:
    """Per-index variances of support values, one column per grid direction."""

    grid: DirectionGrid
    per_index: np.ndarray

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

    @classmethod
    def from_family(cls, family, n: int) -> "VarianceSchedule":
        """Analytic schedule of a sampling family at sequence length n."""
        return cls(family.grid, family.variances(n))

    @classmethod
    def empirical(cls, replications: Sequence[SetSample],
                  grid: DirectionGrid | None = None) -> "VarianceSchedule":
        tensor, grid = _support_tensor(replications, grid)
        with np.errstate(over="ignore", invalid="ignore"):  # inf is refused in __post_init__
            centered = tensor - tensor.mean(axis=0)
            return cls(grid, _covariance(centered, centered))

    def __len__(self) -> int:
        return self.per_index.shape[0]


@dataclass(frozen=True, eq=False)
class UncorrelationVerdict:
    """Outcome of a pairwise uncorrelation test.

    ``pairs`` holds the tested index pairs (k, l), k < l, in row-major
    order; ``covariance`` and ``correlation`` have one row per pair and
    one column per grid direction; their shapes are checked here.  ``max_abs_corr``
    and ``verdict`` are read off ``correlation``, so no stored copy can disagree.
    """

    threshold: float
    pairs: np.ndarray
    covariance: np.ndarray
    correlation: np.ndarray

    def __post_init__(self):
        for name in ("pairs", "covariance", "correlation"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.covariance.shape != self.correlation.shape or \
                self.pairs.shape != (self.correlation.shape[0], 2):
            raise StatsError("one covariance and correlation row per tested pair required")

    def __eq__(self, other) -> bool:
        """Equal when every field is equal, arrays compared element by element."""
        if not isinstance(other, UncorrelationVerdict):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in ("threshold", "pairs", "covariance", "correlation"))

    @property
    def max_abs_corr(self) -> float:
        """Largest |correlation|; 0.0 when no pair was tested."""
        return float(np.abs(self.correlation).max(initial=0.0))

    @property
    def verdict(self) -> str:
        """``rejected`` exactly when max |corr| exceeds the threshold, else ``consistent``."""
        return "rejected" if self.max_abs_corr > self.threshold else "consistent"

    @property
    def rejected(self) -> np.ndarray:
        """Per (pair, direction) flag: |correlation| above the threshold."""
        return np.abs(self.correlation) > self.threshold


def _supports(bodies: Sequence[ConvexBody], u: Direction) -> np.ndarray:
    """Support values of each body along one direction (one-row support_values)."""
    vals = np.fromiter((support_function(b, u) for b in bodies), dtype=float,
                       count=len(bodies))
    if not np.all(np.isfinite(vals)):
        raise StatsError("support values must be finite for moment estimation")
    return vals


def _covariance(centered_x: np.ndarray, centered_y: np.ndarray) -> np.ndarray:
    """Unbiased covariance of centered samples along axis 0."""
    return (centered_x * centered_y).sum(axis=0) / (len(centered_x) - 1)


def _correlation(cov: np.ndarray, var_x: np.ndarray, var_y: np.ndarray) -> np.ndarray:
    """cov / sqrt(var_x var_y), clamped to [-1, 1]; 0 where a variance is 0.

    A covariance or a variance product that is not finite (it overflowed,
    or the support values did) is an error, not a correlation of nan or 0.
    """
    denom = np.sqrt(var_x * var_y)
    if not (np.isfinite(cov).all() and np.isfinite(denom).all()):
        raise StatsError("support covariances overflow: the support values are too large")
    ok = (var_x > 0.0) & (var_y > 0.0) & (denom > 0.0)
    return np.where(ok, np.clip(cov / np.where(ok, denom, 1.0), -1.0, 1.0), 0.0)


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
    return float(_covariance(x - x.mean(), y - y.mean()))


def _sample_grid(dim: int, grid: DirectionGrid | None) -> DirectionGrid:
    """``grid`` checked against ``dim``; without one, the exact grid of dimension 1."""
    if grid is None:
        if dim != 1:
            raise StatsError("a direction grid is required for dimension >= 2")
        return _default_grid(1)
    if grid.dim != dim:
        raise StatsError("grid dimension must match the sample")
    return grid


def _support_tensor(replications: Sequence[SetSample],
                    grid: DirectionGrid | None) -> tuple[np.ndarray, DirectionGrid]:
    """(R, L, m) support values of R replications of a length-L sequence.

    Each replication gives its rows through ``SetSample.supports``, so a
    family draw on ``grid`` costs one table and builds no body.  The
    buffer is index-major, (L, R, m), and the result is its transposed
    view: ``tensor[:, k]`` is one contiguous (R, m) slab, and sums over R
    still run in order.
    """
    reps = list(replications)
    if len(reps) < 3:
        raise StatsError("at least 3 independent replications are required")
    length = len(reps[0])
    dim = reps[0].dim
    if any(len(r) != length or r.dim != dim for r in reps):
        raise StatsError("replications must share length and dimension")
    grid = _sample_grid(dim, grid)
    buffer = np.empty((length, len(reps), len(grid)))
    for r, rep in enumerate(reps):
        buffer[:, r] = rep.supports(grid)
    if not np.all(np.isfinite(buffer)):
        raise StatsError("support values must be finite for moment estimation")
    return buffer.transpose(1, 0, 2), grid


def _corr_threshold(significance: float, n_tests: int, replications: int) -> float:
    """z / sqrt(R) at the Bonferroni-corrected two-sided level."""
    if not 0.0 < significance < 1.0:
        raise StatsError("significance must be in (0, 1)")
    alpha = significance / max(n_tests, 1)
    if 1.0 - alpha / 2.0 == 1.0:  # inv_cdf refuses p = 1
        raise StatsError(f"significance {significance!r} is too small for {n_tests} tests")
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return z / math.sqrt(replications)


def test_uncorrelated(replications: Sequence[SetSample],
                      grid: DirectionGrid | None = None,
                      significance: float = 0.05) -> UncorrelationVerdict:
    """Check pairwise uncorrelation of a set-valued sequence.

    The caller supplies R independent realizations of the whole sequence;
    every index pair and grid direction is tested at the Bonferroni-
    corrected z threshold.  Exact for dimension 1; for d >= 2 the grid
    makes this a necessary-condition filter only.  Family samples on the
    family grid give their support tables, so no body is built or
    evaluated; other samples are evaluated body by body.
    """
    tensor, grid = _support_tensor(replications, grid)
    n_reps, length, n_dirs = tensor.shape
    if length < 2:
        raise StatsError("uncorrelation needs a sequence of length >= 2")
    kk, ll = np.triu_indices(length, k=1)
    threshold = _corr_threshold(significance, len(kk) * n_dirs, n_reps)
    # an overflow gives inf or nan, which _correlation refuses
    with np.errstate(over="ignore", invalid="ignore"):
        tensor -= tensor.mean(axis=0)  # centered in place: the tensor is ours
        variances = np.stack([_covariance(tensor[:, k], tensor[:, k]) for k in range(length)])
        # one pair at a time keeps temporaries at (R, m), not (R, pairs, m)
        covariance = np.stack([_covariance(tensor[:, k], tensor[:, l])
                               for k, l in zip(kk, ll)])
        correlation = _correlation(covariance, variances[kk], variances[ll])
    return UncorrelationVerdict(threshold, np.column_stack([kk, ll]), covariance, correlation)


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

    # columns (lower, upper): each endpoint of f against the same endpoint of g
    x = np.array([(f.lo, f.hi) for f, _ in reps])
    y = np.array([(g.lo, g.hi) for _, g in reps])
    x -= x.mean(axis=0)
    y -= y.mean(axis=0)
    corr = _correlation(_covariance(x, y), _covariance(x, x), _covariance(y, y))
    threshold = _corr_threshold(significance, 2, len(reps))
    via_endpoints = "rejected" if float(np.abs(corr).max()) > threshold else "consistent"
    return via_support == via_endpoints


test_interval_endpoint_reduction.__test__ = False  # a library op, not a pytest case


def aumann_mean_estimate(sample: SetSample,
                         grid: DirectionGrid | None = None) -> Embedded:
    """Embedding of the Minkowski sample average (1/n)(V_1 + ... + V_n).

    The support vector is the arithmetic mean of per-draw support vectors
    (``SetSample.supports``), which equals the embedded average exactly by
    support additivity.
    """
    grid = _sample_grid(sample.dim, grid)
    return Embedded(SupportVector(grid, sample.supports(grid).mean(axis=0)))


@dataclass(frozen=True)
class ConditionResult:
    satisfied: bool
    trajectory: np.ndarray
    kind: str
    note: str


@np.errstate(over="ignore", invalid="ignore")  # a sum that overflows is refused at the end
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
    A sum that overflows is an error, not a trajectory that ends in inf.
    """
    if tail_window < 1:
        raise StatsError("tail_window must be >= 1")
    per = schedule.per_index
    count = per.shape[0]
    if kind == "wlln_eq4":
        n = np.arange(1, count + 1, dtype=float)
        traj = np.max(np.cumsum(per, axis=0) / n[:, None] ** 2, axis=1)
        ok = bool(traj[-1] < threshold)
        note = f"final value {traj[-1]:.6g} vs threshold {threshold:g}"
    elif kind == "slln_bounded":
        if bound is None or not 0.0 < bound < math.inf:
            raise StatsError(f"slln_bounded needs a positive finite bound, not {bound!r}")
        traj = per.max(axis=1)
        ok = bool(np.all(traj <= bound))
        note = f"max variance {traj.max():.6g} vs bound {bound:g}"
    elif kind == "slln_log2":
        # log^2(1) = 0 weighs the first term to nothing, so a one-entry
        # schedule has no tail to judge
        if count < 2:
            raise StatsError("slln_log2 needs a schedule of at least 2 entries")
        k = np.arange(1, count + 1, dtype=float)
        weights = np.log(k) ** 2 / k ** 2
        traj = np.max(np.cumsum(per * weights[:, None], axis=0), axis=1)
        w = min(tail_window, count - 1)
        increment = float(traj[-1] - traj[-1 - w])
        ok = bool(increment < threshold)
        note = (f"tail increment {increment:.6g} over last {w} terms vs "
                f"threshold {threshold:g} (finite-schedule heuristic)")
    else:
        raise StatsError(f"unknown condition kind {kind!r}")
    if not np.isfinite(traj[-1]):  # a sum of nonnegative terms that overflows stays inf
        raise StatsError("variance sums overflow: the schedule's entries are too large")
    return ConditionResult(ok, traj, kind, note)
