"""The benchmark's workloads: inputs made from a seed, and the checks their
outputs must pass.

Every check is computed here, apart from the library: closed forms, bounds
the method must obey, or identities between output files.  None compares
with a stored copy of earlier output.  A check that concerns one operation
(one replication, path, tested cell, distance or sum) marks that operation
failed; a check on an aggregate (a mean against its expectation) records a
problem, which makes the run incorrect.  ``mutations`` gives, for each
workload, deliberately wrong copies of a real output that the checks must
flag; ``run.py --self-check`` runs them.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

REL = 1e-12  # tolerance for values the library must reproduce up to rounding


@dataclass
class Verdict:
    """Outcome of checking one invocation's outputs."""

    ops: int
    bad: np.ndarray = field(init=False)
    kinds: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.bad = np.zeros(self.ops, dtype=bool)

    def mark(self, kind: str, bad, offset: int = 0) -> None:
        """Flag operations ``offset + i`` for every true ``bad[i]``."""
        bad = np.asarray(bad, dtype=bool).reshape(-1)
        if bad.any():
            self.kinds[kind] += int(bad.sum())
            self.bad[offset:offset + len(bad)] |= bad

    def problem(self, text: str) -> None:
        self.problems.append(text)

    @property
    def failed(self) -> int:
        return int(self.bad.sum())


def read_csv(path: Path) -> np.ndarray:
    """Float matrix of a CSV file below its header; empty cells read as NaN."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(x) if x != "" else math.nan for x in row] for row in rows[1:]])
    return data.reshape(len(rows) - 1, len(rows[0]))


def _close(a, b, floor: float = 0.0) -> np.ndarray:
    """|a - b| <= REL * max(floor, |b|): relative, or absolute below ``floor``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) <= REL * np.maximum(floor, np.abs(b))


class Workload:
    """One workload; its one-line rationale is in BENCHMARK.json and README.md."""

    name: str
    threads: int      # workers of the timed (untraced) invocation
    ops: int          # operations per invocation
    setup_probes = 0  # set-up-only invocations per untraced round

    def prepare(self, seed: int, work: Path) -> list[str]:
        """Write the inputs into ``work``; return the child's mode and arguments."""
        raise NotImplementedError

    def load(self, out: Path) -> dict:
        raise NotImplementedError

    def check(self, data: dict) -> Verdict:
        raise NotImplementedError

    def mutations(self, data: dict) -> list[tuple[str, dict, dict]]:
        """(label, base, wrong): the checks must flag more in wrong than in base."""
        raise NotImplementedError


def uniform_angles_2d(m: int) -> np.ndarray:
    """Closed form of the ``uniform_angles_2d`` grid: angles 2*pi*j/m, then negations."""
    ang = 2.0 * math.pi * np.arange(m // 2) / m
    u = np.column_stack([np.cos(ang), np.sin(ang)])
    return np.vstack([u, -u])


def _cli_prepare(work: Path, name: str, text: str) -> list[str]:
    cfg = work / f"{name}.cfg"
    cfg.write_text(text, encoding="utf-8")
    return ["cli", "--", "--config", str(cfg)]


# ---------------------------------------------------------------------------
# wlln-regen: the README weak-law config
# ---------------------------------------------------------------------------


class WllnRegen(Workload):
    """The headline experiment: sampling carries it, geometry and stats idle."""

    name = "wlln-regen"
    threads = 1
    setup_probes = 4  # an invocation takes about 9 s, so a 30 s run has only 3
    n_grid = (10, 100, 1000)
    epsilon = 0.5
    reps = 10_000
    ops = len(n_grid) * reps

    def prepare(self, seed, work):
        return _cli_prepare(work, "wlln", (
            f"command = wlln\nseed = {seed}\nfamily = ellipsoid_interval\na = 1\n"
            f"n_grid = {','.join(map(str, self.n_grid))}\nepsilon = {self.epsilon}\n"
            f"replications = {self.reps}\n"))

    def load(self, out):
        return {"detail": read_csv(out / "wlln_detail.csv"),
                "summary": read_csv(out / "wlln_summary.csv")}

    def check(self, data):
        v = Verdict(self.ops)
        d, eps, reps = data["detail"], self.epsilon, self.reps
        if d.shape != (self.ops, 6):
            v.problem(f"wlln_detail.csv has shape {d.shape}, expected ({self.ops}, 6)")
            v.mark("wlln.missing", np.ones(self.ops))
            return v
        n, gap = d[:, 0], d[:, 2]
        exact_bound = 2.0 / (n * (n + 2.0) * eps ** 2)
        # |mean of n coordinates of a point in the unit n-ball| <= 1/sqrt(n)
        v.mark("wlln.gap_range", ~((gap >= 0.0) & (gap <= (1.0 + REL) / np.sqrt(n))))
        v.mark("wlln.bound", ~_close(d[:, 5], exact_bound))
        v.mark("wlln.exceeded", (d[:, 4] != (gap > eps)) | (d[:, 3] != eps))
        v.mark("wlln.layout", n != np.repeat(self.n_grid, reps))
        s = data["summary"]
        if s.shape[0] != len(self.n_grid):
            v.problem(f"wlln_summary.csv has {s.shape[0]} rows")
            return v
        for i, nv in enumerate(self.n_grid):
            g = gap[i * reps:(i + 1) * reps]
            g2 = g ** 2
            target = 1.0 / (nv * (nv + 2.0))
            se = float(g2.std(ddof=1)) / math.sqrt(reps)
            if not abs(float(g2.mean()) - target) <= 5.0 * se:
                v.problem(f"n={nv}: mean gap^2 {g2.mean():.6g} is not within 5 SE "
                          f"({se:.3g}) of 1/(n(n+2)) = {target:.6g}")
            exceed, bound = s[i, 3], s[i, 4]
            b = min(1.0, 2.0 / (nv * (nv + 2.0) * eps ** 2))
            if not _close(bound, 2.0 / (nv * (nv + 2.0) * eps ** 2)):
                v.problem(f"n={nv}: summary bound {bound!r} is not 2/(n(n+2)eps^2)")
            if not exceed <= b + 3.0 * math.sqrt(b * (1.0 - b) / reps):
                v.problem(f"n={nv}: exceedance {exceed!r} above min(1, bound) + 3 SE")
            if exceed != np.count_nonzero(g > eps) / reps or s[i, 0] != nv \
                    or not _close(s[i, 1], g.mean()) or s[i, 2] != g.max():
                v.problem(f"n={nv}: summary row disagrees with the detail rows")
        return v

    def mutations(self, data):
        gap_high = copy.deepcopy(data)
        gap_high["detail"][5, 2] = 1.01 / math.sqrt(gap_high["detail"][5, 0])
        scaled = copy.deepcopy(data)
        scaled["detail"][:, 2] *= 1.5
        bound = copy.deepcopy(data)
        bound["detail"][-1, 5] *= 1.0 + 1e-9
        exceed = copy.deepcopy(data)
        exceed["summary"][0, 3] = 0.2
        return [("a gap pushed past 1/sqrt(n)", data, gap_high),
                ("every gap scaled by 1.5", data, scaled),
                ("one bound cell off by 1e-9 relative", data, bound),
                ("an exceedance above its bound", data, exceed)]


# ---------------------------------------------------------------------------
# slln-block: strong-law paths with 16-axis blocks, 2 workers
# ---------------------------------------------------------------------------


class SllnBlock(Workload):
    """Cheap 16-axis draws, so harness post-processing and the pool dominate."""

    name = "slln-block"
    threads = 2
    setup_probes = 1
    block_dim = 16
    max_n = 10_000
    paths = 1000
    ops = paths

    def prepare(self, seed, work):
        return _cli_prepare(work, "slln", (
            f"command = slln\nseed = {seed}\nfamily = ellipsoid_interval\na = 1\n"
            f"block_dim = {self.block_dim}\nmax_n = {self.max_n}\npaths = {self.paths}\n"))

    def load(self, out):
        return {"detail": read_csv(out / "slln_detail.csv"),
                "summary": read_csv(out / "slln_summary.csv"),
                "square_mean": read_csv(out / "plot_square_mean.csv")}

    def check(self, data):
        v = Verdict(self.ops)
        squares = np.arange(1, math.isqrt(self.max_n) + 1) ** 2
        cps = np.union1d(squares, [self.max_n])
        c = len(cps)
        d = data["detail"]
        if d.shape != (self.paths * c, 5):
            v.problem(f"slln_detail.csv has shape {d.shape}, expected ({self.paths * c}, 5)")
            v.mark("slln.missing", np.ones(self.ops))
            return v
        n = d[:, 1].reshape(self.paths, c)
        s = d[:, 2].reshape(self.paths, c)
        is_sq = d[:, 3].reshape(self.paths, c)
        ib = d[:, 4].reshape(self.paths, c)
        v.mark("slln.layout", (d[:, 0].reshape(self.paths, c) != np.arange(self.paths)[:, None])
               .any(axis=1) | (n != cps).any(axis=1) | (is_sq != np.isin(cps, squares)).any(axis=1))
        # |S_n| <= sum |X_k| <= n since every coordinate lies in [-1, 1]
        v.mark("slln.path_range", ~((s >= 0.0) & (s <= 1.0 + REL)).all(axis=1))
        m = np.sqrt(cps).astype(int)
        has_window = np.isin(cps, squares) & (np.minimum((m + 1) ** 2 - 1, self.max_n) > cps)
        ib_ok = np.where(has_window, ib >= 0.0, np.isnan(ib))
        v.mark("slln.interblock", ~ib_ok.all(axis=1))
        # E[S_n^2] = n Var(X) = n / (block_dim + 2): coordinates are uncorrelated
        s2 = (n[0] * s) ** 2
        mean = s2.mean(axis=0)
        se = s2.std(axis=0, ddof=1) / math.sqrt(self.paths)
        target = cps / (self.block_dim + 2.0)
        off = np.abs(mean - target) > 5.0 * se
        if off.any():
            j = int(np.argmax(off))
            v.problem(f"mean S_n^2 at n={cps[j]} is {mean[j]:.6g}, not within 5 SE "
                      f"({se[j]:.3g}) of n/{self.block_dim + 2} = {target[j]:.6g}")
        sq = data["square_mean"]
        col_mean = s.mean(axis=0)
        if sq.shape != (len(squares), 2) or (sq[:, 0] != squares).any() or \
                not _close(sq[:, 1], col_mean[np.isin(cps, squares)]).all():
            v.problem("square-subsequence means differ from the checkpoint values at m^2")
        summ = data["summary"]
        if summ.shape != (c, 4) or (summ[:, 0] != cps).any() or \
                not _close(summ[:, 1], col_mean).all() or (summ[:, 2] != s.max(axis=0)).any():
            v.problem("slln_summary.csv disagrees with the detail rows")
        return v

    def mutations(self, data):
        neg = copy.deepcopy(data)
        neg["detail"][7, 2] = -1e-3
        scaled = copy.deepcopy(data)
        scaled["detail"][:, 2] *= 1.5
        square = copy.deepcopy(data)
        square["square_mean"][3, 1] *= 1.0 + 1e-9
        ib = copy.deepcopy(data)
        rows = np.flatnonzero(~np.isnan(ib["detail"][:, 4]))
        ib["detail"][rows[0], 4] = -1e-6
        return [("one S_n/n below 0", data, neg), ("every S_n/n scaled by 1.5", data, scaled),
                ("one square-subsequence mean off by 1e-9 relative", data, square),
                ("one between-square maximum below 0", data, ib)]


# ---------------------------------------------------------------------------
# uncorr-box2d: the uncorrelation test on a scaled 2-D box
# ---------------------------------------------------------------------------


class UncorrBox2d(Workload):
    """Scalar support calls and the stats pair x direction loop dominate."""

    name = "uncorr-box2d"
    threads = 1
    m = 256
    length = 12
    reps = 300
    significance = 0.05
    ops = m * length * (length - 1) // 2

    def prepare(self, seed, work):
        rng = np.random.default_rng([seed, 3])
        # the origin lies inside the box, so no support value is 0
        lo = np.round(rng.uniform(-2.0, -0.25, 2), 6)
        hi = np.round(rng.uniform(0.25, 2.0, 2), 6)
        self.box = (lo, hi)
        body = "box 2 " + " ".join(repr(float(x)) for x in (*lo, *hi))
        return _cli_prepare(work, "uncorr", (
            f"command = test-uncorr\nseed = {seed}\nfamily = scaled_iid\nbody = {body}\n"
            f"grid_scheme = uniform_angles_2d\ngrid_count = {self.m}\n"
            f"length = {self.length}\nreplications = {self.reps}\n"))

    def load(self, out):
        return {"rows": read_csv(out / "uncorrelation.csv"), "box": self.box}

    def check(self, data):
        v = Verdict(self.ops)
        rows = data["rows"]
        pairs = self.length * (self.length - 1) // 2
        if rows.shape != (self.ops, 7):
            v.problem(f"uncorrelation.csv has shape {rows.shape}, expected ({self.ops}, 7)")
            v.mark("uncorr.missing", np.ones(self.ops))
            return v
        k, l, j = (rows[:, i].reshape(pairs, self.m) for i in range(3))
        cov, corr, thr, flag = (rows[:, i].reshape(pairs, self.m) for i in range(3, 7))
        kk, ll = np.triu_indices(self.length, k=1)
        v.mark("uncorr.layout", (k != kk[:, None]) | (l != ll[:, None]) |
               (j != np.arange(self.m)))
        lo, hi = data["box"]
        u = uniform_angles_2d(self.m)
        h = np.where(u > 0.0, u * hi, u * lo).sum(axis=1)   # closed-form box support
        # Cov(c_k h_j, c_l h_j) = h_j^2 Cov(c_k, c_l): the ratio is one number per
        # pair; its tolerance is relative to sd_k sd_l, the covariance's own scale
        ratio = cov / h ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.median(np.abs(cov / corr) / h ** 2, axis=1, keepdims=True)
        v.mark("uncorr.cov_scaling",
               ~(np.abs(ratio - np.median(ratio, axis=1, keepdims=True)) <= 1e-9 * scale))
        v.mark("uncorr.corr", ~((np.abs(corr - np.median(corr, axis=1, keepdims=True)) <= 1e-9)
                                & (np.abs(corr) <= 1.0)))
        tests = self.m * pairs
        z = NormalDist().inv_cdf(1.0 - self.significance / (2.0 * tests))
        v.mark("uncorr.threshold", ~_close(thr, z / math.sqrt(self.reps)))
        v.mark("uncorr.flag", flag != (np.abs(corr) > thr))
        return v

    def mutations(self, data):
        rows = data["rows"]
        worst = int(np.argmax(np.abs(rows[:, 4])))
        cov = copy.deepcopy(data)
        cov["rows"][worst, 3] *= 1.0 + 1e-6
        corr = copy.deepcopy(data)
        corr["rows"][worst, 4] = 1.5
        thr = copy.deepcopy(data)
        thr["rows"][0, 5] *= 1.0 + 1e-9
        flag = copy.deepcopy(data)
        flag["rows"][1, 6] = 1.0 - flag["rows"][1, 6]
        return [("one covariance off by 1e-6 relative", data, cov),
                ("a correlation above 1", data, corr),
                ("one threshold off by 1e-9 relative", data, thr),
                ("one flag flipped", data, flag)]


# ---------------------------------------------------------------------------
# geometry-2d: library calls on fine grids
# ---------------------------------------------------------------------------


def point_polygon_distance(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to a convex counter-clockwise polygon."""
    edges = np.roll(poly, -1, axis=0) - poly
    w = points[:, None, :] - poly[None, :, :]
    cross = edges[None, :, 0] * w[..., 1] - edges[None, :, 1] * w[..., 0]
    inside = np.all(cross >= 0.0, axis=1)
    t = np.clip((w * edges[None]).sum(-1) / (edges ** 2).sum(-1)[None], 0.0, 1.0)
    dist = np.linalg.norm(w - t[..., None] * edges[None], axis=-1).min(axis=1)
    return np.where(inside, 0.0, dist)


def polygon_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Hausdorff distance of two convex polygons.

    The distance to a convex set is convex, so its maximum over a polygon
    is reached at a vertex.
    """
    return float(max(point_polygon_distance(a, b).max(), point_polygon_distance(b, a).max()))


# 1-D bodies whose distance needs more than six significant digits to print
HAUSDORFF_CLI = (
    ("interval 0 1.123456789", "interval 0 0"),
    ("interval -0.3333333333333333 2.718281828459045", "interval 0.1 1"),
    ("interval 1e-07 3.141592653589793", "interval 0 0"),
)


def _interval_distance(a: str, b: str) -> float:
    lo_a, hi_a = map(float, a.split()[1:])
    lo_b, hi_b = map(float, b.split()[1:])
    return max(abs(hi_a - hi_b), abs(lo_a - lo_b))


def _polygon(rng: np.random.Generator, k: int) -> np.ndarray:
    """k vertices in counter-clockwise order on a random ellipse: convex position."""
    theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
    while np.any(np.diff(theta) < 1e-3) or theta[-1] - theta[0] > 2.0 * math.pi - 1e-3:
        theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
    a, b = rng.uniform(0.5, 2.0, 2)
    phi = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    pts = np.column_stack([a * np.cos(theta), b * np.sin(theta)]) @ rot.T
    return pts + rng.uniform(-1.0, 1.0, 2)


def geometry_inputs(seed: int) -> dict:
    """Seeded bodies of the geometry workload, as plain arrays."""
    rng = np.random.default_rng([seed, 2])
    pairs, mixed, folds, _ = Geometry2d.counts
    return {
        "pairs": [(_polygon(rng, int(rng.integers(5, 17))),
                   _polygon(rng, int(rng.integers(5, 17)))) for _ in range(pairs)],
        "mixed": [(_polygon(rng, int(rng.integers(5, 17))),
                   rng.uniform(-1.0, 1.0, 2), rng.uniform(0.2, 2.0, 2)) for _ in range(mixed)],
        "folds": [[rng.normal(size=(Geometry2d.fold_vertices, 3))
                   for _ in range(Geometry2d.fold_parts)] for _ in range(folds)],
    }


class Geometry2d(Workload):
    """Fine-grid geometry; sampling, stats and harness idle."""

    name = "geometry-2d"
    threads = 1
    # polygon pairs, mixed sums, folds, CLI hausdorff calls per invocation
    counts = (30, 20, 8, len(HAUSDORFF_CLI))
    ops = sum(counts)
    hausdorff_grid = 4096
    fold_parts = 5
    fold_vertices = 8

    def prepare(self, seed, work):
        args = ["geometry", "--seed", str(seed)]
        for i, (a, b) in enumerate(HAUSDORFF_CLI):
            cfg = work / f"hausdorff{i}.cfg"
            cfg.write_text(f"command = hausdorff\nbody_a = {a}\nbody_b = {b}\n",
                           encoding="utf-8")
            args += ["--config", str(cfg)]
        return args

    def load(self, out):
        return json.loads((out / "results.json").read_text(encoding="utf-8"))

    def check(self, data):
        v = Verdict(self.ops)
        got = tuple(len(data[key]) for key in ("hausdorff", "mixed", "fold", "cli"))
        if got != self.counts:
            v.problem(f"geometry results hold {got} operations, expected {self.counts}")
            v.mark("geometry.missing", np.ones(self.ops))
            return v
        offset = 0
        for i, item in enumerate(data["hausdorff"]):
            a, b = np.array(item["a"]), np.array(item["b"])
            exact = polygon_hausdorff(a, b)
            lip = np.linalg.norm(a, axis=1).max() + np.linalg.norm(b, axis=1).max()
            lower = exact - lip * 2.0 * math.sin(math.pi / (2.0 * item["m"]))
            tol = REL * (1.0 + exact)
            v.mark("geometry.hausdorff_bracket",
                   [not lower - tol <= item["value"] <= exact + tol], offset + i)
        offset += self.counts[0]
        u = uniform_angles_2d(len(data["mixed_directions"]))
        if not np.allclose(np.array(data["mixed_directions"]), u, rtol=0.0, atol=1e-15):
            v.problem("mixed sums are not on the uniform_angles_2d directions")
        for i, item in enumerate(data["mixed"]):
            verts, c, ax = (np.array(item[k]) for k in ("vertices", "center", "axes"))
            expect = (u @ verts.T).max(axis=1) + u @ c + np.sqrt(((u * ax) ** 2).sum(axis=1))
            ok = _close(item["values"], expect, floor=1.0).all()
            v.mark("geometry.mixed_sum", [not ok], offset + i)
        offset += self.counts[1]
        u3 = np.array(data["fold_directions"])
        for i, item in enumerate(data["fold"]):
            expect = sum((u3 @ np.array(p).T).max(axis=1) for p in item["parts"])
            ok = _close(item["values"], expect, floor=1.0).all()
            v.mark("geometry.fold_sum", [not ok], offset + i)
        offset += self.counts[2]
        for i, (item, (a, b)) in enumerate(zip(data["cli"], HAUSDORFF_CLI)):
            try:
                ok = item["rc"] == 0 and float(item["printed"]) == _interval_distance(a, b)
            except ValueError:
                ok = False
            v.mark("cli.hausdorff_print", [not ok], offset + i)
        return v

    def mutations(self, data):
        outside = copy.deepcopy(data)
        item = outside["hausdorff"][0]
        item["value"] = polygon_hausdorff(np.array(item["a"]), np.array(item["b"])) + 1e-9
        below = copy.deepcopy(data)
        item = below["hausdorff"][1]
        item["value"] = polygon_hausdorff(np.array(item["a"]), np.array(item["b"])) * 0.9
        mixed = copy.deepcopy(data)
        mixed["mixed"][0]["values"][17] += 1e-9
        fold = copy.deepcopy(data)
        fold["fold"][0]["values"][5] *= 1.0 + 1e-9
        # the print check is shown against a full-precision print, so that it
        # can fail whether or not the program prints full precision yet
        full = copy.deepcopy(data)
        for item, pair in zip(full["cli"], HAUSDORFF_CLI):
            item["printed"] = repr(_interval_distance(*pair))
        short = copy.deepcopy(full)
        short["cli"][0]["printed"] = f"{_interval_distance(*HAUSDORFF_CLI[0]):g}"
        return [("a Hausdorff value above the exact distance", data, outside),
                ("a Hausdorff value below its bracket", data, below),
                ("one mixed-sum support off by 1e-9", data, mixed),
                ("one folded support off by 1e-9 relative", data, fold),
                ("a CLI distance printed with six digits", full, short)]


WORKLOADS = {w.name: w for w in (WllnRegen(), SllnBlock(), UncorrBox2d(), Geometry2d())}
