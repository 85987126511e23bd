"""Spans and counters recorded from outside the library.

The child process installs wrappers at the names the calling modules look
up (``setlaw.cli.run_wlln``, ``setlaw.stats.support_function``, class
attributes such as ``SeedSpec.generator``); the library itself is not
edited.  Spans stay in memory as ``[name, start, end, parent, attrs]``
and are written once when the invocation ends.  The parent process turns
them into the per-layer metrics with :func:`layer_metrics`.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time

# (per-layer metric, unit, better); the order is the order printed
PER_LAYER = (
    ("cli.parse_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.us_per_rep.n10", "us", "lower"),
    ("harness.us_per_rep.n100", "us", "lower"),
    ("harness.us_per_rep.n1000", "us", "lower"),
    ("harness.us_per_path", "us", "lower"),
    ("sampling.draw_us.n10", "us", "lower"),
    ("sampling.draw_us.n100", "us", "lower"),
    ("sampling.draw_us.n1000", "us", "lower"),
    ("sampling.draw_us.path", "us", "lower"),
    ("sampling.stream_us", "us", "lower"),
    ("sampling.draws", "count", "lower"),
    ("sampling.spec_builds_per_draw", "ratio", "lower"),
    ("sampling.sample_s", "s", "lower"),
    ("stats.schedule_s", "s", "lower"),
    ("stats.uncorr_s", "s", "lower"),
    ("stats.tensor_s", "s", "lower"),
    ("stats.cells_per_s", "cells/s", "higher"),
    ("geometry.grid_build_s.m256", "s", "lower"),
    ("geometry.grid_build_s.m4096", "s", "lower"),
    ("geometry.grid_builds", "count", "lower"),
    ("geometry.embedded_first_s", "s", "lower"),
    ("geometry.support_calls", "count", "lower"),
    ("geometry.embed_us", "us", "lower"),
    ("geometry.hausdorff_us", "us", "lower"),
    ("geometry.minkowski_us.mixed2d", "us", "lower"),
    ("geometry.minkowski_us.fold3d", "us", "lower"),
    ("geometry.fold_vertices", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """In-memory span list plus named counters for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._cells: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self.missing: list[str] = []

    def timed(self, name: str, fn, attrs=None):
        """Wrap ``fn`` so every call records a span; ``attrs(*args)`` adds labels."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   attrs(*args, **kwargs) if attrs else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` so calls are counted but not timed (hot scalar calls)."""
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    @property
    def counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._cells.items()}

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr: str, wrap) -> None:
        """Replace ``owner.attr`` by ``wrap(original)``; note names that no longer exist."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else \
            getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(original, classmethod):
            bound = getattr(owner, attr)
            setattr(owner, attr, staticmethod(wrap(bound)))
        else:
            setattr(owner, attr, wrap(original))


def _n_attr(_self, n, *args, **kwargs):
    return {"n": int(n)}


def _grid_attr(dim, count, *args, **kwargs):
    return {"dim": int(dim), "count": int(count)}


def _pair_attr(a, b, *args, **kwargs):
    return {"dim": a.dim, "kind": f"{type(a).__name__}+{type(b).__name__}"}


def _chunks_attr(func, args_list, *args, **kwargs):
    # wlln and slln chunk tuples both read (family, n, seed, lo, hi, ...)
    return {"n": int(args_list[0][1]), "items": int(args_list[-1][4] - args_list[0][3])}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer at the names their callers use."""
    from setlaw import cli, geometry, harness, sampling, stats

    t, c = tracer.timed, tracer.counted
    tracer.patch(cli, "parse_config", lambda f: t("cli.parse", f))
    for attr in ("write_wlln_detail_csv", "write_wlln_summary_csv", "write_plot_series",
                 "write_slln_detail_csv", "write_slln_summary_csv", "write_verdict_csv",
                 "_write_manifest"):
        tracer.patch(cli, attr, lambda f: t("cli.write", f))
    tracer.patch(cli, "run_wlln", lambda f: t("harness.run_wlln", f))
    tracer.patch(cli, "run_slln", lambda f: t("harness.run_slln", f))
    tracer.patch(harness, "_map_chunks", lambda f: t("harness.chunks", f, _chunks_attr))

    tracer.patch(sampling.EllipsoidIntervalFamily, "support_draws",
                 lambda f: t("sampling.draw", f, _n_attr))
    tracer.patch(sampling.ScaledTemplateFamily, "sample",
                 lambda f: t("sampling.sample", f))
    tracer.patch(sampling.SeedSpec, "generator", lambda f: t("sampling.stream", f))
    tracer.patch(sampling.EllipsoidFamilySpec, "__post_init__",
                 lambda f: c("sampling.spec_builds", f))

    tracer.patch(stats.VarianceSchedule, "from_family", lambda f: t("stats.schedule", f))
    tracer.patch(harness, "evaluate_variance_condition", lambda f: t("stats.schedule", f))
    tracer.patch(cli, "test_uncorrelated", lambda f: t("stats.uncorr", f))
    # the support tensor alone, as VarianceSchedule.empirical also computes it
    tracer.patch(stats, "_support_tensor", lambda f: t("stats.tensor", f))

    for mod in (geometry, cli):
        tracer.patch(mod, "make_direction_grid",
                     lambda f: t("geometry.grid_build", f, _grid_attr))
        tracer.patch(mod, "hausdorff_distance", lambda f: t("geometry.hausdorff", f, _pair_attr))
    for mod in (geometry, stats):
        tracer.patch(mod, "support_function", lambda f: c("geometry.support_calls", f))
    for mod in (geometry, stats, sampling):
        tracer.patch(mod, "embed", lambda f: t("geometry.embed", f))
    tracer.patch(geometry, "minkowski_sum", lambda f: t("geometry.minkowski", f, _pair_attr))
    tracer.patch(geometry.Embedded, "__init__", lambda f: t("geometry.embedded", f))


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics (runs in the parent process)
# ---------------------------------------------------------------------------


def _dur(span) -> float:
    return span[2] - span[1]


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(report: dict, ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation of ``ops`` operations.

    ``report`` is the child's record (spans and counts).  A layer
    that a workload leaves idle reads 0.
    """
    spans = report["spans"]
    counts = report["counts"]
    # enclosing harness run of each span, and whether a sampling/stats span
    # already encloses it below that run (so self time is not subtracted twice)
    run_of = [-1] * len(spans)
    under_sub = [False] * len(spans)
    for i, (name, _s, _e, parent, _a) in enumerate(spans):
        if parent >= 0:
            run_of[i] = parent if spans[parent][0].startswith("harness.run") else run_of[parent]
            under_sub[i] = under_sub[parent] or (
                run_of[parent] >= 0 and spans[parent][0].split(".")[0] in ("sampling", "stats"))

    def named(name, run=None):
        return [s for i, s in enumerate(spans) if s[0] == name and
                (run is None or (run_of[i] >= 0 and spans[run_of[i]][0] == run))]

    out: dict[str, float] = {}
    out["cli.parse_s"] = math.fsum(map(_dur, named("cli.parse")))
    out["cli.write_s"] = math.fsum(map(_dur, named("cli.write")))
    nested = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if run_of[i] >= 0 and not under_sub[i] and s[0].split(".")[0] in ("sampling", "stats"):
            nested[run_of[i]] += _dur(s)
    out["harness.self_s"] = math.fsum(_dur(s) - nested[i] for i, s in enumerate(spans)
                                      if s[0].startswith("harness.run"))

    chunks_w = named("harness.chunks", "harness.run_wlln")
    draws_w = named("sampling.draw", "harness.run_wlln")
    for n in (10, 100, 1000):
        ch = [s for s in chunks_w if s[4]["n"] == n]
        items = sum(s[4]["items"] for s in ch)
        out[f"harness.us_per_rep.n{n}"] = 1e6 * math.fsum(map(_dur, ch)) / items if items else 0.0
        out[f"sampling.draw_us.n{n}"] = 1e6 * _mean([_dur(s) for s in draws_w
                                                     if s[4]["n"] == n])
    chunks_s = named("harness.chunks", "harness.run_slln")
    paths = sum(s[4]["items"] for s in chunks_s)
    out["harness.us_per_path"] = 1e6 * math.fsum(map(_dur, chunks_s)) / paths if paths else 0.0
    out["sampling.draw_us.path"] = 1e6 * _mean(
        [_dur(s) for s in named("sampling.draw", "harness.run_slln")])
    out["sampling.stream_us"] = 1e6 * _mean([_dur(s) for s in named("sampling.stream")])
    draws = len(named("sampling.draw"))
    out["sampling.draws"] = float(draws)
    out["sampling.spec_builds_per_draw"] = (counts.get("sampling.spec_builds", 0) / draws
                                            if draws else 0.0)
    out["sampling.sample_s"] = math.fsum(map(_dur, named("sampling.sample")))
    out["stats.schedule_s"] = math.fsum(map(_dur, named("stats.schedule")))
    uncorr = math.fsum(map(_dur, named("stats.uncorr")))
    tensor = math.fsum(map(_dur, named("stats.tensor")))
    out["stats.uncorr_s"] = uncorr
    out["stats.tensor_s"] = tensor
    # an uncorrelation run's operations are its tested cells
    loop = uncorr - tensor
    out["stats.cells_per_s"] = ops / loop if uncorr > 0.0 and loop > 0.0 else 0.0

    grids = named("geometry.grid_build")
    for m in (256, 4096):
        out[f"geometry.grid_build_s.m{m}"] = _mean([_dur(s) for s in grids
                                                   if s[4]["count"] == m])
    out["geometry.grid_builds"] = float(len(grids))
    embedded = named("geometry.embedded")
    out["geometry.embedded_first_s"] = _dur(embedded[0]) if embedded else 0.0
    out["geometry.support_calls"] = float(counts.get("geometry.support_calls", 0))
    out["geometry.embed_us"] = 1e6 * _mean([_dur(s) for s in named("geometry.embed")])
    out["geometry.hausdorff_us"] = 1e6 * _mean([_dur(s) for s in named("geometry.hausdorff")
                                                if s[4]["dim"] >= 2])
    out["geometry.minkowski_us.mixed2d"] = 1e6 * _mean(
        [_dur(s) for s in named("geometry.minkowski")
         if s[4]["dim"] == 2 and s[4]["kind"] in ("Polytope+Ellipsoid", "Ellipsoid+Polytope")])
    out["geometry.minkowski_us.fold3d"] = 1e6 * _mean([_dur(s) for s in named("bench.fold3d")])
    out["geometry.fold_vertices"] = float(report.get("fold_vertices", 0))
    return out
