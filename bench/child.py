"""One fresh-process invocation of a benchmark workload.

Usage (the benchmark's runner starts this; it is not meant to be typed):

    python3 bench/child.py --report R.json --trace 0|1 [--setup-only] cli -- <setlaw CLI args>
    python3 bench/child.py --report R.json --trace 0|1 [--setup-only] geometry --seed N
        --out DIR --config HAUSDORFF.cfg [--config ...]

``cli`` runs ``setlaw.cli.main`` exactly as the console script does.
``geometry`` makes seeded bodies and calls the ``setlaw.geometry`` API.
``--setup-only`` stops where the first timed operation would start.
Timestamps are CLOCK_MONOTONIC readings, comparable with the parent's:
``t_setup`` marks the start of the first timed operation and ``t_ops_end``
the end of the last one.  ``own_setup_s`` and ``own_s`` are the seconds
this process spent on the benchmark's own work (its modules, inputs and
result files) before ``t_setup`` and in all; the parent takes them out of
``setup_s`` and ``wall_s``.  The report also holds the peak resident set
of this process and of its largest waited-for child (a fork-pool worker).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import resource
import sys
import time
from pathlib import Path

# the library this child must measure: the checkout's own sources
SRC = Path(__file__).resolve().parents[1] / "src"

_own_s = 0.0


@contextlib.contextmanager
def own_work():
    """Time spent in this block is the benchmark's, not the library's."""
    global _own_s
    t = time.monotonic()
    try:
        yield
    finally:
        _own_s += time.monotonic() - t


class SetupDone(BaseException):
    """Raised where the first timed operation of a ``--setup-only`` invocation starts.

    A BaseException, so the CLI's handling of user errors lets it through.
    """


class Boundary:
    """First entry into and last exit from the timed operations."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.start: float | None = None
        self.end: float | None = None
        self.own_setup_s = 0.0

    def begin(self) -> None:
        """The first timed operation starts now."""
        self.start = time.monotonic()
        self.own_setup_s = _own_s
        if self.setup_only:
            raise SetupDone

    def hook(self, fn, start: bool = True, end: bool = True):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if start and self.start is None:
                self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                if end:
                    self.end = time.monotonic()
        return wrapper


def peak_rss_kb() -> int:
    """High-water resident set of this process since it started its program.

    ``ru_maxrss`` would also count the runner's own peak, which a child
    inherits across fork and exec; the kernel's VmHWM does not.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM line in /proc/self/status")


def run_geometry(boundary: Boundary, seed: int, out: Path, cli_configs: list[str],
                 tracer) -> int:
    """Set up, then time every geometry operation and write results.json.

    Returns the number of vertices of the last folded sum.
    """
    from setlaw import cli, geometry

    region = tracer.region if tracer is not None else (lambda name: contextlib.nullcontext())
    with own_work():
        from workloads import Geometry2d, geometry_inputs
        inputs = geometry_inputs(seed)
    grid = geometry.make_direction_grid(2, Geometry2d.hausdorff_grid, "uniform_angles_2d")
    # the first Embedded on a grid fills the grid's lazy validation cache
    geometry.Embedded(geometry.embed(geometry.Polytope(inputs["pairs"][0][0]), grid))
    grid3 = geometry.make_direction_grid(3, 256, "fibonacci_3d")
    boundary.begin()

    # outputs stay numpy arrays until the timed operations are over
    hausdorff, mixed, fold, printed = [], [], [], []
    for va, vb in inputs["pairs"]:
        hausdorff.append(geometry.hausdorff_distance(geometry.Polytope(va),
                                                     geometry.Polytope(vb), grid))
    for verts, center, axes in inputs["mixed"]:
        body = geometry.minkowski_sum(geometry.Polytope(verts),
                                      geometry.Ellipsoid(tuple(center), tuple(axes)))
        mixed.append(body)
    for parts in inputs["folds"]:
        with region("bench.fold3d"):
            folded = geometry.Polytope(parts[0])
            for part in parts[1:]:
                folded = geometry.minkowski_sum(folded, geometry.Polytope(part))
            fold.append(geometry.embed(folded, grid3).values)
    for i, cfg in enumerate(cli_configs):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["--config", cfg, "--out", str(out / f"hausdorff{i}")])
        printed.append({"rc": rc, "printed": buf.getvalue().strip()})
    boundary.end = time.monotonic()

    with own_work():
        results = {
            "hausdorff": [{"a": va.tolist(), "b": vb.tolist(), "m": len(grid), "value": value}
                          for (va, vb), value in zip(inputs["pairs"], hausdorff)],
            "mixed": [{"vertices": verts.tolist(), "center": center.tolist(),
                       "axes": axes.tolist(), "values": body.support.values.tolist()}
                      for (verts, center, axes), body in zip(inputs["mixed"], mixed)],
            "mixed_directions": mixed[-1].grid.matrix.tolist(),
            "fold": [{"parts": [p.tolist() for p in parts], "values": values.tolist()}
                     for parts, values in zip(inputs["folds"], fold)],
            "fold_directions": grid3.matrix.tolist(),
            "cli": printed,
        }
        (out / "results.json").write_text(json.dumps(results, sort_keys=True),
                                          encoding="utf-8")
    return len(folded.vertices)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("mode", choices=("cli", "geometry"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--config", action="append", default=[])
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args(argv)

    import setlaw
    from setlaw import cli, sampling
    if SRC not in Path(setlaw.__file__).resolve().parents:
        print(f"child: imported setlaw from {setlaw.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    boundary = Boundary(args.setup_only)
    fold_vertices = None
    rc = 0
    try:
        if args.mode == "cli":
            cli.run_wlln = boundary.hook(cli.run_wlln)
            cli.run_slln = boundary.hook(cli.run_slln)
            sampling.ScaledTemplateFamily.sample = boundary.hook(
                sampling.ScaledTemplateFamily.sample, end=False)
            cli.test_uncorrelated = boundary.hook(cli.test_uncorrelated, start=False)
            rc = cli.main(args.cli_args)
        else:
            # a failing CLI call is an operation the checks mark failed, so rc stays 0
            fold_vertices = run_geometry(boundary, args.seed, Path(args.out), args.config,
                                         tracer)
    except SetupDone:
        pass

    report = {
        "t_setup": boundary.start,
        "t_ops_end": boundary.end,
        "own_setup_s": boundary.own_setup_s,
        "own_s": _own_s,
        "maxrss_self_kb": peak_rss_kb(),
        "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if fold_vertices is not None:
        report["fold_vertices"] = fold_vertices
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counts"] = tracer.counts
        report["missing_hooks"] = tracer.missing
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
