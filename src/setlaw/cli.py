"""Batch command-line surface.

Configs are flat ``key = value`` documents (``#`` comments, comma lists).
Every command validates its keys up front: unknown keys, duplicates, and
type mismatches are errors naming the offending key.  Runs emit CSV files
plus a manifest recording the config hash, seed, grid, and version; with
a fixed seed the emitted bytes are identical at any ``--threads`` value.
This module writes every output file; ``harness`` and ``stats`` only compute.

Every command runs through :func:`dispatch`.  It builds the family when the
config names one and calls the command's step, which writes the command's
own files and returns an :class:`Outcome`.  Then it writes the manifest,
prints the outcome's stdout text and, under ``--strict``, exits 2 with one
``strict:`` line on stderr when the outcome names a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .geometry import (
    GeometryError,
    hausdorff_distance,
    make_direction_grid,
    parse_body,
    _default_grid,
)
from .sampling import (
    DeterministicFamily,
    EllipsoidIntervalFamily,
    FamilyError,
    ScaledTemplateFamily,
    SeedSpec,
    write_set_sample,
)
from .stats import (
    StatsError,
    UncorrelationVerdict,
    VarianceSchedule,
    evaluate_variance_condition,
    test_uncorrelated,
)
from .harness import (
    ConvergenceReport,
    HarnessError,
    SllnConfig,
    WllnConfig,
    plot_series,
    run_slln,
    run_wlln,
)

USER_ERRORS = (GeometryError, FamilyError, StatsError, HarnessError)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_STRICT_FAILURE = 2


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    master_seed: int
    output_dir: str
    params: dict


# key -> (type, required, default); default None with required=False means
# the key may be absent from params entirely.
_GRID_KEYS = {
    "grid_scheme": ("str", False, None),
    "grid_count": ("int", False, None),
    "grid_seed": ("int", False, 0),
}
_FAMILY_KEYS = {
    "family": ("str", True, None),
    "a": ("floatlist", False, (1.0,)),
    "block_dim": ("int", False, None),
    "body": ("str", False, "interval 0 1"),
    "rho": ("float", False, None),
    "growth": ("float", False, 0.0),
    **_GRID_KEYS,
}

_SCHEMAS = {
    "wlln": {**_FAMILY_KEYS,
             "n_grid": ("intlist", True, None),
             "epsilon": ("float", True, None),
             "replications": ("int", True, None),
             "enforce_condition": ("bool", False, True)},
    "slln": {**_FAMILY_KEYS,
             "max_n": ("int", True, None),
             "paths": ("int", True, None),
             "threshold": ("float", False, 0.05),
             "checkpoints": ("intlist", False, None),
             "median_window": ("int", False, 5)},
    "test-uncorr": {**_FAMILY_KEYS,
                    "length": ("int", True, None),
                    "replications": ("int", True, None),
                    "significance": ("float", False, 0.05)},
    "sample": {**_FAMILY_KEYS,
               "length": ("int", True, None)},
    "hausdorff": {"body_a": ("str", True, None),
                  "body_b": ("str", True, None),
                  **_GRID_KEYS},
    "check-cond": {**_FAMILY_KEYS,
                   "family": ("str", False, None),
                   "kind": ("str", True, None),
                   "length": ("int", False, 1000),
                   "variances": ("floatlist", False, None),
                   "bound_m": ("float", False, None),
                   "threshold": ("float", False, 1e-2),
                   "tail_window": ("int", False, 10)},
}

# the family keys each family reads; a config that writes any other one is an error
_FAMILY_READS = {
    "ellipsoid_interval": ("a", "block_dim"),
    "deterministic": ("body", *_GRID_KEYS),
    "scaled_iid": ("body", "growth", *_GRID_KEYS),
    "scaled_ar1": ("body", "rho", "growth", *_GRID_KEYS),
}
# the check-cond keys each kind never reads
_KIND_SKIPS = {"wlln_eq4": ("bound_m", "tail_window"),
               "slln_bounded": ("threshold", "tail_window"), "slln_log2": ("bound_m",)}


def _convert(key: str, kind: str, raw: str):
    try:
        if kind == "int":
            return int(raw, 10)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "false"):
                return low == "true"
            raise ValueError("expected true or false")
        if kind == "intlist":
            return tuple(int(tok.strip(), 10) for tok in raw.split(","))
        if kind == "floatlist":
            return tuple(float(tok.strip()) for tok in raw.split(","))
        return raw
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind}") from exc


def _refuse_unread(command: str, params: dict, keys, reader: str) -> None:
    """Refuse any of ``keys`` set off the parser's default: the run never reads it."""
    for key in keys:
        if params.get(key) != _SCHEMAS[command][key][2]:
            raise ConfigError(f"key {key!r} is not read {reader}")


def _validate(command: str, params: dict) -> None:
    if command in ("wlln",) and not params["epsilon"] > 0.0:
        raise ConfigError("epsilon must be > 0")
    if "significance" in params and not 0.0 < params["significance"] < 1.0:
        raise ConfigError("significance must be in (0, 1)")
    if "threshold" in params and not params["threshold"] > 0.0:
        raise ConfigError("threshold must be > 0")
    if "length" in params and params["length"] < 1:
        raise ConfigError("key 'length' must be >= 1")
    if "family" in params:
        if params["family"] not in _FAMILY_READS:
            raise ConfigError(f"family must be one of {tuple(_FAMILY_READS)}")
        if params["family"] == "scaled_ar1" and params.get("rho") is None:
            raise ConfigError("missing required key 'rho' for family scaled_ar1")
        reads = ("family", *_FAMILY_READS[params["family"]])
        _refuse_unread(command, params, [k for k in _FAMILY_KEYS if k not in reads],
                       f"by family {params['family']!r}")
    if params.get("grid_scheme") != "seeded_random":
        _refuse_unread(command, params, ["grid_seed"], "unless grid_scheme = seeded_random")
    if command == "check-cond":
        if params["kind"] not in _KIND_SKIPS:
            raise ConfigError("kind must be wlln_eq4, slln_bounded, or slln_log2")
        if params["kind"] == "slln_bounded" and params.get("bound_m") is None:
            raise ConfigError("missing required key 'bound_m' for kind slln_bounded")
        if params.get("variances") is None and params.get("family") is None:
            raise ConfigError("check-cond needs either 'variances' or a 'family'")
        _refuse_unread(command, params, _KIND_SKIPS[params["kind"]], f"by kind {params['kind']!r}")
        if params.get("variances") is not None:
            _refuse_unread(command, params, ["length", *_FAMILY_KEYS], "next to 'variances'")


def parse_config(text: str) -> RunConfig:
    """Parse a flat key=value document into a typed, validated RunConfig."""
    pairs: dict[str, str] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {rawline!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}")
        pairs[key] = value

    command = pairs.pop("command", None)
    if command is None:
        raise ConfigError("missing required key 'command'")
    if command not in _SCHEMAS:
        raise ConfigError(f"unknown command {command!r}; choose from {sorted(_SCHEMAS)}")
    schema = _SCHEMAS[command]

    master_seed = _convert("seed", "int", pairs.pop("seed", "0"))
    output_dir = pairs.pop("out_dir", ".")

    params: dict = {}
    for key, raw in pairs.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for command {command!r}")
        params[key] = _convert(key, schema[key][0], raw)
    for key, (kind, required, default) in schema.items():
        if key in params:
            continue
        if required:
            raise ConfigError(f"missing required key {key!r} for command {command!r}")
        if default is not None:
            params[key] = default
    _validate(command, params)
    return RunConfig(command, master_seed, output_dir, params)


def render_config(config: RunConfig) -> str:
    """Canonical text form; parse_config(render_config(c)) == c."""
    def fmt(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, tuple):
            return ",".join(fmt(v) for v in value)
        if isinstance(value, float):
            return repr(value)
        return str(value)

    lines = [f"command = {config.command}",
             f"seed = {config.master_seed}",
             f"out_dir = {config.output_dir}"]
    lines += [f"{key} = {fmt(config.params[key])}" for key in sorted(config.params)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _write_table(path, header: str, lines) -> None:
    """Write ``header``, then each of ``lines``, as the ``csv`` module would: every
    line ended in CRLF (the fields never need quoting and floats are ``repr``)."""
    lines = iter(lines)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n")
        # a join per 1024 lines: a line end added to each line wrote ~10% slower
        while batch := list(islice(lines, 1024)):
            fh.write("\r\n".join(batch) + "\r\n")


def _write_curve(path, pairs) -> None:
    _write_table(path, "n,value", (f"{n},{float(v)!r}" for n, v in pairs))


def write_wlln_detail_csv(report: ConvergenceReport, path) -> None:
    eps, etxt = report.epsilon, repr(report.epsilon)
    bounds = [(row.n, "" if row.bound is None else repr(row.bound)) for row in report.rows]
    _write_table(path, "n,replication,d_h,epsilon,exceeded,bound",
                 (f"{n},{r},{d!r},{etxt},{int(d > eps)},{btxt}"
                  for n, btxt in bounds
                  for r, d in enumerate(report.detail[n].tolist())))


def write_wlln_summary_csv(report: ConvergenceReport, path) -> None:
    _write_table(path, "n,mean_d_h,max_d_h,exceedance,bound,bound_ok",
                 (f"{row.n},{row.mean_value!r},{row.max_value!r},{row.exceed_freq!r},"
                  f"{'' if row.bound is None else repr(row.bound)},"
                  f"{'' if row.bound_ok is None else int(row.bound_ok)}"
                  for row in report.rows))


def write_slln_detail_csv(report: ConvergenceReport, path) -> None:
    d = report.detail
    square_col = {m * m: j for j, m in enumerate(d["squares"].tolist())}
    cps = d["checkpoints"].tolist()
    # -1 points at the empty interblock field every non-square checkpoint gets
    cols = [square_col.get(n, -1) for n in cps]
    flags = [int(n in square_col) for n in cps]

    def lines():
        # row by row: the whole array as Python floats would add about 7 MB
        for p, (s_row, ib_row) in enumerate(zip(d["s_over_n"], d["interblock_max"])):
            ib = [repr(v) if math.isfinite(v) else "" for v in ib_row.tolist()] + [""]
            yield from (f"{p},{n},{s!r},{flag},{ib[j]}"
                        for n, s, flag, j in zip(cps, s_row.tolist(), flags, cols))

    _write_table(path, "path,n,s_n_over_n,is_square_checkpoint,interblock_max", lines())


def write_slln_summary_csv(report: ConvergenceReport, path) -> None:
    _write_table(path, "n,mean_s_n_over_n,max_s_n_over_n,frac_above_threshold",
                 (f"{row.n},{row.mean_value!r},{row.max_value!r},{row.exceed_freq!r}"
                  for row in report.rows))


def write_plot_series(series: dict[str, list[tuple[int, float]]], directory) -> list[str]:
    names = [f"plot_{name}.csv" for name in series]
    for fname, pairs in zip(names, series.values()):
        _write_curve(f"{directory}/{fname}", pairs)
    return sorted(names)


def write_verdict_csv(verdict: UncorrelationVerdict, path) -> None:
    # the threshold and flag fields are one of two fixed line tails
    tails = tuple(f",{verdict.threshold!r},{flag}" for flag in (0, 1))
    rows = zip(verdict.pairs.tolist(), verdict.covariance.tolist(),
               verdict.correlation.tolist(), verdict.rejected.tolist())
    _write_table(path, "k,l,direction,covariance,correlation,threshold,flag",
                 (f"{k},{l},{j},{cov!r},{corr!r}{tails[flag]}"
                  for (k, l), covs, corrs, flags in rows
                  for j, (cov, corr, flag) in enumerate(zip(covs, corrs, flags))))


def _write_manifest(out: Path, config: RunConfig, outputs: list[str],
                    grid_label: str, family_label: str) -> None:
    digest = hashlib.sha256(render_config(config).encode("utf-8")).hexdigest()
    lines = [
        f"command = {config.command}",
        f"config_sha256 = {digest}",
        f"master_seed = {config.master_seed}",
        f"version = {__version__}",
        f"grid = {grid_label}",
        f"family = {family_label}",
        f"outputs = {','.join(sorted(outputs))}",
    ]
    (out / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------


def _grid_from_params(dim: int, params: dict):
    scheme = params.get("grid_scheme")
    count = params.get("grid_count")
    if scheme is None and count is None:
        return _default_grid(dim)
    if scheme is None or count is None:
        raise ConfigError("grid_scheme and grid_count must be given together")
    try:
        return make_direction_grid(dim, count, scheme, seed=params.get("grid_seed", 0))
    except GeometryError as exc:
        raise ConfigError(f"grid_scheme = {scheme}, grid_count = {count}: {exc}") from None


def _family_from_params(params: dict):
    name = params["family"]
    if name == "ellipsoid_interval":
        return EllipsoidIntervalFamily(tuple(params["a"]), params.get("block_dim"))
    body = parse_body(params["body"])
    grid = _grid_from_params(body.dim, params)
    if name == "deterministic":
        return DeterministicFamily(body, grid)
    if name == "scaled_iid":
        return ScaledTemplateFamily(body, "iid_uniform", growth=params["growth"],
                                    direction_grid=grid)
    return ScaledTemplateFamily(body, "ar1", rho=params["rho"],
                                growth=params["growth"], direction_grid=grid)


class Outcome(NamedTuple):
    """What one command step hands back to :func:`dispatch`."""

    files: list[str]  # written to the output directory, the manifest aside
    grid: str  # the manifest's grid and family labels
    family: str
    stdout: str
    failure: str | None  # why --strict fails the run, or None when it passes


def _law_outcome(report, out: Path, write_detail, write_summary, stdout: str,
                 failure: str | None) -> Outcome:
    """Write a weak- or strong-law report's detail, summary and plot files."""
    files = [f"{report.kind}_detail.csv", f"{report.kind}_summary.csv"]
    write_detail(report, out / files[0])
    write_summary(report, out / files[1])
    files += write_plot_series(plot_series(report), out)
    return Outcome(files, report.metadata["grid"], report.metadata["family"], stdout,
                   failure)


def _cmd_wlln(config: RunConfig, family, out: Path, threads: int) -> Outcome:
    p = config.params
    report = run_wlln(WllnConfig(family, p["n_grid"], p["epsilon"], p["replications"],
                                 SeedSpec(config.master_seed)),
                      threads=threads, enforce_variance_condition=p["enforce_condition"])
    stdout = "\n".join(
        f"n={row.n} mean_d_h={row.mean_value:.6g} exceedance={row.exceed_freq:.6g}"
        + ("" if row.bound is None else f" bound={row.bound:.6g}")
        + ("" if row.bound_ok is None else f" ok={'yes' if row.bound_ok else 'NO'}")
        for row in report.rows)
    bad = [row.n for row in report.rows if row.bound_ok is False]
    return _law_outcome(report, out, write_wlln_detail_csv, write_wlln_summary_csv, stdout,
                        f"exceedance above analytic bound at n={bad}" if bad else None)


def _cmd_slln(config: RunConfig, family, out: Path, threads: int) -> Outcome:
    p = config.params
    report = run_slln(SllnConfig(family, p["max_n"], p["paths"], SeedSpec(config.master_seed),
                                 checkpoints=p.get("checkpoints"), threshold=p["threshold"],
                                 median_window=p["median_window"]),
                      threads=threads)
    final, passed = report.rows[-1], report.metadata["paths_passed"]
    failed = not report.detail["path_pass"].all()
    return _law_outcome(report, out, write_slln_detail_csv, write_slln_summary_csv,
                        f"final n={final.n} mean_s_n_over_n={final.mean_value:.6g} "
                        f"max={final.max_value:.6g} paths_passed={passed}",
                        f"{passed} paths passed the threshold/decrease check"
                        if failed else None)


def _cmd_test_uncorr(config: RunConfig, family, out: Path, threads: int) -> Outcome:
    length = config.params["length"]
    reps = [family.sample(length, SeedSpec(config.master_seed, r))
            for r in range(config.params["replications"])]
    verdict = test_uncorrelated(reps, family.grid, config.params["significance"])
    write_verdict_csv(verdict, out / "uncorrelation.csv")
    return Outcome(["uncorrelation.csv"], family.grid.label, family.describe(length),
                   f"verdict={verdict.verdict} max_abs_corr={verdict.max_abs_corr:.6g} "
                   f"threshold={verdict.threshold:.6g}",
                   "uncorrelation rejected" if verdict.verdict == "rejected" else None)


def _cmd_sample(config: RunConfig, family, out: Path, threads: int) -> Outcome:
    sample = family.sample(config.params["length"], SeedSpec(config.master_seed))
    write_set_sample(sample, out / "sample.txt")
    return Outcome(["sample.txt"], family.grid.label, family.describe(len(sample)),
                   f"wrote {len(sample)} bodies to {out / 'sample.txt'}", None)


def _cmd_hausdorff(config: RunConfig, family, out: Path, threads: int) -> Outcome:
    body_a = parse_body(config.params["body_a"])
    body_b = parse_body(config.params["body_b"])
    grid = _grid_from_params(body_a.dim, config.params)
    value = hausdorff_distance(body_a, body_b, grid)
    return Outcome([], grid.label, "-", repr(float(value)), None)


def _cmd_check_cond(config: RunConfig, family, out: Path, threads: int) -> Outcome:
    params = config.params
    if params.get("variances") is not None:
        schedule = VarianceSchedule(_default_grid(1), list(params["variances"]))
        family_label = "explicit variances"
    else:
        schedule = VarianceSchedule.from_family(family, params["length"])
        family_label = family.describe(params["length"])
    result = evaluate_variance_condition(
        schedule, params["kind"], bound=params.get("bound_m"),
        threshold=params["threshold"], tail_window=params["tail_window"])
    _write_curve(out / "condition.csv", enumerate(result.trajectory.tolist(), start=1))
    return Outcome(["condition.csv"], schedule.grid.label, family_label,
                   f"kind={result.kind} satisfied={'yes' if result.satisfied else 'no'} "
                   f"({result.note})",
                   None if result.satisfied else
                   f"variance condition {result.kind} not satisfied")


_COMMANDS = {
    "wlln": _cmd_wlln,
    "slln": _cmd_slln,
    "test-uncorr": _cmd_test_uncorr,
    "sample": _cmd_sample,
    "hausdorff": _cmd_hausdorff,
    "check-cond": _cmd_check_cond,
}


def dispatch(config: RunConfig, out_dir: str | None = None, threads: int = 1,
             strict: bool = False) -> int:
    """Run one command; write its files and manifest; return an exit code."""
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    family = _family_from_params(config.params) if "family" in config.params else None
    result = _COMMANDS[config.command](config, family, out, threads)
    _write_manifest(out, config, result.files + ["manifest.txt"], result.grid,
                    result.family)
    print(result.stdout)
    if strict and result.failure is not None:
        print(f"strict: {result.failure}", file=sys.stderr)
        return EXIT_STRICT_FAILURE
    return EXIT_OK


def _resolve_threads(flag: int | None) -> int:
    if flag is None:
        env = os.environ.get("SETLAW_THREADS", "").strip()
        try:
            flag = int(env) if env else 0
        except ValueError:
            raise ConfigError(f"SETLAW_THREADS must be an integer, got {env!r}") from None
    if flag < 0:
        raise ConfigError("--threads must be >= 0")
    return flag if flag > 0 else (os.cpu_count() or 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="setlaw",
        description="Set-valued Monte Carlo experiments and convex-body utilities.")
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config master seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes (0 = auto); never changes outputs")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when an acceptance flag fails")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
        config = parse_config(text)
        if args.seed is not None:
            config = replace(config, master_seed=args.seed)
        threads = _resolve_threads(args.threads)
        return dispatch(config, out_dir=args.out, threads=threads, strict=args.strict)
    except (ConfigError, *USER_ERRORS, OSError) as exc:
        print(f"setlaw: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
