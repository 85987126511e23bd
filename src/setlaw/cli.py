"""Batch command-line surface.

Configs are flat ``key = value`` documents (``#`` comments, comma lists).
Every command validates its keys up front: unknown keys, duplicates, and
type mismatches are errors naming the offending key.  Runs emit CSV files
plus a manifest recording the config hash, seed, grid, and version; with
a fixed seed the emitted bytes are identical at any ``--threads`` value.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

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
    VarianceSchedule,
    evaluate_variance_condition,
    test_uncorrelated,
    write_verdict_csv,
)
from .harness import (
    HarnessError,
    SllnConfig,
    WllnConfig,
    plot_series,
    run_slln,
    run_wlln,
    write_plot_series,
    write_slln_detail_csv,
    write_slln_summary_csv,
    write_wlln_detail_csv,
    write_wlln_summary_csv,
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
_FAMILY_KEYS = {
    "family": ("str", True, None),
    "a": ("floatlist", False, (1.0,)),
    "block_dim": ("int", False, None),
    "body": ("str", False, "interval 0 1"),
    "rho": ("float", False, None),
    "growth": ("float", False, 0.0),
    "grid_scheme": ("str", False, None),
    "grid_count": ("int", False, None),
    "grid_seed": ("int", False, 0),
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
                  "grid_scheme": ("str", False, None),
                  "grid_count": ("int", False, None),
                  "grid_seed": ("int", False, 0)},
    "check-cond": {**_FAMILY_KEYS,
                   "family": ("str", False, None),
                   "kind": ("str", True, None),
                   "length": ("int", False, 1000),
                   "variances": ("floatlist", False, None),
                   "bound_m": ("float", False, None),
                   "threshold": ("float", False, 1e-2),
                   "tail_window": ("int", False, 10)},
}

_FAMILY_NAMES = ("ellipsoid_interval", "deterministic", "scaled_iid", "scaled_ar1")


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


def _validate(command: str, params: dict) -> None:
    if command in ("wlln",) and not params["epsilon"] > 0.0:
        raise ConfigError("epsilon must be > 0")
    if "significance" in params and not 0.0 < params["significance"] < 1.0:
        raise ConfigError("significance must be in (0, 1)")
    if "threshold" in params and not params["threshold"] > 0.0:
        raise ConfigError("threshold must be > 0")
    if "family" in params:
        if params["family"] not in _FAMILY_NAMES:
            raise ConfigError(f"family must be one of {_FAMILY_NAMES}")
        if params["family"] == "scaled_ar1" and params.get("rho") is None:
            raise ConfigError("missing required key 'rho' for family scaled_ar1")
    if command == "check-cond":
        if params["kind"] not in ("wlln_eq4", "slln_bounded", "slln_log2"):
            raise ConfigError("kind must be wlln_eq4, slln_bounded, or slln_log2")
        if params["kind"] == "slln_bounded" and params.get("bound_m") is None:
            raise ConfigError("missing required key 'bound_m' for kind slln_bounded")
        if params.get("variances") is None and params.get("family") is None:
            raise ConfigError("check-cond needs either 'variances' or a 'family'")


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
# Command execution
# ---------------------------------------------------------------------------


def _grid_from_params(dim: int, params: dict):
    if dim == 1:
        return None
    scheme = params.get("grid_scheme")
    count = params.get("grid_count")
    if scheme is None and count is None:
        return _default_grid(dim)
    if scheme is None or count is None:
        raise ConfigError("grid_scheme and grid_count must be given together")
    return make_direction_grid(dim, count, scheme, seed=params.get("grid_seed", 0))


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


def _write_manifest(out: Path, config: RunConfig, outputs: list[str],
                    grid_label: str = "-", family_label: str = "-") -> None:
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


def _cmd_wlln(config: RunConfig, out: Path, threads: int, strict: bool) -> int:
    family = _family_from_params(config.params)
    run_cfg = WllnConfig(family, tuple(config.params["n_grid"]),
                         config.params["epsilon"], config.params["replications"],
                         SeedSpec(config.master_seed))
    report = run_wlln(run_cfg, threads=threads,
                      enforce_variance_condition=config.params["enforce_condition"])
    write_wlln_detail_csv(report, out / "wlln_detail.csv")
    write_wlln_summary_csv(report, out / "wlln_summary.csv")
    plots = write_plot_series(plot_series(report), out)
    outputs = ["wlln_detail.csv", "wlln_summary.csv", "manifest.txt"] + plots
    _write_manifest(out, config, outputs, report.metadata["grid"],
                    report.metadata["family"])
    for row in report.rows:
        bound = f" bound={row.bound:.6g}" if row.bound is not None else ""
        ok = "" if row.bound_ok is None else f" ok={'yes' if row.bound_ok else 'NO'}"
        print(f"n={row.n} mean_d_h={row.mean_value:.6g} "
              f"exceedance={row.exceed_freq:.6g}{bound}{ok}")
    if strict and any(row.bound_ok is False for row in report.rows):
        bad = [row.n for row in report.rows if row.bound_ok is False]
        print(f"strict: exceedance above analytic bound at n={bad}", file=sys.stderr)
        return EXIT_STRICT_FAILURE
    return EXIT_OK


def _cmd_slln(config: RunConfig, out: Path, threads: int, strict: bool) -> int:
    family = _family_from_params(config.params)
    run_cfg = SllnConfig(family, config.params["max_n"], config.params["paths"],
                         SeedSpec(config.master_seed),
                         checkpoints=config.params.get("checkpoints"),
                         threshold=config.params["threshold"],
                         median_window=config.params["median_window"])
    report = run_slln(run_cfg, threads=threads)
    write_slln_detail_csv(report, out / "slln_detail.csv")
    write_slln_summary_csv(report, out / "slln_summary.csv")
    plots = write_plot_series(plot_series(report), out)
    outputs = ["slln_detail.csv", "slln_summary.csv", "manifest.txt"] + plots
    _write_manifest(out, config, outputs, report.metadata["grid"],
                    report.metadata["family"])
    final = report.rows[-1]
    print(f"final n={final.n} mean_s_n_over_n={final.mean_value:.6g} "
          f"max={final.max_value:.6g} paths_passed={report.metadata['paths_passed']}")
    if strict and not bool(report.detail["path_pass"].all()):
        print(f"strict: {report.metadata['paths_passed']} paths passed the "
              f"threshold/decrease check", file=sys.stderr)
        return EXIT_STRICT_FAILURE
    return EXIT_OK


def _cmd_test_uncorr(config: RunConfig, out: Path, threads: int, strict: bool) -> int:
    family = _family_from_params(config.params)
    length = config.params["length"]
    reps = [family.sample(length, SeedSpec(config.master_seed, r))
            for r in range(config.params["replications"])]
    grid = None if family.dim == 1 else family.grid
    verdict = test_uncorrelated(reps, grid, config.params["significance"])
    write_verdict_csv(verdict, out / "uncorrelation.csv")
    _write_manifest(out, config, ["uncorrelation.csv", "manifest.txt"],
                    family.grid.label, family.describe(length))
    print(f"verdict={verdict.verdict} max_abs_corr={verdict.max_abs_corr:.6g} "
          f"threshold={verdict.threshold:.6g}")
    if strict and verdict.verdict == "rejected":
        print("strict: uncorrelation rejected", file=sys.stderr)
        return EXIT_STRICT_FAILURE
    return EXIT_OK


def _cmd_sample(config: RunConfig, out: Path, threads: int, strict: bool) -> int:
    family = _family_from_params(config.params)
    sample = family.sample(config.params["length"], SeedSpec(config.master_seed))
    write_set_sample(sample, out / "sample.txt")
    _write_manifest(out, config, ["sample.txt", "manifest.txt"],
                    family.grid.label, family.describe(len(sample)))
    print(f"wrote {len(sample)} bodies to {out / 'sample.txt'}")
    return EXIT_OK


def _cmd_hausdorff(config: RunConfig, out: Path, threads: int, strict: bool) -> int:
    body_a = parse_body(config.params["body_a"])
    body_b = parse_body(config.params["body_b"])
    grid = _grid_from_params(body_a.dim, config.params)
    value = hausdorff_distance(body_a, body_b, grid)
    _write_manifest(out, config, ["manifest.txt"],
                    grid.label if grid is not None else "exact1d count=2")
    print(repr(float(value)))
    return EXIT_OK


def _cmd_check_cond(config: RunConfig, out: Path, threads: int, strict: bool) -> int:
    params = config.params
    if params.get("variances") is not None:
        grid = make_direction_grid(1, 2, "exact1d")
        schedule = VarianceSchedule(grid, list(params["variances"]))
        family_label = "explicit variances"
    else:
        family = _family_from_params(params)
        schedule = VarianceSchedule.from_family(family, params["length"])
        family_label = family.describe(params["length"])
    result = evaluate_variance_condition(
        schedule, params["kind"], bound=params.get("bound_m"),
        threshold=params["threshold"], tail_window=params["tail_window"])
    with open(out / "condition.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write("n,value\n")
        for i, v in enumerate(result.trajectory, start=1):
            fh.write(f"{i},{float(v)!r}\n")
    _write_manifest(out, config, ["condition.csv", "manifest.txt"],
                    schedule.grid.label, family_label)
    print(f"kind={result.kind} satisfied={'yes' if result.satisfied else 'no'} "
          f"({result.note})")
    if strict and not result.satisfied:
        print(f"strict: variance condition {result.kind} not satisfied", file=sys.stderr)
        return EXIT_STRICT_FAILURE
    return EXIT_OK


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
    """Run one command; write its CSVs and manifest; return an exit code."""
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[config.command](config, out, threads, strict)


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
