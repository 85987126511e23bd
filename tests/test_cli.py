import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from setlaw.cli import (
    _COMMANDS,
    ConfigError,
    EXIT_OK,
    EXIT_STRICT_FAILURE,
    dispatch,
    main,
    parse_config,
    render_config,
)

WLLN_TEXT = """\
# weak-law run on the coupled interval family
command = wlln
seed = 42
family = ellipsoid_interval
a = 1
n_grid = 10,50
epsilon = 0.5
replications = 150
"""

SLLN_TEXT = """\
command = slln
seed = 7
family = ellipsoid_interval
a = 1
block_dim = 8
max_n = 400
paths = 6
"""


def _run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "setlaw", *args],
                          capture_output=True, text=True, env=env)


def _dir_bytes(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


# -- config parsing ------------------------------------------------------------

def test_parse_wlln_config():
    config = parse_config(WLLN_TEXT)
    assert config.command == "wlln"
    assert config.master_seed == 42
    assert config.params["n_grid"] == (10, 50)
    assert config.params["epsilon"] == 0.5
    assert config.params["a"] == (1.0,)
    assert config.params["enforce_condition"] is True


def test_round_trip_is_identity():
    others = (
        "command = hausdorff\nbody_a = interval 0 1\nbody_b = interval -0.25 3\n",
        "command = check-cond\nseed = 9\nkind = slln_log2\nvariances = 0.5,0.25\n",
        "command = sample\nseed = 3\nfamily = scaled_ar1\nbody = box 2 0 0 1 2\n"
        "rho = 0.85\ngrowth = 0.5\nlength = 7\nout_dir = somewhere\n",
        "command = test-uncorr\nseed = 2\nfamily = deterministic\n"
        "body = polytope 2 3 0 0 1 0 0 1\ngrid_scheme = uniform_angles_2d\n"
        "grid_count = 8\nlength = 3\nreplications = 50\nsignificance = 0.01\n",
    )
    for text in (WLLN_TEXT, SLLN_TEXT) + others:
        config = parse_config(text)
        assert parse_config(render_config(config)) == config


def test_missing_required_key_names_it():
    broken = WLLN_TEXT.replace("epsilon = 0.5\n", "")
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config(broken)


def test_negative_epsilon_rejected():
    with pytest.raises(ConfigError, match="epsilon must be > 0"):
        parse_config(WLLN_TEXT.replace("epsilon = 0.5", "epsilon = -1"))


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(WLLN_TEXT + "epsilon = 0.7\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="wibble"):
        parse_config(WLLN_TEXT + "wibble = 3\n")


def test_type_mismatch_names_key():
    with pytest.raises(ConfigError, match="replications"):
        parse_config(WLLN_TEXT.replace("replications = 150", "replications = many"))


def test_unknown_command_rejected():
    with pytest.raises(ConfigError, match="command"):
        parse_config("command = dance\nseed = 1\n")


def test_missing_rho_for_ar1():
    text = "command = sample\nseed = 1\nfamily = scaled_ar1\nlength = 5\n"
    with pytest.raises(ConfigError, match="rho"):
        parse_config(text)


# -- dispatch ---------------------------------------------------------------------

def test_hausdorff_prints_gap(capsys, tmp_path):
    # the printed value is repr(float), as in the CSVs, so no digits are lost
    for body_a, body_b, printed in (("interval 0 1", "interval 0 3", "2.0"),
                                    ("interval 0 1.123456789", "interval 0 0",
                                     "1.123456789")):
        config = parse_config(
            f"command = hausdorff\nbody_a = {body_a}\nbody_b = {body_b}\n")
        code = dispatch(config, out_dir=str(tmp_path))
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == printed
        assert (tmp_path / "manifest.txt").exists()


def test_console_script_entry_point_runs(capsys, tmp_path):
    # the `setlaw` command that an install makes calls this target
    import importlib
    import tomllib
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["setlaw"]
    module, name = target.split(":")
    entry = getattr(importlib.import_module(module), name)
    cfg = tmp_path / "gap.cfg"
    cfg.write_text("command = hausdorff\nbody_a = interval 0 1\nbody_b = interval 0 3\n")
    assert entry(["--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert capsys.readouterr().out == "2.0\n"


def test_wlln_writes_expected_files(tmp_path):
    config = parse_config(WLLN_TEXT)
    assert dispatch(config, out_dir=str(tmp_path)) == EXIT_OK
    names = {p.name for p in tmp_path.iterdir()}
    assert {"wlln_detail.csv", "wlln_summary.csv", "manifest.txt",
            "plot_mean_d_h.csv", "plot_exceedance.csv", "plot_bound.csv"} <= names
    detail = (tmp_path / "wlln_detail.csv").read_text().splitlines()
    assert detail[0] == "n,replication,d_h,epsilon,exceeded,bound"
    assert len(detail) == 1 + 2 * 150
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "config_sha256 = " in manifest
    assert "master_seed = 42" in manifest


def test_wlln_detail_csv_is_self_consistent(tmp_path):
    import csv
    config = parse_config(WLLN_TEXT)
    dispatch(config, out_dir=str(tmp_path))
    with open(tmp_path / "wlln_detail.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # the exceeded flag and summary statistics must be recomputable from d_h
    per_n = {}
    for row in rows:
        d = float(row["d_h"])
        assert int(row["exceeded"]) == (d > float(row["epsilon"]))
        per_n.setdefault(int(row["n"]), []).append(d)
    with open(tmp_path / "wlln_summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    for srow in summary:
        ds = per_n[int(srow["n"])]
        # np.mean sums pairwise, the naive recomputation left to right
        assert float(srow["mean_d_h"]) == pytest.approx(sum(ds) / len(ds), rel=1e-13)
        assert float(srow["max_d_h"]) == max(ds)


def test_sample_round_trips_through_cli(tmp_path):
    from setlaw import read_set_sample
    config = parse_config(
        "command = sample\nseed = 5\nfamily = ellipsoid_interval\n"
        "a = 1,2\nblock_dim = 4\nlength = 8\n")
    assert dispatch(config, out_dir=str(tmp_path)) == EXIT_OK
    sample = read_set_sample(tmp_path / "sample.txt")
    assert len(sample) == 8
    assert sample.seed.master_seed == 5


def test_test_uncorr_command(capsys, tmp_path):
    config = parse_config(
        "command = test-uncorr\nseed = 11\nfamily = ellipsoid_interval\n"
        "a = 1\nblock_dim = 4\nlength = 4\nreplications = 400\n")
    assert dispatch(config, out_dir=str(tmp_path)) == EXIT_OK
    assert "verdict=consistent" in capsys.readouterr().out
    header = (tmp_path / "uncorrelation.csv").read_text().splitlines()[0]
    assert header == "k,l,direction,covariance,correlation,threshold,flag"


def test_check_cond_command(capsys, tmp_path):
    config = parse_config(
        "command = check-cond\nseed = 1\nkind = wlln_eq4\n"
        "variances = 1,1,1,1,1,1,1,1\nthreshold = 0.2\n")
    assert dispatch(config, out_dir=str(tmp_path)) == EXIT_OK
    assert "satisfied=yes" in capsys.readouterr().out
    lines = (tmp_path / "condition.csv").read_text().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 9


STRICT_FAILURES = {
    # correlated growing family: exceedances blow past the uncorrelated bound
    "wlln": "command = wlln\nseed = 2\nfamily = scaled_ar1\nbody = interval 0 4\n"
            "rho = 0.9\ngrowth = 0.5\nn_grid = 100,400\nepsilon = 0.4\n"
            "replications = 120\nenforce_condition = false\n",
    # bounded variances pass both variance checks, yet most paths fail
    "slln": "command = slln\nseed = 1\nfamily = scaled_ar1\nbody = interval 0 4\n"
            "rho = 0.99\nmax_n = 400\npaths = 16\n",
    "test-uncorr": "command = test-uncorr\nseed = 1\nfamily = scaled_ar1\n"
                   "body = interval 0 1\nrho = 0.9\nlength = 4\nreplications = 400\n",
    "check-cond": "command = check-cond\nkind = wlln_eq4\nvariances = 1,1,1\n",
}


@pytest.mark.parametrize("command", sorted(STRICT_FAILURES))
def test_strict_flags_failure_exits_nonzero(command, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(STRICT_FAILURES[command])
    args = ["--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "1"]
    assert main(args) == EXIT_OK  # not strict
    assert capsys.readouterr().err == ""
    assert main(args + ["--strict"]) == EXIT_STRICT_FAILURE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("strict: "), err


def test_strict_ok_run_exits_zero(tmp_path):
    # sample and hausdorff have no acceptance check, so strict never fails them;
    # a deterministic family has every gap 0 and a bound of 0
    for text in (WLLN_TEXT,
                 "command = wlln\nfamily = deterministic\nbody = box 2 0 0 1 2\n"
                 "grid_scheme = uniform_angles_2d\ngrid_count = 8\nn_grid = 5,20\n"
                 "epsilon = 0.1\nreplications = 100\n",
                 "command = sample\nfamily = scaled_ar1\nrho = 0.99\nlength = 5\n",
                 "command = hausdorff\nbody_a = interval 0 1\nbody_b = interval 2 5\n"):
        config = parse_config(text)
        assert dispatch(config, out_dir=str(tmp_path), strict=True) == EXIT_OK


def test_every_command_has_a_golden_case():
    from test_golden import CASES, CONFIGS
    pinned = {parse_config(CONFIGS[name]).command for name, _ in CASES}
    assert set(_COMMANDS) <= pinned, sorted(set(_COMMANDS) - pinned)


# -- process-level behavior ---------------------------------------------------------

def test_cli_end_to_end_repeatable_bytes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WLLN_TEXT)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    r1 = _run_cli(["--config", str(cfg), "--out", str(out1)])
    r2 = _run_cli(["--config", str(cfg), "--out", str(out2)])
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
    assert _dir_bytes(out1) == _dir_bytes(out2)


def test_seed_override_changes_outputs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WLLN_TEXT)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["--config", str(cfg), "--out", str(out2), "--seed", "43"]) == EXIT_OK
    assert _dir_bytes(out1) != _dir_bytes(out2)
    assert "master_seed = 43" in (out2 / "manifest.txt").read_text().splitlines()


def test_threads_flag_and_env_do_not_change_bytes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SLLN_TEXT)
    outs = [tmp_path / f"o{i}" for i in range(4)]
    r0 = _run_cli(["--config", str(cfg), "--out", str(outs[0]), "--threads", "1"])
    r1 = _run_cli(["--config", str(cfg), "--out", str(outs[1]), "--threads", "2"])
    r2 = _run_cli(["--config", str(cfg), "--out", str(outs[2])],
                  env_extra={"SETLAW_THREADS": "3"})
    r3 = _run_cli(["--config", str(cfg), "--out", str(outs[3]), "--threads", "0"])
    for r in (r0, r1, r2, r3):
        assert r.returncode == 0, r.stderr
    first = _dir_bytes(outs[0])
    assert all(_dir_bytes(out) == first for out in outs[1:])


@pytest.mark.parametrize("text", [
    # 25 strong-law chunks of 8 paths, and 10 weak-law chunks of 256 replications per n:
    # many chunks per worker thread at 2 workers
    SLLN_TEXT.replace("paths = 6", "paths = 200").replace("max_n = 400", "max_n = 100"),
    WLLN_TEXT.replace("replications = 150", "replications = 2560").replace("10,50", "5,20"),
], ids=["slln", "wlln"])
def test_batched_pool_tasks_do_not_change_bytes(text, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    outs = [tmp_path / f"t{threads}" for threads in (1, 2)]
    for threads, out in zip((1, 2), outs):
        assert main(["--config", str(cfg), "--out", str(out),
                     "--threads", str(threads)]) == EXIT_OK
    assert _dir_bytes(outs[0]) == _dir_bytes(outs[1])


def test_no_hidden_state_between_invocations(tmp_path):
    # two dispatches in one process must equal two separate-process runs
    cfg_text = WLLN_TEXT
    config = parse_config(cfg_text)
    in_proc = []
    for name in ("a", "b"):
        out = tmp_path / f"inproc-{name}"
        assert dispatch(config, out_dir=str(out)) == EXIT_OK
        in_proc.append(_dir_bytes(out))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out_sub = tmp_path / "subproc"
    result = _run_cli(["--config", str(cfg), "--out", str(out_sub), "--threads", "1"])
    assert result.returncode == 0, result.stderr
    assert in_proc[0] == in_proc[1] == _dir_bytes(out_sub)


def test_cli_error_is_one_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(WLLN_TEXT.replace("epsilon = 0.5\n", ""))
    result = _run_cli(["--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.returncode == 1
    assert "epsilon" in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1


def test_overlapping_median_windows_are_one_line_error(tmp_path, capsys):
    # max_n = 400 gives 20 checkpoints, so windows above 10 would overlap
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SLLN_TEXT + "median_window = 11\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("setlaw: ") and "median_window" in err[0]


def test_bad_threads_env_is_one_line_error(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WLLN_TEXT)
    monkeypatch.setenv("SETLAW_THREADS", "abc")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("setlaw: ") and "SETLAW_THREADS" in err[0]
    assert not (tmp_path / "o").exists()


def _one_error_line(result) -> str:
    assert result.returncode == 1
    err = result.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("setlaw: "), result.stderr
    return err[0]


def test_config_that_is_not_utf8_is_one_line_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"command = hausdorff\nbody_a = interval 0 1\nbody_b = interval 0 \xff\n")
    result = _run_cli(["--config", str(cfg), "--out", str(tmp_path / "o")])
    assert f"config {cfg} is not UTF-8 text (byte 62: " in _one_error_line(result)
    assert not (tmp_path / "o").exists()


def test_config_with_a_byte_order_mark_runs(tmp_path):
    # the mark is dropped; a bad byte after it still counts from the file's start
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfcommand = hausdorff\nbody_a = interval 0 1\n"
                    b"body_b = interval 0 2\n")
    result = _run_cli(["--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1.0\n"
    cfg.write_bytes(b"\xef\xbb\xbfcommand = hausdorff\nbody_a = interval 0 1\n"
                    b"body_b = interval 0 \xff\n")
    result = _run_cli(["--config", str(cfg), "--out", str(tmp_path / "p")])
    assert f"config {cfg} is not UTF-8 text (byte 65: " in _one_error_line(result)


def test_variance_condition_refusal_names_the_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = wlln\nfamily = ellipsoid_interval\nblock_dim = 3\n"
                   "n_grid = 10\nepsilon = 0.5\nreplications = 100\n")
    line = _one_error_line(_run_cli(["--config", str(cfg), "--out", str(tmp_path / "o")]))
    assert "violates the variance condition" in line
    assert "enforce_condition = false" in line
    assert not (tmp_path / "o").exists()


def test_negative_grid_seed_is_one_line_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = test-uncorr\nseed = 1\nfamily = scaled_iid\n"
                   "body = box 2 0 0 1 1\ngrid_scheme = seeded_random\ngrid_count = 8\n"
                   "grid_seed = -1\nlength = 3\nreplications = 100\n")
    assert "seed" in _one_error_line(_run_cli(["--config", str(cfg), "--out",
                                               str(tmp_path / "o")]))


@pytest.mark.parametrize("growth", ["400", "inf", "nan", "-inf"])
def test_bad_growth_is_one_line_error_without_warnings(growth, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = wlln\nseed = 1\nfamily = scaled_iid\nbody = interval 0 1\n"
                   f"growth = {growth}\nn_grid = 10\nepsilon = 0.5\nreplications = 100\n")
    assert "growth" in _one_error_line(_run_cli(["--config", str(cfg), "--out",
                                                 str(tmp_path / "o")]))


_HUGE_INTERVAL = "body = interval -1e200 1e200\n"
_HUGE_SCALED = "family = scaled_iid\n" + _HUGE_INTERVAL
_HUGE_BLOCKS = "family = ellipsoid_interval\na = 1e200\nblock_dim = 4\n"
_OVERFLOW_COMMANDS = {
    "check-cond": "command = check-cond\nkind = wlln_eq4\nlength = 10\n",
    "wlln": "command = wlln\nn_grid = 10\nepsilon = 0.5\nreplications = 100\n",
    "slln": "command = slln\nmax_n = 100\npaths = 4\n",
}


@pytest.mark.parametrize("command,family", [
    *((command, _HUGE_SCALED) for command in _OVERFLOW_COMMANDS.values()),
    *((command, _HUGE_BLOCKS) for command in _OVERFLOW_COMMANDS.values()),
], ids=[*_OVERFLOW_COMMANDS, *(f"{name}-ellipsoid" for name in _OVERFLOW_COMMANDS)])
def test_overflowing_variances_are_one_line_error(command, family, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(command + family)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == ["setlaw: variance entries must be finite"]
    assert not (tmp_path / "o").exists()


def test_huge_grid_count_is_one_line_error_before_it_allocates(tmp_path):
    # a child limited to 1 GiB of address space: the grid must be refused before
    # its arrays (7.28 TiB for these directions) are asked for
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = hausdorff\nbody_a = box 2 0 0 1 1\nbody_b = box 2 0 0 2 2\n"
                   "grid_scheme = seeded_random\ngrid_count = 1000000000000\n")
    result = subprocess.run([sys.executable, "-m", "setlaw", "--config", str(cfg),
                             "--out", str(tmp_path / "o")],
                            capture_output=True, text=True, preexec_fn=limit)
    assert "1000000000000" in _one_error_line(result)
    assert not (tmp_path / "o").exists()


def test_family_condition_on_a_fine_grid_runs_in_one_gib(tmp_path):
    # a child limited to 1 GiB of address space: a (length, grid_count)
    # variance table would take 625 MiB and its cumulative sum as much again;
    # the family's schedule is one column of 20000 values
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = check-cond\nkind = wlln_eq4\nfamily = scaled_iid\n"
                   "body = box 2 -1 -0.5 1 2\ngrid_scheme = uniform_angles_2d\n"
                   "grid_count = 4096\nlength = 20000\n")
    result = subprocess.run([sys.executable, "-m", "setlaw", "--config", str(cfg),
                             "--out", str(tmp_path / "o")],
                            capture_output=True, text=True, preexec_fn=limit)
    assert result.returncode == 0, result.stderr
    assert "satisfied=yes" in result.stdout
    rows = (tmp_path / "o" / "condition.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 20001  # a header and one row per index


def test_strong_law_on_a_huge_body_runs(tmp_path, capsys):
    """Its variances are 1e308 / 12, but its variance sums stay finite."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = slln\nfamily = scaled_iid\nbody = interval -1e154 1e154\n"
                   "max_n = 100\npaths = 4\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "paths_passed=0/4" in captured.out, captured


def test_regenerated_intervals_clamp_huge_axes(tmp_path, capsys):
    """Regenerated mode clamps each semi-axis to sqrt(n), so a huge one runs as
    any axis above sqrt(max_n) does."""
    outs = {}
    for a in ("1e200", "1e6"):
        cfg = tmp_path / f"run-{a}.cfg"
        cfg.write_text(f"command = slln\nfamily = ellipsoid_interval\na = {a}\n"
                       "max_n = 100\npaths = 4\n")
        out = tmp_path / f"o-{a}"
        assert main(["--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
        outs[a] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert capsys.readouterr().err == ""
    assert outs["1e200"] and outs["1e200"] == outs["1e6"]


@pytest.mark.parametrize("family,epsilon", [
    ("family = ellipsoid_interval\n", "1e-300"),
    ("family = scaled_iid\nbody = interval 0 1\n", "1e-300"),
    # the sum of 20 variances of 1.1e154^2 / 12 overflows
    ("family = scaled_iid\nbody = interval -1.1e154 1.1e154\nenforce_condition = false\n",
     "0.5"),
], ids=["ellipsoid-interval", "scaled-interval", "huge-scaled-interval"])
def test_tiny_epsilon_gives_an_infinite_bound(family, epsilon, tmp_path, capsys):
    """An (epsilon n)^2 that underflows to 0, or a variance sum that overflows,
    gives bound inf, as a tiny epsilon above the underflow does, not a
    ZeroDivisionError or a warning."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command = wlln\n{family}n_grid = 10\nepsilon = {epsilon}\n"
                   "replications = 100\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.endswith(" bound=inf ok=yes\n"), captured


def test_constant_family_of_a_huge_body_has_zero_variances(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = wlln\nn_grid = 10\nepsilon = 0.5\nreplications = 100\n"
                   "family = deterministic\n" + _HUGE_INTERVAL)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "1"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("n=10 mean_d_h=0 exceedance=0 bound=0 ok=yes\n", "")


@pytest.mark.parametrize("length", [0, -1])
@pytest.mark.parametrize("command,family", [
    ("check-cond", "family = scaled_iid\nbody = box 2 0 0 1 1\n"
                   "grid_scheme = uniform_angles_2d\ngrid_count = 8\nkind = wlln_eq4\n"),
    ("test-uncorr", "family = ellipsoid_interval\nreplications = 100\n"),
    ("sample", "family = ellipsoid_interval\n"),
], ids=["check-cond", "test-uncorr", "sample"])
def test_empty_length_is_one_line_error(command, family, length, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command = {command}\n{family}length = {length}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("setlaw: ") and "length" in err[0], err


@pytest.mark.parametrize("tail_window", [0, -3])
def test_empty_tail_window_is_one_line_error(tail_window, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = check-cond\nfamily = ellipsoid_interval\nkind = slln_log2\n"
                   f"length = 50\ntail_window = {tail_window}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("setlaw: ") and "tail_window" in err[0], err


@pytest.mark.parametrize("strict", [[], ["--strict"]])
def test_one_entry_log2_schedule_is_one_line_error(strict, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = check-cond\nkind = slln_log2\nvariances = 5\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), *strict]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("setlaw: ") and "2 entries" in err[0], err
    assert "satisfied" not in captured.out


_BOX_UNCORR = ("command = test-uncorr\nfamily = scaled_iid\nbody = box 2 0 0 1 1\n"
               "grid_scheme = uniform_angles_2d\ngrid_count = 8\nlength = 3\n"
               "replications = 100\n")


_VARIANCES = "command = check-cond\nkind = wlln_eq4\nvariances = 1,1,1\n"
_BOUNDED = "command = check-cond\nkind = slln_bounded\nbound_m = 1\nvariances = 0.5,0.25\n"

# (id, config, key): each config writes a key its run never reads, off its default
_UNREAD = [
    ("uniform-grid_seed", _BOX_UNCORR + "grid_seed = 5\n", "grid_seed"),
    ("default-grid-grid_seed", _BOX_UNCORR.replace("grid_scheme = uniform_angles_2d\n"
                                                   "grid_count = 8\n", "grid_seed = 5\n"),
     "grid_seed"),
    ("variances-family", _VARIANCES + "family = scaled_iid\nbody = interval 0 4\n", "family"),
    ("variances-a", _VARIANCES + "a = 2\n", "a"),
    ("variances-length", _VARIANCES + "length = 7\n", "length"),
    ("wlln_eq4-bound_m", _VARIANCES + "bound_m = 3\n", "bound_m"),
    ("slln_bounded-tail_window", _BOUNDED + "tail_window = 4\n", "tail_window"),
    ("slln_bounded-threshold", _BOUNDED + "threshold = 0.5\n", "threshold"),
]
_GRID_1D = "command = sample\nfamily = deterministic\nbody = interval 0 1\nlength = 3\n"
# 1 - alpha/2 rounds to 1, so the z quantile is no float
_TINY_SIGNIFICANCE = ("command = test-uncorr\nfamily = ellipsoid_interval\na = 1\n"
                      "block_dim = 4\nlength = 4\nreplications = 30\nsignificance = 1e-17\n")
_BOUNDED_BY = "command = check-cond\nkind = slln_bounded\nvariances = 1,1,1\nbound_m = "
# variances of 1e308 / 12 over n = 100: the weak-law variance sum overflows
_HUGE_WLLN = ("command = wlln\nfamily = scaled_iid\nbody = interval -1e154 1e154\n"
              "n_grid = 10,100\nepsilon = 0.5\nreplications = 100\n")
_HAUSDORFF = "command = hausdorff\nbody_a = {}\nbody_b = {}\n"
_UNCORR_OVERFLOW = "command = test-uncorr\nlength = 4\nreplications = 50\n"


@pytest.mark.parametrize("text,args,names", [
    (WLLN_TEXT, ["--threads", "-1"], "--threads"),
    (WLLN_TEXT + "replications 150\n", [], "expected 'key = value'"),
    (WLLN_TEXT + " = 3\n", [], "empty key"),
    (WLLN_TEXT.replace("command = wlln\n", ""), [], "'command'"),
    (_BOX_UNCORR.replace("grid_count = 8\n", ""), [], "grid_count"),
    (_BOX_UNCORR + "significance = 1.5\n", [], "significance"),
    (SLLN_TEXT + "threshold = 0\n", [], "threshold"),
    (WLLN_TEXT + "enforce_condition = maybe\n", [], "enforce_condition"),
    ("command = check-cond\nkind = slln_mean\nvariances = 0.5,0.25\n", [], "kind"),
    ("command = check-cond\nkind = slln_bounded\nvariances = 0.5,0.25\n", [], "bound_m"),
    ("command = check-cond\nkind = slln_log2\n", [], "'variances'"),
    (_GRID_1D + "grid_scheme = seeded_random\ngrid_count = 8\n", [], "grid_scheme"),
    (_GRID_1D + "grid_scheme = exact1d\ngrid_count = 8\n", [], "grid_count"),
    ("command = hausdorff\nbody_a = interval 0 1\nbody_b = interval 0 3\n"
     "grid_scheme = uniform_angles_2d\ngrid_count = 8\n", [], "grid_scheme"),
    (WLLN_TEXT.replace("replications = 150", "replications = 50"), [], "replications"),
    ("command = sample\nfamily = scaled_ar1\nbody = interval 0 1\nrho = -0.5\nlength = 3\n",
     [], "rho"),
    # support values whose products overflow: no correlation of nan
    (_UNCORR_OVERFLOW + _HUGE_SCALED, [], "overflow"),
    (_UNCORR_OVERFLOW + _HUGE_BLOCKS, [], "overflow"),
    (_TINY_SIGNIFICANCE, [], "significance"),
    (_BOUNDED_BY + "nan\n", [], "bound"),
    (_BOUNDED_BY + "inf\n", [], "bound"),
    ("command = check-cond\nkind = wlln_eq4\nvariances = 1e308,1e308\n", [],
     "variance sums overflow"),
    (_HUGE_WLLN, [], "variance sums overflow"),
    (_HAUSDORFF.format("interval -1e308 1e308", "interval 1e308 1e308"), [], "overflows"),
    (_HAUSDORFF.format("ellipsoid 2 1e308 1e308 1e308 1e308", "box 2 0 0 1 1"), [],
     "overflows"),
    *((text, [], f"key {key!r}") for _, text, key in _UNREAD),
], ids=["threads", "no-equals", "empty-key", "no-command", "grid-scheme-alone",
        "significance", "threshold", "enforce-condition", "kind", "bound-m",
        "no-schedule", "1d-seeded-grid", "1d-exact1d-count", "hausdorff-1d-2d-grid",
        "wlln-replications", "ar1-negative-rho", "uncorr-overflow-scaled",
        "uncorr-overflow-ellipsoid", "tiny-significance", "bound-m-nan", "bound-m-inf",
        "wlln_eq4-sums-overflow", "wlln-sums-overflow", "hausdorff-interval-overflow",
        "hausdorff-ellipsoid-overflow", *(name for name, _, _ in _UNREAD)])
def test_bad_input_is_one_line_error(text, args, names, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), *args]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("setlaw: ") and names in err[0], err
    # the family, the grid and the run config are refused before the directory is made
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text,key", [(text, key) for _, text, key in _UNREAD],
                         ids=[name for name, _, _ in _UNREAD])
def test_key_the_run_never_reads_is_refused_before_any_output(text, key, tmp_path):
    with pytest.raises(ConfigError, match=f"key '{key}' is not read"):
        parse_config(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("family,key", [
    ("scaled_iid\nbody = interval 0 1", "rho = 0.9"),
    ("scaled_iid\nbody = interval 0 1", "block_dim = 4"),
    ("scaled_ar1\nbody = interval 0 1\nrho = 0.5", "a = 2"),
    ("deterministic\nbody = interval 0 1", "growth = 0.5"),
    ("deterministic\nbody = interval 0 1", "rho = 0.5"),
    ("ellipsoid_interval", "body = box 2 0 0 1 1"),
    ("ellipsoid_interval", "growth = 0.5"),
    ("ellipsoid_interval", "grid_seed = 3"),
], ids=["iid-rho", "iid-block_dim", "ar1-a", "deterministic-growth", "deterministic-rho",
        "interval-body", "interval-growth", "interval-grid_seed"])
def test_family_key_the_family_never_reads_is_one_line_error(family, key, tmp_path,
                                                             capsys):
    name = key.split(" = ")[0]
    text = f"command = sample\nfamily = {family}\n{key}\nlength = 5\n"
    with pytest.raises(ConfigError, match=f"key '{name}' is not read by family"):
        parse_config(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("setlaw: ") and repr(name) in err[0], err
    assert not (tmp_path / "o").exists()


# -- table writers: each writes what csv.writer would --------------------------------

_ODD = [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 0.25]


def _assert_csv_writer_bytes(got: Path, header, rows):
    import csv
    want = got.with_name("want.csv")
    with open(want, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    assert got.read_bytes() == want.read_bytes()


def _row(n, values, bound=None, bound_ok=None):
    from setlaw.harness import ReportRow
    return ReportRow(n, *values, bound=bound, bound_ok=bound_ok)


def test_wlln_detail_csv_is_what_csv_writer_writes(tmp_path):
    from setlaw.cli import write_wlln_detail_csv
    from setlaw.harness import ConvergenceReport
    gaps = {3: np.array(_ODD), 7: np.array(_ODD[::-1])}
    report = ConvergenceReport("wlln", (_row(3, _ODD[:3], 1e-300, True),
                                        _row(7, _ODD[3:])), 6, epsilon=0.25, detail=gaps)
    write_wlln_detail_csv(report, tmp_path / "got.csv")
    bound = {3: repr(1e-300), 7: ""}
    _assert_csv_writer_bytes(
        tmp_path / "got.csv", ["n", "replication", "d_h", "epsilon", "exceeded", "bound"],
        [[n, r, repr(d), repr(0.25), int(d > 0.25), bound[n]]
         for n in (3, 7) for r, d in enumerate(gaps[n].tolist())])


def test_wlln_summary_csv_is_what_csv_writer_writes(tmp_path):
    from setlaw.cli import write_wlln_summary_csv
    from setlaw.harness import ConvergenceReport
    rows = (_row(3, _ODD[:3], -0.0, False), _row(7, _ODD[3:]))
    write_wlln_summary_csv(ConvergenceReport("wlln", rows, 6, epsilon=0.5),
                           tmp_path / "got.csv")
    _assert_csv_writer_bytes(
        tmp_path / "got.csv", ["n", "mean_d_h", "max_d_h", "exceedance", "bound", "bound_ok"],
        [[3, repr(_ODD[0]), repr(_ODD[1]), repr(_ODD[2]), repr(-0.0), 0],
         [7, repr(_ODD[3]), repr(_ODD[4]), repr(_ODD[5]), "", ""]])


def test_slln_summary_csv_is_what_csv_writer_writes(tmp_path):
    from setlaw.cli import write_slln_summary_csv
    from setlaw.harness import ConvergenceReport
    rows = (_row(1, _ODD[:3]), _row(4, _ODD[3:]))
    write_slln_summary_csv(ConvergenceReport("slln", rows, 2),
                           tmp_path / "got.csv")
    _assert_csv_writer_bytes(
        tmp_path / "got.csv",
        ["n", "mean_s_n_over_n", "max_s_n_over_n", "frac_above_threshold"],
        [[row.n, repr(row.mean_value), repr(row.max_value), repr(row.exceed_freq)]
         for row in rows])


def test_plot_series_csv_is_what_csv_writer_writes(tmp_path):
    from setlaw.cli import write_plot_series
    series = {"b": list(zip((1, 4, 9), _ODD[:3])), "a": list(zip((2, 5, 8), _ODD[3:]))}
    assert write_plot_series(series, tmp_path) == ["plot_a.csv", "plot_b.csv"]
    for name, pairs in series.items():
        _assert_csv_writer_bytes(tmp_path / f"plot_{name}.csv", ["n", "value"],
                                 [[n, repr(v)] for n, v in pairs])


def test_condition_csv_is_what_csv_writer_writes(tmp_path, monkeypatch, capsys):
    from setlaw import cli
    from setlaw.stats import ConditionResult
    monkeypatch.setattr(cli, "evaluate_variance_condition", lambda *args, **kwargs:
                        ConditionResult(True, np.array(_ODD), "wlln_eq4", "pinned"))
    config = parse_config("command = check-cond\nkind = wlln_eq4\nvariances = 1,1\n")
    assert dispatch(config, out_dir=str(tmp_path)) == EXIT_OK
    _assert_csv_writer_bytes(tmp_path / "condition.csv", ["n", "value"],
                             [[n, repr(v)] for n, v in enumerate(_ODD, start=1)])


@pytest.mark.parametrize("family", [
    "family = scaled_iid\nbody = box 2 -1 -0.5 1 2\ngrid_scheme = uniform_angles_2d\n"
    "grid_count = 16\n",
    "family = ellipsoid_interval\na = 1,2\nblock_dim = 3\n",
], ids=["scaled-box2d", "ellipsoid-interval"])
def test_uncorr_run_reads_support_tables_and_builds_no_body(family, tmp_path, monkeypatch):
    """test-uncorr takes each draw's support table: no per-body support values, no c * T."""
    from setlaw import sampling, stats
    calls = []
    for module, attr in ((sampling, "support_values"), (stats, "support_values"),
                         (sampling, "scalar_mul")):
        original = getattr(module, attr, None)
        monkeypatch.setattr(module, attr,
                            lambda *a, _f=original, _n=attr: calls.append(_n) or _f(*a),
                            raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command = test-uncorr\nseed = 3\n{family}length = 4\nreplications = 40\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert calls == []
