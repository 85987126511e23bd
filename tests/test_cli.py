import os
import subprocess
import sys
from pathlib import Path

import pytest

from setlaw.cli import (
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


def test_strict_flags_failure_exits_nonzero(capsys, tmp_path):
    # correlated growing family: exceedances blow past the uncorrelated bound
    text = ("command = wlln\nseed = 2\nfamily = scaled_ar1\nbody = interval 0 4\n"
            "rho = 0.9\ngrowth = 0.5\nn_grid = 100,400\nepsilon = 0.4\n"
            "replications = 120\nenforce_condition = false\n")
    config = parse_config(text)
    assert dispatch(config, out_dir=str(tmp_path)) == EXIT_OK  # not strict
    assert dispatch(config, out_dir=str(tmp_path), strict=True) == EXIT_STRICT_FAILURE


def test_strict_ok_run_exits_zero(tmp_path):
    config = parse_config(WLLN_TEXT)
    assert dispatch(config, out_dir=str(tmp_path), strict=True) == EXIT_OK


# -- process-level behavior ---------------------------------------------------------

def test_cli_end_to_end_repeatable_bytes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WLLN_TEXT)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    r1 = _run_cli(["--config", str(cfg), "--out", str(out1)])
    r2 = _run_cli(["--config", str(cfg), "--out", str(out2)])
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
    assert _dir_bytes(out1) == _dir_bytes(out2)


def test_seed_override_changes_outputs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WLLN_TEXT)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    r1 = _run_cli(["--config", str(cfg), "--out", str(out1)])
    r2 = _run_cli(["--config", str(cfg), "--out", str(out2), "--seed", "43"])
    assert r1.returncode == 0 and r2.returncode == 0
    assert _dir_bytes(out1) != _dir_bytes(out2)


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


def test_bad_threads_env_is_one_line_error(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WLLN_TEXT)
    monkeypatch.setenv("SETLAW_THREADS", "abc")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("setlaw: ") and "SETLAW_THREADS" in err[0]
    assert not (tmp_path / "o").exists()
