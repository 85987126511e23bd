"""The names the benchmark wraps must exist in the library, on the path it times.

``bench/spans.py`` and ``bench/child.py`` patch library attributes by
name, so renaming one silently drops a metric or breaks the benchmark,
and moving a call off the patched name leaves its span empty.
``install`` monkeypatches the library, so it runs in a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import json
import spans
from setlaw import cli, sampling

# the attributes bench/child.py wraps around each timed invocation
wrapped = [(cli, "run_wlln"), (cli, "run_slln"), (cli, "test_uncorrelated"),
           (sampling.ScaledTemplateFamily, "sample")]
absent = [f"{owner.__name__}.{attr}" for owner, attr in wrapped
          if not callable(getattr(owner, attr, None))]
tracer = spans.Tracer()
spans.install(tracer)
print(json.dumps({"absent": absent, "missing": tracer.missing}))
"""


def test_every_benchmark_hook_finds_its_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    result = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                            env=env, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"absent": [], "missing": []}


_BOX_UNCORR = ("command = test-uncorr\nseed = 5\nfamily = scaled_iid\n"
               "body = box 2 -1 -0.5 1 2\ngrid_scheme = uniform_angles_2d\n"
               "grid_count = 16\nlength = 4\nreplications = 30\n")


def test_traced_uncorr_run_records_a_span_at_every_stage(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_BOX_UNCORR)
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "--report", str(report),
         "--trace", "1", "cli", "--", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    data = json.loads(report.read_text())
    assert data["missing_hooks"] == []
    assert data["t_setup"] is not None and data["t_ops_end"] is not None
    spans = data["spans"]  # [name, start, end, parent index, attrs]
    recorded = {span[0] for span in spans}
    assert {"sampling.sample", "stats.tensor", "stats.uncorr", "cli.write"} <= recorded
    # the timed window opens at the first draw and closes when the test returns:
    # one draw per replication, and the tensor inside the test
    assert sum(span[0] == "sampling.sample" for span in spans) == 30

    def ancestors(span):
        while span[3] >= 0:
            span = spans[span[3]]
            yield span[0]
    assert any("stats.uncorr" in ancestors(span) for span in spans
               if span[0] == "stats.tensor")


def _traced_cli_run(config: str, tmp_path: Path) -> list:
    """The spans of one traced ``bench/child.py`` run of the CLI at one worker."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "--report", str(report),
         "--trace", "1", "cli", "--", "--config", str(cfg), "--out", str(tmp_path / "out"),
         "--threads", "1"],
        capture_output=True, text=True, env=env, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    data = json.loads(report.read_text())
    assert data["missing_hooks"] == []
    return data["spans"]


def test_traced_slln_run_records_one_chunk_map(tmp_path):
    # the strong law draws each chunk's scales at once, so no per-path
    # ``sampling.draw`` span remains; the chunk map carries the paths
    spans = _traced_cli_run("command = slln\nseed = 3\nfamily = ellipsoid_interval\na = 1\n"
                            "block_dim = 4\nmax_n = 100\npaths = 16\n", tmp_path)
    chunks = [span for span in spans if span[0] == "harness.chunks"]
    assert [span[4] for span in chunks] == [{"n": 100, "items": 16}]
    assert spans[chunks[0][3]][0] == "harness.run_slln"


def test_traced_wlln_run_records_one_chunk_map_per_n(tmp_path):
    spans = _traced_cli_run("command = wlln\nseed = 3\nfamily = ellipsoid_interval\na = 1\n"
                            "n_grid = 10,100\nepsilon = 0.5\nreplications = 300\n", tmp_path)
    assert [span[4] for span in spans if span[0] == "harness.chunks"] == \
        [{"n": 10, "items": 300}, {"n": 100, "items": 300}]
