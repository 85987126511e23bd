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
    recorded = {span[0] for span in data["spans"]}
    assert {"sampling.sample", "stats.tensor", "stats.uncorr", "cli.write"} <= recorded
