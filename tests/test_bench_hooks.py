"""The names the benchmark wraps must exist in the library.

``bench/spans.py`` and ``bench/child.py`` patch library attributes by
name, so renaming one silently drops a metric or breaks the benchmark.
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
